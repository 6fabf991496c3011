"""Shared test helpers: word transformations, hypothesis strategies and
the polynomial, matrix, table, word and geometry operations only the
tests need."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path
from typing import Optional

from hypothesis import strategies as st

from knot818.allocation import SiteAllocation
from knot818.braid import AnnularEmbedding, BraidWord
from knot818.diagram import (
    BRANCH_SITES,
    INNER_SITES,
    LETTER_SITES,
    OUTER_SITES,
    DiagramWord,
    Role,
    Visit,
    canonical_818,
)
from knot818.invariants import PolyMatrix
from knot818.laurent import LaurentPoly
from knot818.traversal import TABLE_KEYS, StartSpec, TraversalTable

ZERO = LaurentPoly()

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def load_script(name: str, home: Path = SCRIPTS):
    """Import ``<home>/<name>.py``, by default from ``scripts/``, as a module."""
    spec = importlib.util.spec_from_file_location(name, home / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cut(text: str) -> str:
    """How an error message shows quoted text longer than 40 characters."""
    return f"{text[:40]}... ({len(text)} characters)"


def cut_path(text: str) -> str:
    """How an error message shows a path longer than 40 characters: its last 40, with the file name."""
    return f"...{text[-40:]} ({len(text)} characters)"


class MultiLoopError(ValueError):
    """One polyline asked of an embedding with other than one loop."""


class ParallelStrandsError(ValueError):
    """Crossing direction vectors do not span the plane."""


def polyline(embedding: AnnularEmbedding) -> tuple[complex, ...]:
    """The one loop of a single-loop embedding."""
    if len(embedding.loops) != 1:
        raise MultiLoopError(f"embedding has {len(embedding.loops)} loops, not a single polyline")
    return embedding.loops[0]


def crossing_sign_from_geometry(over_direction: complex, under_direction: complex) -> int:
    """Sign of a crossing from the two strand tangents at its point.

    +1 when the under direction sits counterclockwise of the over
    direction.  Directions are unit-normalized first; a normalized cross
    product below 1e-12 (including zero vectors) is rejected.
    """
    norm_o = abs(over_direction)
    norm_u = abs(under_direction)
    if norm_o == 0.0 or norm_u == 0.0:
        raise ParallelStrandsError("zero-length direction vector")
    # the imaginary part of conj(o) * u is the cross product o.x * u.y - o.y * u.x
    cross = (over_direction.conjugate() * under_direction).imag / (norm_o * norm_u)
    if abs(cross) < 1e-12:
        raise ParallelStrandsError("strand directions are parallel at the crossing")
    return 1 if cross > 0 else -1


def table_value(table: TraversalTable, site: str, role: Role) -> int:
    """The value a table assigns the visit ``(site, role)``; KeyError if there is none."""
    return dict(zip(TABLE_KEYS, table.values))[site, role]


def totals_by_site(allocation: SiteAllocation) -> dict[str, int]:
    """An allocation's twelve totals keyed by site."""
    return dict(zip(LETTER_SITES, allocation.totals))


def word_sites(word: DiagramWord) -> tuple[str, ...]:
    return tuple(v.site for v in word)


def mirror_word(word: DiagramWord) -> DiagramWord:
    """Swap over and under at every crossing (the mirror diagram)."""
    return DiagramWord(Visit(v.site, v.role.swapped) for v in word)


def poly_from_terms(terms: dict[int, int]) -> LaurentPoly:
    """The polynomial with coefficient ``terms[e]`` on t^e."""
    if not terms:
        return ZERO
    lo, hi = min(terms), max(terms)
    return LaurentPoly(lo, tuple(terms.get(e, 0) for e in range(lo, hi + 1)))


def subs_inverse(p: LaurentPoly) -> LaurentPoly:
    """p with t replaced by 1/t."""
    if p.is_zero:
        return p
    return LaurentPoly(-(p.min_exp + len(p.coeffs) - 1), tuple(reversed(p.coeffs)))


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Matrix product, entry by entry in the Laurent ring."""
    cols = list(zip(*b.rows))
    return PolyMatrix(
        tuple(tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in cols) for row in a.rows)
    )


def relabel_table(table: TraversalTable, mapping: dict[str, str]) -> TraversalTable:
    """Rename sites; the start spec moves with them."""
    moved = {(mapping[site], role): value for (site, role), value in zip(TABLE_KEYS, table.values)}
    start = StartSpec(mapping[table.start.site], table.start.direction, table.start.entry_role)
    return TraversalTable(start, tuple(moved[key] for key in TABLE_KEYS), mirrored=table.mirrored)


def transformed_canonical(
    offset: int = 0,
    reverse: bool = False,
    mirror: bool = False,
    inner: Optional[tuple[str, ...]] = None,
    outer: Optional[tuple[str, ...]] = None,
    branch: Optional[tuple[str, ...]] = None,
) -> DiagramWord:
    """A valid word: canonical_818 rotated/reversed/mirrored/relabeled.

    The per-class permutations keep the relabeling class-preserving, so
    the result always passes validate_word.
    """
    word = canonical_818()
    mapping = {}
    mapping.update(zip(INNER_SITES, inner or INNER_SITES))
    mapping.update(zip(OUTER_SITES, outer or OUTER_SITES))
    mapping.update(zip(BRANCH_SITES, branch or BRANCH_SITES))
    word = word.relabeled(mapping)
    if reverse:
        word = word.reversed_()
    if mirror:
        word = mirror_word(word)
    return word.rotated(offset)


def random_valid_word(rng: random.Random) -> DiagramWord:
    return transformed_canonical(
        offset=rng.randrange(20),
        reverse=rng.random() < 0.5,
        mirror=rng.random() < 0.5,
        inner=tuple(rng.sample(INNER_SITES, 4)),
        outer=tuple(rng.sample(OUTER_SITES, 4)),
        branch=tuple(rng.sample(BRANCH_SITES, 4)),
    )


valid_words = st.builds(
    transformed_canonical,
    offset=st.integers(0, 19),
    reverse=st.booleans(),
    mirror=st.booleans(),
    inner=st.permutations(INNER_SITES).map(tuple),
    outer=st.permutations(OUTER_SITES).map(tuple),
    branch=st.permutations(BRANCH_SITES).map(tuple),
)


def braid_words(max_strands: int = 4, min_len: int = 0, max_len: int = 8):
    """Strategy for arbitrary braid words (closures may be links)."""

    def build(strands: int, signs_and_indices: list[tuple[bool, int]]) -> BraidWord:
        letters = tuple(
            (i % (strands - 1) + 1) * (1 if pos else -1) for pos, i in signs_and_indices
        )
        return BraidWord(strands, letters)

    return st.builds(
        build,
        st.integers(2, max_strands),
        st.lists(st.tuples(st.booleans(), st.integers(0, 10)), min_size=min_len, max_size=max_len),
    )


def closure_permutation(braid: BraidWord) -> tuple[int, ...]:
    """Entry p-1 is the position where the strand entering at p exits.

    ``at[q-1]`` is the strand at position q; each letter i swaps
    ``at[i-1], at[i]`` once, whatever its sign.
    """
    at = list(range(1, braid.strands + 1))
    for letter in braid.letters:
        i = abs(letter)
        at[i - 1], at[i] = at[i], at[i - 1]
    exits = [0] * braid.strands
    for pos, strand in enumerate(at, 1):
        exits[strand - 1] = pos
    return tuple(exits)


signs = st.sampled_from((1, -1))


@st.composite
def knot_braids(draw, min_strands=2, max_strands=6, max_letters=None):
    """A braid whose closure is a knot by construction, never by rejection.

    Like ``perfbench/inputs.knot_closure_letters``, it tracks the
    permutation: each generator once, in any order, merges the n strands
    into one cycle, and squares of generators permute nothing, so
    inserting them anywhere keeps the closure a knot.  ``max_letters``,
    at least ``max_strands - 1``, caps the word length.
    """
    strands = draw(st.integers(min_strands, max_strands))
    pairs = 2 * strands if max_letters is None else min(2 * strands, (max_letters - strands + 1) // 2)
    letters = [g * draw(signs) for g in draw(st.permutations(range(1, strands)))]
    for _ in range(draw(st.integers(0, pairs))):
        g = draw(st.integers(1, strands - 1))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = [g * draw(signs), g * draw(signs)]
    return BraidWord(strands, tuple(letters))
