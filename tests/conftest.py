"""Shared test helpers: word transformations, hypothesis strategies and
the polynomial, matrix and table operations only the tests need."""

from __future__ import annotations

import random
from typing import Optional

from hypothesis import strategies as st

from knot818.braid import BraidWord
from knot818.diagram import (
    BRANCH_SITES,
    INNER_SITES,
    OUTER_SITES,
    DiagramWord,
    canonical_818,
)
from knot818.invariants import PolyMatrix
from knot818.laurent import LaurentPoly
from knot818.traversal import TABLE_KEYS, StartSpec, TraversalTable

ZERO = LaurentPoly()


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
    return LaurentPoly(-p.max_exp, tuple(reversed(p.coeffs)))


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
        word = word.mirrored()
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


def braid_words(max_strands: int = 4, max_len: int = 8):
    """Strategy for arbitrary braid words (closures may be links)."""

    def build(strands: int, signs_and_indices: list[tuple[bool, int]]) -> BraidWord:
        letters = tuple(
            (i % (strands - 1) + 1) * (1 if pos else -1) for pos, i in signs_and_indices
        )
        return BraidWord(strands, letters)

    return st.builds(
        build,
        st.integers(2, max_strands),
        st.lists(st.tuples(st.booleans(), st.integers(0, 10)), max_size=max_len),
    )


signs = st.sampled_from((1, -1))


@st.composite
def knot_braids(draw, min_strands=2, max_strands=6):
    """A braid whose closure is a knot by construction, never by rejection.

    Like ``perfbench/inputs.knot_closure_letters``, it tracks the
    permutation: each generator once, in any order, merges the n strands
    into one cycle, and squares of generators permute nothing, so
    inserting them anywhere keeps the closure a knot.
    """
    strands = draw(st.integers(min_strands, max_strands))
    letters = [g * draw(signs) for g in draw(st.permutations(range(1, strands)))]
    for _ in range(draw(st.integers(0, 2 * strands))):
        g = draw(st.integers(1, strands - 1))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = [g * draw(signs), g * draw(signs)]
    return BraidWord(strands, tuple(letters))
