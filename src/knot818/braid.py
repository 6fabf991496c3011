"""Annular braid closures and their geometry.

A braid word on n strands is closed around the origin: strand positions
become concentric radii, each braid letter occupies one angular slot,
and the closure identifies the ends.  Walking the closed curve yields a
:class:`~knot818.diagram.DiagramWord`; sampling it yields a planar
polyline whose winding around the origin and local crossing geometry are
checked against the combinatorics.

Conventions.  Positive letter i crosses the strand entering at position
i over the strand at position i+1; the walk and the angular coordinate
both run counterclockwise.  With those choices the geometric sign of
every crossing (z-component of over-tangent cross under-tangent) equals
the sign of its braid letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .diagram import (
    BRANCH_SITES,
    INNER_SITES,
    OUTER_SITES,
    DiagramWord,
    Role,
    Visit,
    canonical_818,
    cyclic_equivalent,
)


class NotAKnotError(ValueError):
    """Closure has more than one component."""


class VertexRuleInapplicableError(ValueError):
    """Branch-vertex insertion requested for a braid it is not defined on."""


class BadRadiiError(ValueError):
    """Radii must be positive, strictly increasing, one per strand."""


class OriginOnCurveError(ValueError):
    """A polyline vertex sits on the winding center."""


class ParallelStrandsError(ValueError):
    """Crossing direction vectors do not span the plane."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands.

    Letters are nonzero integers: i means the positive generator at
    positions (i, i+1), -i its inverse.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise ValueError("a braid needs at least 2 strands")
        letters = tuple(int(l) for l in self.letters)
        for l in letters:
            if l == 0 or abs(l) > self.strands - 1:
                raise ValueError(f"letter {l} out of range for {self.strands} strands")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def exponent_sum(self) -> int:
        return sum(1 if l > 0 else -1 for l in self.letters)

    def closure_permutation(self) -> tuple[int, ...]:
        """Entry p-1 is the position where the strand entering at p exits."""
        cur = list(range(1, self.strands + 1))
        for letter in self.letters:
            i = abs(letter)
            for k, pos in enumerate(cur):
                if pos == i:
                    cur[k] = i + 1
                elif pos == i + 1:
                    cur[k] = i
        return tuple(cur)

    @property
    def closure_components(self) -> int:
        """Number of components of the closure: cycles of the permutation."""
        perm = self.closure_permutation()
        seen = [False] * self.strands
        count = 0
        for start in range(self.strands):
            if not seen[start]:
                count += 1
                p = start
                while not seen[p]:
                    seen[p] = True
                    p = perm[p] - 1
        return count

    @property
    def is_knot_closure(self) -> bool:
        return self.closure_components == 1


def require_knot_closure(braid: BraidWord) -> None:
    """Raise :class:`NotAKnotError` unless the closure is a single knot.

    The message gives sizes, not the word, so it stays short however
    long the word is.
    """
    components = braid.closure_components
    if components != 1:
        raise NotAKnotError(
            f"closure of a {len(braid)}-letter braid on {braid.strands} strands"
            f" has {components} components, so it is not a knot"
        )


# The main diagram: four turns of the alternating two-generator pattern.
BRAID_818 = BraidWord(3, (1, -2, 1, -2, 1, -2, 1, -2))


@dataclass(frozen=True)
class SignedCrossing:
    """One crossing of a closure, tied back to the word that walked it.

    ``over_strand`` and ``under_strand`` index into the visit list of the
    DiagramWord returned alongside.
    """

    id: int
    sign: int
    over_strand: int
    under_strand: int
    site: str


@dataclass(frozen=True)
class _Pass:
    """One trip through one angular slot."""

    slot: int
    entry: int
    exit: int
    crossing: Optional[int]
    role: Optional[Role]


def _walk_loops(braid: BraidWord) -> list[list[_Pass]]:
    """Decompose the closure into loops of consecutive slot passes.

    Requires at least one letter.  Every loop starts at slot 0, so the
    k-th pass of a loop sits in slot k mod len(letters).
    """
    letters = braid.letters
    n_slots = len(letters)
    visited: set[tuple[int, int]] = set()
    loops: list[list[_Pass]] = []
    for pos0 in range(1, braid.strands + 1):
        if (0, pos0) in visited:
            continue
        loop: list[_Pass] = []
        slot, pos = 0, pos0
        while (slot, pos) not in visited:
            visited.add((slot, pos))
            letter = letters[slot]
            i = abs(letter)
            if pos in (i, i + 1):
                exit_pos = i + 1 if pos == i else i
                over = (pos == i) if letter > 0 else (pos == i + 1)
                loop.append(_Pass(slot, pos, exit_pos, slot, Role.OVER if over else Role.UNDER))
            else:
                exit_pos = pos
                loop.append(_Pass(slot, pos, pos, None, None))
            slot, pos = (slot + 1) % n_slots, exit_pos
        loops.append(loop)
    return loops


def _vertex_rule_applies(braid: BraidWord) -> bool:
    # The marked-point rule is defined only on the main annular shape:
    # three strands, eight letters alternating between the two generators
    # with opposite signs (either generator may lead, either chirality).
    if braid.strands != 3 or len(braid.letters) != 8:
        return False
    mags = tuple(abs(l) for l in braid.letters)
    if mags not in ((1, 2) * 4, (2, 1) * 4):
        return False
    signs_1 = {l > 0 for l in braid.letters if abs(l) == 1}
    signs_2 = {l > 0 for l in braid.letters if abs(l) == 2}
    return len(signs_1) == 1 and len(signs_2) == 1 and signs_1 != signs_2


def closure_diagram(
    braid: BraidWord, insert_vertices: Optional[bool] = None
) -> tuple[DiagramWord, tuple[SignedCrossing, ...]]:
    """Walk the closure of ``braid`` into a diagram word.

    The closure must be a single knot.  For the main annular shape (and
    only there), a through vertex is inserted on each outermost arc
    between consecutive outer crossings; ``insert_vertices`` forces the
    rule on (raising :class:`VertexRuleInapplicableError` when it does
    not apply) or off, and None means automatic.

    Fresh labels are assigned in first-visit order.  When the walked
    loop turns out to be the stored reference word up to basepoint,
    direction, and renaming, the whole presentation is re-based through
    the :func:`cyclic_equivalent` witness so callers see that word
    verbatim.
    """
    require_knot_closure(braid)
    eligible = _vertex_rule_applies(braid)
    if insert_vertices and not eligible:
        raise VertexRuleInapplicableError("branch vertices are only defined on the annular 3-strand shape")
    use_vertices = eligible if insert_vertices is None else bool(insert_vertices)

    passes = _walk_loops(braid)[0]
    events: list[tuple] = []  # ("x", slot, role) or ("arc",)
    for p in passes:
        if p.crossing is not None:
            events.append(("x", p.slot, p.role))
        elif use_vertices and p.entry == braid.strands:
            events.append(("arc",))

    xs = [(i, ev) for i, ev in enumerate(events) if ev[0] == "x"]
    seq: list[tuple] = []  # ("x", slot, role) / ("v",)
    for k, (at, ev) in enumerate(xs):
        seq.append(ev)
        if k + 1 < len(xs):
            between = events[at + 1 : xs[k + 1][0]]
        else:
            between = events[at + 1 :] + events[: xs[0][0]]
        if any(e[0] == "arc" for e in between):
            seq.append(("v",))

    visits: list[Visit] = []
    slot_label: dict[int, str] = {}
    slot_visits: dict[int, dict[Role, int]] = {}
    if use_vertices:
        banks = {1: iter(INNER_SITES), 2: iter(OUTER_SITES)}
        vertex_bank = iter(BRANCH_SITES)
    for ev in seq:
        if ev[0] == "v":
            visits.append(Visit(next(vertex_bank), Role.THROUGH))
            continue
        _, slot, role = ev
        label = slot_label.get(slot)
        if label is None:
            if use_vertices:
                label = next(banks[abs(braid.letters[slot])])
            else:
                label = str(len(slot_label) + 1)
            slot_label[slot] = label
        slot_visits.setdefault(slot, {})[role] = len(visits)
        visits.append(Visit(label, role))

    word = DiagramWord(tuple(visits))
    if use_vertices:
        witness = cyclic_equivalent(word, canonical_818())
        if witness is not None:
            # Re-base the walk so the word reads exactly as the stored
            # one; crossing indices must follow the same move.
            length = len(word)

            def present(i: int) -> int:
                if witness.reversed_:
                    return (length - 1 - i - witness.offset) % length
                return (i - witness.offset) % length

            slot_visits = {
                slot: {role: present(i) for role, i in roles.items()}
                for slot, roles in slot_visits.items()
            }
            word = witness.apply(word)

    crossings = tuple(
        SignedCrossing(
            id=slot,
            sign=1 if braid.letters[slot] > 0 else -1,
            over_strand=slot_visits[slot][Role.OVER],
            under_strand=slot_visits[slot][Role.UNDER],
            site=word[slot_visits[slot][Role.OVER]].site,
        )
        for slot in sorted(slot_visits)
    )
    return word, crossings


def writhe(crossings: Iterable[SignedCrossing]) -> int:
    """Sum of crossing signs; equals the braid exponent sum for closures."""
    return sum(c.sign for c in crossings)


@dataclass(frozen=True)
class CrossingMarker:
    """Geometry of one crossing in an embedding.

    Directions are the curve tangents of the two strands at the shared
    point, in walk order parameterization (unnormalized).
    """

    crossing: int
    sign: int
    point: tuple[float, float]
    over_direction: tuple[float, float]
    under_direction: tuple[float, float]


@dataclass(frozen=True)
class AnnularEmbedding:
    """Sampled planar picture of a braid closure around the origin.

    Each loop is a closed polyline (first point repeated at the end).
    """

    loops: tuple[tuple[tuple[float, float], ...], ...]
    origin: tuple[float, float] = (0.0, 0.0)
    radii: tuple[float, ...] = ()
    markers: tuple[CrossingMarker, ...] = ()

    @property
    def polyline(self) -> tuple[tuple[float, float], ...]:
        if len(self.loops) != 1:
            raise ValueError(f"embedding has {len(self.loops)} loops, not a single polyline")
        return self.loops[0]


def annular_embed(
    braid: BraidWord, radii: Sequence[float], slots_per_letter: int = 64
) -> AnnularEmbedding:
    """Sample the closure as concentric arcs with cosine-eased strand swaps.

    Strand position p rides at radii[p-1]; each letter occupies one
    angular slot of width 2*pi/len(letters), and the two strands it
    swaps trade radii across the slot, meeting at its midpoint.
    """
    radii = tuple(float(r) for r in radii)
    if (
        len(radii) != braid.strands
        or any(r <= 0.0 for r in radii)
        or any(a >= b for a, b in zip(radii, radii[1:]))
    ):
        raise BadRadiiError(f"need {braid.strands} positive strictly increasing radii, got {radii}")
    if slots_per_letter < 1:
        raise ValueError("slots_per_letter must be at least 1")

    if not braid.letters:
        pts_per = max(3, slots_per_letter)
        loops = []
        for r in radii:
            pts = [
                (r * math.cos(2.0 * math.pi * m / pts_per), r * math.sin(2.0 * math.pi * m / pts_per))
                for m in range(pts_per)
            ]
            pts.append(pts[0])
            loops.append(tuple(pts))
        return AnnularEmbedding(tuple(loops), (0.0, 0.0), radii, ())

    width = 2.0 * math.pi / len(braid.letters)
    marker_parts: dict[int, dict[Role, tuple]] = {}
    loops = []
    for loop in _walk_loops(braid):
        pts: list[tuple[float, float]] = []
        for k, p in enumerate(loop):
            theta0 = k * width
            r_in = radii[p.entry - 1]
            r_out = radii[p.exit - 1]
            for m in range(slots_per_letter):
                s = m / slots_per_letter
                if p.crossing is None:
                    r = r_in
                else:
                    r = r_in + (r_out - r_in) * (1.0 - math.cos(math.pi * s)) / 2.0
                th = theta0 + s * width
                pts.append((r * math.cos(th), r * math.sin(th)))
            if p.crossing is not None:
                # tangent at the slot midpoint, where the two strands meet
                th = theta0 + width / 2.0
                r_mid = (r_in + r_out) / 2.0
                dr = (r_out - r_in) * math.pi / 2.0
                cos_t, sin_t = math.cos(th), math.sin(th)
                direction = (dr * cos_t - r_mid * width * sin_t, dr * sin_t + r_mid * width * cos_t)
                point = (r_mid * cos_t, r_mid * sin_t)
                assert p.role is not None
                marker_parts.setdefault(p.slot, {})[p.role] = (point, direction)
        pts.append(pts[0])
        loops.append(tuple(pts))

    markers = []
    for slot in sorted(marker_parts):
        parts = marker_parts[slot]
        point, over_dir = parts[Role.OVER]
        _, under_dir = parts[Role.UNDER]
        markers.append(
            CrossingMarker(
                crossing=slot,
                sign=1 if braid.letters[slot] > 0 else -1,
                point=point,
                over_direction=over_dir,
                under_direction=under_dir,
            )
        )
    return AnnularEmbedding(tuple(loops), (0.0, 0.0), radii, tuple(markers))


def winding_phase(embedding: AnnularEmbedding) -> float:
    """Total angle swept around the origin, summed over all loops.

    For closed loops this is 2*pi times the total winding number.  No
    polyline vertex may coincide with the origin.
    """
    total = 0.0
    for pts in embedding.loops:
        if len(pts) < 2 or pts[0] != pts[-1]:
            raise ValueError("loop is not a closed polyline")
        for x, y in pts:
            if math.hypot(x, y) < 1e-12:
                raise OriginOnCurveError("polyline vertex at the winding center")
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            total += math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)
    return total


def crossing_sign_from_geometry(
    over_direction: tuple[float, float], under_direction: tuple[float, float]
) -> int:
    """Sign of a crossing from the two strand tangents at its point.

    +1 when the under direction sits counterclockwise of the over
    direction.  Directions are unit-normalized first; a normalized cross
    product below 1e-12 (including zero vectors) is rejected.
    """
    ox, oy = over_direction
    ux, uy = under_direction
    norm_o = math.hypot(ox, oy)
    norm_u = math.hypot(ux, uy)
    if norm_o == 0.0 or norm_u == 0.0:
        raise ParallelStrandsError("zero-length direction vector")
    cross = (ox * uy - oy * ux) / (norm_o * norm_u)
    if abs(cross) < 1e-12:
        raise ParallelStrandsError("strand directions are parallel at the crossing")
    return 1 if cross > 0 else -1
