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
from itertools import chain, cycle, repeat
from operator import add, mul
from typing import Iterable, NamedTuple, Optional, Sequence

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
from .errors import DomainError, UsageError


class InvalidBraidError(UsageError, ValueError):
    """Fewer than two strands, or a letter outside the generators."""


class NotAKnotError(DomainError, ValueError):
    """Closure has more than one component."""


class VertexRuleInapplicableError(DomainError, ValueError):
    """Branch-vertex insertion requested for a braid it is not defined on."""


class BadRadiiError(DomainError, ValueError):
    """Radii must be finite, positive, strictly increasing, one per strand."""


class BadSamplingError(DomainError, ValueError):
    """Each letter slot needs a sample point, and each turn three."""


class OriginOnCurveError(DomainError, ValueError):
    """A polyline vertex sits on the winding center."""


class OpenLoopError(DomainError, ValueError):
    """A loop handed to the winding count does not end where it starts."""


class BraidWord(NamedTuple("BraidWord", [("strands", int), ("letters", tuple[int, ...])])):
    """A word in the braid group on ``strands`` strands.

    Letters are nonzero integers: i means the positive generator at
    positions (i, i+1), -i its inverse.  ``len`` counts the letters, so
    ``_make`` and ``_replace``, which check it against the field count,
    do not apply.
    """

    __slots__ = ()

    def __new__(cls, strands: int, letters: Iterable[int] = ()) -> "BraidWord":
        if strands < 2:
            raise InvalidBraidError("a braid needs at least 2 strands")
        letters = tuple(int(l) for l in letters)
        for l in letters:
            if l == 0 or abs(l) > strands - 1:
                raise InvalidBraidError(f"letter {l} out of range for {strands} strands")
        return super().__new__(cls, strands, letters)

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


class SignedCrossing(NamedTuple):
    """One crossing of a closure, tied back to the word that walked it.

    ``over_strand`` and ``under_strand`` index into the visit list of the
    DiagramWord returned alongside.
    """

    id: int
    sign: int
    over_strand: int
    under_strand: int
    site: str


class _Pass(NamedTuple):
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
    # The walk meets slot 0 once per turn, and a loop closes only there,
    # so only positions at slot 0 need remembering.
    seen: set[int] = set()
    loops: list[list[_Pass]] = []
    for pos0 in range(1, braid.strands + 1):
        if pos0 in seen:
            continue
        loop: list[_Pass] = []
        pos = pos0
        while pos not in seen:
            seen.add(pos)
            for slot, letter in enumerate(letters):
                i = abs(letter)
                if pos == i:
                    loop.append(_Pass(slot, pos, i + 1, slot, Role.OVER if letter > 0 else Role.UNDER))
                    pos = i + 1
                elif pos == i + 1:
                    loop.append(_Pass(slot, pos, i, slot, Role.UNDER if letter > 0 else Role.OVER))
                    pos = i
                else:
                    loop.append(_Pass(slot, pos, pos, None, None))
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

    seq: list[tuple] = events  # ("x", slot, role) / ("v",)
    if use_vertices:
        # One through vertex in each gap between consecutive crossings
        # that holds an outermost arc, read from the first crossing on.
        first = next(i for i, ev in enumerate(events) if ev[0] == "x")
        seq = []
        for ev in events[first:] + events[:first]:
            if ev[0] == "x":
                seq.append(ev)
            elif seq[-1][0] == "x":
                seq.append(("v",))

    visits: list[Visit] = []
    slot_label: dict[int, str] = {}
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
        visits.append(Visit(label, role))

    word = DiagramWord(tuple(visits))
    if use_vertices:
        witness = cyclic_equivalent(word, canonical_818())
        if witness is not None:
            # Re-base the walk so the word reads exactly as the stored
            # one; crossing labels follow the same renaming.
            word = witness.apply(word)
            slot_label = {slot: witness.mapping[label] for slot, label in slot_label.items()}

    # Each crossing site is visited once over and once under.
    over_at = {site: i for i, (site, role) in enumerate(word) if role is Role.OVER}
    under_at = {site: i for i, (site, role) in enumerate(word) if role is Role.UNDER}
    crossings = tuple(
        SignedCrossing(
            id=slot,
            sign=1 if braid.letters[slot] > 0 else -1,
            over_strand=over_at[label],
            under_strand=under_at[label],
            site=label,
        )
        for slot, label in sorted(slot_label.items())
    )
    return word, crossings


def writhe(crossings: Iterable[SignedCrossing]) -> int:
    """Sum of crossing signs; equals the braid exponent sum for closures."""
    return sum(c.sign for c in crossings)


class CrossingMarker(NamedTuple):
    """Geometry of one crossing in an embedding.

    Directions are the curve tangents of the two strands at the shared
    point, in walk order parameterization (unnormalized).
    """

    crossing: int
    sign: int
    point: tuple[float, float]
    over_direction: tuple[float, float]
    under_direction: tuple[float, float]


class AnnularEmbedding(NamedTuple):
    """Sampled planar picture of a braid closure around the origin.

    Each loop is a closed polyline (first point repeated at the end).
    """

    loops: tuple[tuple[tuple[float, float], ...], ...]
    radii: tuple[float, ...] = ()
    markers: tuple[CrossingMarker, ...] = ()


def annular_embed(
    braid: BraidWord, radii: Optional[Sequence[float]] = None, slots_per_letter: int = 64
) -> AnnularEmbedding:
    """Sample the closure as concentric arcs with cosine-eased strand swaps.

    Strand position p rides at radii[p-1] (default p); each letter
    occupies one angular slot of width 2*pi/len(letters), and the two
    strands it swaps trade radii across the slot, meeting at its midpoint.

    Consecutive samples of a nonempty word are 2*pi/(slots_per_letter *
    len(letters)) apart in angle.  The polyline winds as often as the
    curve only while that step is below pi, so fewer than three samples
    per turn raise :class:`BadSamplingError`.
    """
    radii = tuple(float(r) for r in (range(1, braid.strands + 1) if radii is None else radii))
    if (
        len(radii) != braid.strands
        or not all(0.0 < r < math.inf for r in radii)
        or any(a >= b for a, b in zip(radii, radii[1:]))
    ):
        raise BadRadiiError(f"need {braid.strands} finite positive strictly increasing radii, got {radii}")
    if slots_per_letter < 1:
        raise BadSamplingError(f"slots_per_letter must be at least 1, got {slots_per_letter}")
    if braid.letters and slots_per_letter * len(braid.letters) < 3:
        raise BadSamplingError(
            f"slots_per_letter * letters must be at least 3, got {slots_per_letter} * {len(braid.letters)}"
        )

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
        return AnnularEmbedding(tuple(loops), radii, ())

    width = 2.0 * math.pi / len(braid.letters)
    # Per-sample constants, shared by every pass: the angle offset into
    # the slot and the cosine easing of a strand swap.
    fractions = [m / slots_per_letter for m in range(slots_per_letter)]
    offsets = [s * width for s in fractions]
    easing = [1.0 - math.cos(math.pi * s) for s in fractions]
    # One radius profile per (entry, exit) position pair: constant on a
    # plain pass, the eased swap on a crossing.
    profiles: dict[tuple[int, int], list[float]] = {}
    for entry, r_in in enumerate(radii, 1):
        profiles[entry, entry] = [r_in] * slots_per_letter
        for exit_pos in (entry - 1, entry + 1):
            if 1 <= exit_pos <= braid.strands:
                swap = radii[exit_pos - 1] - r_in
                profiles[entry, exit_pos] = [r_in + swap * e / 2.0 for e in easing]
    cos, sin = math.cos, math.sin
    marker_parts: dict[int, list] = {}  # slot -> [over part, under part]
    loops = []
    for loop in _walk_loops(braid):
        # One pass over the loop; radii and angles stream from C-level
        # iterators, with no list per pass.  Pass k samples at angles
        # k * width + offset, its start angle repeated once per offset.
        rs = chain.from_iterable([profiles[p.entry, p.exit] for p in loop])
        theta0s = map(mul, range(len(loop)), repeat(width))
        angles = map(add, chain.from_iterable(map(repeat, theta0s, repeat(slots_per_letter))), cycle(offsets))
        pts = [(r * cos(th), r * sin(th)) for r, th in zip(rs, angles)]
        pts.append(pts[0])
        loops.append(tuple(pts))
        for k, p in enumerate(loop):
            if p.crossing is None:
                continue
            # tangent at the slot midpoint, where the two strands meet
            th = k * width + width / 2.0
            r_in, r_out = radii[p.entry - 1], radii[p.exit - 1]
            r_mid = (r_in + r_out) / 2.0
            dr = (r_out - r_in) * math.pi / 2.0
            cos_t, sin_t = cos(th), sin(th)
            direction = (dr * cos_t - r_mid * width * sin_t, dr * sin_t + r_mid * width * cos_t)
            point = (r_mid * cos_t, r_mid * sin_t)
            assert p.role is not None
            marker_parts.setdefault(p.slot, [None, None])[p.role is Role.UNDER] = (point, direction)

    markers = []
    for slot, ((point, over_dir), (_, under_dir)) in sorted(marker_parts.items()):
        markers.append(
            CrossingMarker(
                crossing=slot,
                sign=1 if braid.letters[slot] > 0 else -1,
                point=point,
                over_direction=over_dir,
                under_direction=under_dir,
            )
        )
    return AnnularEmbedding(tuple(loops), radii, tuple(markers))


def winding_number(embedding: AnnularEmbedding) -> int:
    """Total winding number of the loops about the origin, exactly.

    Counts the signed crossings of the ray y = 0, x > 0 (Hormann and
    Agathos, Comput. Geom. 20, 2001), with no trigonometry.  A vertex is
    up iff y > 0, so a vertex on the ray or an edge along it is counted
    once or not at all.  Where an edge changes side, the sign of the
    cross product of its ends tells whether it meets the axis at x > 0;
    upward there counts +1, downward -1.  Every loop must be closed (else
    :class:`OpenLoopError`), and no vertex may be within 1e-12 of the
    origin.
    """
    hypot = math.hypot
    total = 0
    for pts in embedding.loops:
        if len(pts) < 2 or pts[0] != pts[-1]:
            raise OpenLoopError("loop is not a closed polyline")
        x1, y1 = pts[0]
        up = y1 > 0
        for x2, y2 in pts:
            if up is not (y2 > 0):
                up = not up
                if up:
                    if x1 * y2 - x2 * y1 > 0:
                        total += 1
                elif x1 * y2 - x2 * y1 < 0:
                    total -= 1
            # hypot is at least max(|x|, |y|), so the bounds only skip the call
            if -1e-12 < y2 < 1e-12 and -1e-12 < x2 < 1e-12 and hypot(x2, y2) < 1e-12:
                raise OriginOnCurveError("polyline vertex at the winding center")
            x1, y1 = x2, y2
    return total


def winding_phase(embedding: AnnularEmbedding) -> float:
    """Total angle swept around the origin: 2*pi times :func:`winding_number`."""
    return 2.0 * math.pi * winding_number(embedding)

