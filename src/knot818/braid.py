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

import cmath
import math
from itertools import chain, count, cycle, repeat
from operator import add, mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .diagram import DiagramWord, Role, Visit, canonical_818
from .errors import DomainError, UsageError, clip, clip_count


class InvalidBraidError(UsageError, ValueError):
    """Fewer than two strands, or a letter outside the generators."""


class NotAKnotError(DomainError, ValueError):
    """Closure has more than one component."""


class LongWalkError(DomainError, ValueError):
    """The closure walk would store more than MAX_SAMPLES positions."""


class BadRadiiError(DomainError, ValueError):
    """Radii must be finite, positive, strictly increasing, one per strand."""


class BadSamplingError(DomainError, ValueError):
    """A sample per letter slot, three per turn, at most MAX_SAMPLES in all."""


class OriginOnCurveError(DomainError, ValueError):
    """A polyline vertex sits on the winding center."""


class OpenLoopError(DomainError, ValueError):
    """A loop handed to the winding count does not end where it starts."""


def first_bad_letter(letters: Sequence[int], strands: int) -> Optional[int]:
    """Index of the first letter that names no generator on ``strands`` strands, or None."""
    return next((i for i, l in enumerate(letters) if l == 0 or abs(l) > strands - 1), None)


class BraidWord(NamedTuple("BraidWord", [("strands", int), ("letters", tuple[int, ...])])):
    """A word in the braid group on ``strands`` strands.

    Letters are nonzero integers: i means the positive generator at
    positions (i, i+1), -i its inverse.  ``len`` counts the letters.
    """

    __slots__ = ()

    def __new__(cls, strands: int, letters: Iterable[int] = ()) -> "BraidWord":
        if strands < 2:
            raise InvalidBraidError("a braid needs at least 2 strands")
        letters = tuple(int(l) for l in letters)
        bad = first_bad_letter(letters, strands)
        if bad is not None:
            raise InvalidBraidError(f"letter {clip_count(letters[bad])} out of range for {clip_count(strands)} strands")
        return super().__new__(cls, strands, letters)

    @classmethod  # so that _replace, too, builds through __new__
    def _make(cls, fields: Iterable) -> "BraidWord":
        return cls(*fields)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def exponent_sum(self) -> int:
        return sum(1 if l > 0 else -1 for l in self.letters)

    @property
    def is_knot_closure(self) -> bool:
        """Whether the closure is one component: one loop of its walk."""
        return len(_walk_loops(self)) == 1


def _walk_loops(braid: BraidWord) -> list[list[int]]:
    """Decompose the closure into loops, each the list of strand positions
    at its slot boundaries.

    Every loop starts at slot 0 and ends where it starts, so
    ``loop[0] == loop[-1]``, and pass k runs from ``loop[k]`` to
    ``loop[k+1]`` through slot k mod len(letters).  A pass crosses
    exactly when its two positions differ, and it is the over pass
    exactly when ``(exit > entry) == (letter > 0)``.  The empty word
    gives one single-position loop per strand.
    """
    mags = [abs(l) for l in braid.letters]
    # The walk meets slot 0 once per turn, and a loop closes only there,
    # so only positions at slot 0 need remembering.
    seen: set[int] = set()
    loops: list[list[int]] = []
    for pos0 in range(1, braid.strands + 1):
        if pos0 in seen:
            continue
        loop = [pos0]
        pos = pos0
        while pos not in seen:
            seen.add(pos)
            for i in mags:
                if pos == i:
                    pos = i + 1
                elif pos == i + 1:
                    pos = i
                loop.append(pos)
        loops.append(loop)
    return loops


def require_knot_closure(braid: BraidWord) -> list[int]:
    """The one loop of the closure (as :func:`_walk_loops` gives it).

    Raises :class:`NotAKnotError` unless the closure is a single knot.
    The message gives sizes, not the word, so it stays short however
    long the word is.  Two bounds come before the walk stores its
    strands * letters positions, in this order: more than
    :data:`MAX_SAMPLES` positions (:class:`LongWalkError`), and fewer
    than strands - 1 letters.
    """
    letters, strands = len(braid), braid.strands
    if strands * letters > MAX_SAMPLES:
        raise LongWalkError(f"strands * letters must be at most {MAX_SAMPLES}, got {clip_count(strands)} * {letters}")
    if letters < strands - 1:  # L transpositions leave at least n - L cycles
        components = f"at least {clip_count(strands - letters)}"
    else:
        loops = _walk_loops(braid)
        if len(loops) == 1:
            return loops[0]
        components = str(len(loops))
    raise NotAKnotError(
        f"closure of a {letters}-letter braid on {clip_count(strands)} strands has {components} components,"
        " so it is not a knot"
    )


# The main diagram: four turns of the alternating two-generator pattern.
BRAID_818 = BraidWord(3, (1, -2, 1, -2, 1, -2, 1, -2))


class SignedCrossing(NamedTuple):
    """One crossing of a closure: the slot of its letter, its sign and its site.

    The DiagramWord returned alongside holds its two visits,
    ``Visit(site, Role.OVER)`` and ``Visit(site, Role.UNDER)``.
    """

    id: int
    sign: int
    site: str


# The marked-point rule holds only on the main annular shape: four turns
# of the two generators with opposite signs, either leading, either
# chirality.  Each closes to the stored reference word once a through
# vertex goes on each outermost arc, and its eight crossings, in slot
# order, sit at these sites of that word (test_braid.py derives them from
# the walk).  The words use generators 1 and 2 alone, so they need three
# strands, and on more the fourth never moves, so the closure is a link.
_VERTEX_SITES = {
    (1, -2) * 4: "DHCGBFAE",
    (-1, 2) * 4: "AFBGCHDE",
    (2, -1) * 4: "EAFBGCHD",
    (-2, 1) * 4: "EDHCGBFA",
}


def closure_diagram(
    braid: BraidWord, insert_vertices: bool = True
) -> tuple[DiagramWord, tuple[SignedCrossing, ...]]:
    """Walk the closure of ``braid`` into a diagram word.

    The closure must be a single knot.  Fresh labels are assigned in
    first-visit order.  The four words of the main annular shape (and
    only they), unless ``insert_vertices`` is false, take a through vertex
    on each outermost arc, the only one of its gap between consecutive
    crossings.  Their walk is then the stored reference word up to
    basepoint, direction and renaming, so the stored word itself is
    returned, with each crossing at its site in ``_VERTEX_SITES``.
    """
    loop = require_knot_closure(braid)
    letters = braid.letters
    sites = _VERTEX_SITES.get(letters) if insert_vertices else None
    if sites is not None:
        word = canonical_818()
    else:
        visits: list[Visit] = []
        slot_label: list[Optional[str]] = [None] * len(letters)
        numbers = map(str, count(1))
        for k in range(len(loop) - 1):
            entry, exit_pos = loop[k], loop[k + 1]
            if entry == exit_pos:
                continue
            slot = k % len(letters)
            label = slot_label[slot]
            if label is None:
                label = slot_label[slot] = next(numbers)
            visits.append(Visit(label, Role.OVER if (exit_pos > entry) == (letters[slot] > 0) else Role.UNDER))
        word = DiagramWord(tuple(visits))
        sites = slot_label
    crossings = tuple(
        SignedCrossing(slot, 1 if letter > 0 else -1, site)
        for slot, (letter, site) in enumerate(zip(letters, sites))
    )
    return word, crossings


class CrossingMarker(NamedTuple):
    """Geometry of one crossing in an embedding.

    The point and directions are complex numbers x + yj.  Directions are
    the curve tangents of the two strands at the shared point, in walk
    order parameterization (unnormalized).
    """

    crossing: int
    sign: int
    point: complex
    over_direction: complex
    under_direction: complex


class AnnularEmbedding(NamedTuple):
    """Sampled planar picture of a braid closure around the origin.

    Each loop is a closed polyline (first point repeated at the end) of
    complex points x + yj.
    """

    loops: tuple[tuple[complex, ...], ...]
    markers: tuple[CrossingMarker, ...] = ()


# The most samples an embedding takes (at most about 43 bytes each while
# it is built, some 86 MB), and the most positions a closure walk stores.
MAX_SAMPLES = 2_000_000


def annular_embed(
    braid: BraidWord, radii: Optional[Sequence[float]] = None, slots_per_letter: int = 64
) -> AnnularEmbedding:
    """Sample the closure as concentric arcs with cosine-eased strand swaps.

    Strand position p rides at radii[p-1] (default p); each letter
    occupies one angular slot of width 2*pi/len(letters), and the two
    strands it swaps trade radii across the slot, meeting at its midpoint.

    Consecutive samples are 2*pi/(slots_per_letter * len(letters)) apart
    in angle.  The polyline winds as often as the curve only while that
    step is below pi, so :class:`BadSamplingError` rejects fewer than
    three samples per turn (the empty word at any sampling) and, before
    anything is allocated, more than :data:`MAX_SAMPLES` in all.
    """
    letters = len(braid.letters)
    if slots_per_letter < 1:
        raise BadSamplingError(f"slots_per_letter must be at least 1, got {clip_count(slots_per_letter)}")
    if slots_per_letter * letters < 3:
        raise BadSamplingError(
            f"slots_per_letter * letters must be at least 3, got {clip_count(slots_per_letter)} * {letters}"
        )
    if braid.strands * letters * slots_per_letter > MAX_SAMPLES:
        raise BadSamplingError(
            f"strands * letters * slots_per_letter must be at most {MAX_SAMPLES},"
            f" got {clip_count(braid.strands)} * {letters} * {clip_count(slots_per_letter)}"
        )
    radii = tuple(float(r) for r in (range(1, braid.strands + 1) if radii is None else radii))
    if (
        len(radii) != braid.strands
        or not all(0.0 < r < math.inf for r in radii)
        or any(a >= b for a, b in zip(radii, radii[1:]))
    ):
        raise BadRadiiError(f"need {braid.strands} finite positive strictly increasing radii, got {clip(str(radii))}")

    width = 2.0 * math.pi / letters
    # Per-sample constants, shared by every pass: the angle offset into
    # the slot and the cosine easing of a strand swap.
    fractions = [m / slots_per_letter for m in range(slots_per_letter)]
    offsets = [s * width for s in fractions]
    easing = [1.0 - math.cos(math.pi * s) for s in fractions]
    # One radius profile per (entry, exit) position pair: the eased swap,
    # which on a plain pass swaps by 0.0 and stays at r_in, bit for bit.
    profiles = {
        (entry, exit_pos): [r_in + (radii[exit_pos - 1] - r_in) * e / 2.0 for e in easing]
        for entry, r_in in enumerate(radii, 1)
        for exit_pos in (entry - 1, entry, entry + 1)
        if 1 <= exit_pos <= braid.strands
    }
    cos, sin = math.cos, math.sin
    # Each slot is crossed once over and once under, over all loops.
    overs: list = [None] * letters  # slot -> (point, over direction)
    unders: list = [None] * letters  # slot -> under direction
    loops = []
    for loop in _walk_loops(braid):
        # One pass over the loop; radii and angles stream from C-level
        # iterators into the loop's tuple, first point repeated at the
        # end, with no list beside it.  Pass k samples at angles
        # k * width + offset, its start angle repeated once per offset.
        # cmath.rect(r, th) is complex(r * cos(th), r * sin(th)), bit for
        # bit, in one C call.
        rs = chain.from_iterable(map(profiles.__getitem__, zip(loop, loop[1:])))
        theta0s = map(mul, range(len(loop) - 1), repeat(width))
        angles = map(add, chain.from_iterable(map(repeat, theta0s, repeat(slots_per_letter))), cycle(offsets))
        samples = map(cmath.rect, rs, angles)
        first = next(samples)
        loops.append(tuple(chain((first,), samples, (first,))))
        for k, (entry, exit_pos) in enumerate(zip(loop, loop[1:])):
            if entry == exit_pos:
                continue
            # tangent at the slot midpoint, where the two strands meet
            th = k * width + width / 2.0
            r_in, r_out = radii[entry - 1], radii[exit_pos - 1]
            r_mid = (r_in + r_out) / 2.0
            dr = (r_out - r_in) * math.pi / 2.0
            cos_t, sin_t = cos(th), sin(th)
            direction = complex(dr * cos_t - r_mid * width * sin_t, dr * sin_t + r_mid * width * cos_t)
            point = complex(r_mid * cos_t, r_mid * sin_t)
            slot = k % letters
            if (exit_pos > entry) == (braid.letters[slot] > 0):
                overs[slot] = (point, direction)
            else:
                unders[slot] = direction
    markers = tuple(
        CrossingMarker(slot, 1 if letter > 0 else -1, point, over_dir, under_dir)
        for slot, (letter, (point, over_dir), under_dir) in enumerate(zip(braid.letters, overs, unders))
    )
    return AnnularEmbedding(tuple(loops), markers)


def winding_number(embedding: AnnularEmbedding) -> int:
    """Total winding number of the loops about the origin, exactly.

    Counts the signed crossings of the ray y = 0, x > 0 (Hormann and
    Agathos, Comput. Geom. 20, 2001), with no trigonometry.  A vertex z
    is up iff z.imag > 0, so a vertex on the ray or an edge along it is
    counted once or not at all.  Where an edge changes side, the sign of
    the cross product of its ends tells whether it meets the axis at
    x > 0; upward there counts +1, downward -1.  Every loop must be
    closed (else :class:`OpenLoopError`), and no vertex may be within
    1e-12 of the origin.

    The vertices are scanned in runs.  A run of vertices beyond the band
    |y| <= 1e-12 on the current side is passed with one comparison each,
    since none of them changes side or can be near the origin; only the
    vertex that ends a run takes the full rule.  The count, the band and
    the errors are those of a vertex-by-vertex pass.
    """
    total = 0
    for pts in embedding.loops:
        if len(pts) < 2 or pts[0] != pts[-1]:
            raise OpenLoopError("loop is not a closed polyline")
        prev = pts[0]
        up = prev.imag > 0
        it = iter(pts)
        while True:
            # Pass the run of vertices beyond the band on the current side,
            # one comparison each: none of them flips or is near the origin.
            # A NaN y fails the comparison and so ends the run.
            if up:
                for z in it:
                    if not z.imag > 1e-12:
                        break
                    prev = z
                else:
                    break
            else:
                for z in it:
                    if not z.imag < -1e-12:
                        break
                    prev = z
                else:
                    break
            # z ends the run: it is across the band, in it or has a NaN y.
            # Only a vertex with |y| <= 1e-12 can be near the origin.
            y = z.imag
            if y > 1e-12:
                flip = not up
            elif y < -1e-12:
                flip = up
            else:
                if abs(z) < 1e-12:
                    raise OriginOnCurveError("polyline vertex at the winding center")
                flip = up is not (y > 0)
            if flip:
                up = not up
                cross = prev.real * y - z.real * prev.imag
                if up:
                    if cross > 0:
                        total += 1
                elif cross < 0:
                    total -= 1
            prev = z
    return total


def winding_phase(embedding: AnnularEmbedding) -> float:
    """Total angle swept around the origin: 2*pi times :func:`winding_number`."""
    return 2.0 * math.pi * winding_number(embedding)

