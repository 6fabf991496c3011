"""Closure walk, crossing bookkeeping, and the sampled annular picture."""

import cmath
import itertools
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    MultiLoopError,
    ParallelStrandsError,
    braid_words,
    closure_permutation,
    crossing_sign_from_geometry,
    cut,
    polyline,
)
from knot818 import braid as braid_module
from knot818.braid import (
    BRAID_818,
    AnnularEmbedding,
    BadRadiiError,
    BadSamplingError,
    BraidWord,
    InvalidBraidError,
    LongWalkError,
    NotAKnotError,
    OpenLoopError,
    OriginOnCurveError,
    annular_embed,
    closure_diagram,
    require_knot_closure,
    winding_number,
    winding_phase,
)
from knot818.diagram import Role, SiteClass, Visit, canonical_818, site_class


def test_braid_word_validation():
    for strands, letters in ((1, (1,)), (1, ()), (-5, ()), (3, (0,)), (3, (3,))):
        with pytest.raises(InvalidBraidError):
            BraidWord(strands, letters)
    assert issubclass(InvalidBraidError, ValueError)
    with pytest.raises(InvalidBraidError, match="^a braid needs at least 2 strands$"):
        BraidWord(1)
    with pytest.raises(InvalidBraidError, match="^letter -3 out of range for 3 strands$"):
        BraidWord(3, [1, -3])
    braid = BraidWord(3, [2, -2, 1, -1])  # fine; letters are stored as a tuple
    assert repr(braid) == "BraidWord(strands=3, letters=(2, -2, 1, -1))"
    assert len(braid) == 4


def test_replace_rechecks_the_braid():
    assert BraidWord(3, (1, 2, 1))._replace(strands=4) == BraidWord(4, (1, 2, 1))
    assert type(BraidWord._make((2, [1]))) is BraidWord
    with pytest.raises(InvalidBraidError, match="^letter 2 out of range for 2 strands$"):
        BraidWord(3, (1, 2, 1))._replace(strands=2)


def test_exponent_sum():
    assert BRAID_818.exponent_sum == 0
    assert BraidWord(2, (1, 1, 1)).exponent_sum == 3
    assert BraidWord(3, (1, -2)).exponent_sum == 0


def test_closure_permutation():
    assert closure_permutation(BraidWord(2, (1,))) == (2, 1)
    assert closure_permutation(BraidWord(3, (1, -2))) == (3, 1, 2)
    assert closure_permutation(BRAID_818) == (3, 1, 2)


def _cycle_count(perm):
    seen, count = set(), 0
    for start in range(1, len(perm) + 1):
        if start not in seen:
            count += 1
            p = start
            while p not in seen:
                seen.add(p)
                p = perm[p - 1]
    return count


@given(braid_words(max_strands=6, max_len=12))
@example(BraidWord(2, ()))
@example(BraidWord(5, ()))
@settings(max_examples=200)
def test_components_are_the_permutation_cycles(braid):
    assert braid.closure_components == _cycle_count(closure_permutation(braid))
    # L transpositions join at most L of the n strands' cycles.
    assert braid.closure_components >= braid.strands - len(braid)


def test_is_knot_closure():
    assert BRAID_818.is_knot_closure
    assert BraidWord(2, (1, 1, 1)).is_knot_closure
    assert not BraidWord(2, (1, 1)).is_knot_closure
    assert not BraidWord(3, (1, -2, 1, -2, 1, -2)).is_knot_closure
    assert BraidWord(3, (1, -2, 1, -2, 1, -2)).closure_components == 3
    assert BraidWord(4, (1, 3)).closure_components == 2
    assert BraidWord(4, ()).closure_components == 4


def test_closure_rejects_links():
    with pytest.raises(NotAKnotError):
        closure_diagram(BraidWord(2, (1, 1)))
    with pytest.raises(NotAKnotError):
        closure_diagram(BraidWord(3, (1, -2, 1, -2, 1, -2)))
    with pytest.raises(NotAKnotError) as info:
        closure_diagram(BraidWord(2, (1,) * 600))
    assert str(info.value) == (
        "closure of a 600-letter braid on 2 strands has 2 components, so it is not a knot"
    )


def test_walk_bounds_come_before_the_walk(monkeypatch):
    # With the cap lowered, a walk a missing check would take is small.
    monkeypatch.setattr(braid_module, "MAX_SAMPLES", 24)
    assert len(require_knot_closure(BRAID_818)) == 3 * 8 + 1

    def no_walk(_braid):
        raise AssertionError("walked")

    monkeypatch.setattr(braid_module, "_walk_loops", no_walk)
    with pytest.raises(LongWalkError) as exc:
        closure_diagram(BraidWord(3, BRAID_818.letters + (1,)))
    assert str(exc.value) == "strands * letters must be at most 24, got 3 * 9"
    with pytest.raises(NotAKnotError) as exc:
        closure_diagram(BraidWord(5, (1, 2)))
    assert str(exc.value) == "closure of a 2-letter braid on 5 strands has at least 3 components, so it is not a knot"
    # The cap comes first: 30 strands and one letter is over it as well as too few letters.
    with pytest.raises(LongWalkError) as exc:
        closure_diagram(BraidWord(30, (1,)))
    assert str(exc.value) == "strands * letters must be at most 24, got 30 * 1"


HUGE = 10**3999  # a 4,000-digit count, as --strands or --points-per-slot may give


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: BraidWord(HUGE, (0,)), InvalidBraidError, f"letter 0 out of range for {cut(str(HUGE))} strands"),
        (lambda: require_knot_closure(BraidWord(HUGE, ())), NotAKnotError,
         f"closure of a 0-letter braid on {cut(str(HUGE))} strands has at least {cut(str(HUGE))} components,"
         " so it is not a knot"),
        (lambda: require_knot_closure(BraidWord(HUGE, (1,))), LongWalkError,
         f"strands * letters must be at most 2000000, got {cut(str(HUGE))} * 1"),
        (lambda: annular_embed(BRAID_818, slots_per_letter=-HUGE), BadSamplingError,
         f"slots_per_letter must be at least 1, got {cut(str(-HUGE))}"),
        (lambda: annular_embed(BraidWord(3, ()), slots_per_letter=HUGE), BadSamplingError,
         f"slots_per_letter * letters must be at least 3, got {cut(str(HUGE))} * 0"),
        (lambda: annular_embed(BraidWord(HUGE, (1,)), slots_per_letter=HUGE), BadSamplingError,
         f"strands * letters * slots_per_letter must be at most 2000000, got {cut(str(HUGE))} * 1 * {cut(str(HUGE))}"),
    ],
    ids=["letter-out-of-range", "too-few-letters", "walk-cap", "no-sample", "under-three", "sample-cap"],
)
def test_counts_are_echoed_clipped(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_trefoil_closure():
    word, crossings = closure_diagram(BraidWord(2, (1, 1, 1)))
    assert str(word) == "O1 U2 O3 U1 O2 U3"
    assert [c.sign for c in crossings] == [1, 1, 1]
    assert sum(c.sign for c in crossings) == 3
    for c in crossings:
        assert word[c.over_strand].role is Role.OVER
        assert word[c.under_strand].role is Role.UNDER
        assert word[c.over_strand].site == word[c.under_strand].site == c.site


def test_main_closure_reproduces_canonical_word():
    word, crossings = closure_diagram(BRAID_818)
    assert word == canonical_818()
    assert len(crossings) == 8
    assert sum(c.sign for c in crossings) == 0


def test_main_closure_signs_by_class():
    _, crossings = closure_diagram(BRAID_818)
    for c in crossings:
        cls = site_class(c.site)
        if cls is SiteClass.INNER_SHOULDER:
            assert c.sign == 1
        else:
            assert cls is SiteClass.OUTER_SHOULDER
            assert c.sign == -1
    inner = {c.site for c in crossings if c.sign == 1}
    outer = {c.site for c in crossings if c.sign == -1}
    assert inner == {"A", "B", "C", "D"}
    assert outer == {"E", "F", "G", "H"}


def test_vertex_rule_forced_off():
    word, crossings = closure_diagram(BRAID_818, insert_vertices=False)
    assert len(word) == 16
    assert all(v.role is not Role.THROUGH for v in word)
    assert {v.site for v in word} == {str(k) for k in range(1, 9)}
    assert sum(c.sign for c in crossings) == 0


@pytest.mark.parametrize(
    "braid",
    # The trefoil, and (sigma1 sigma2^-1)^2, which closes to the figure-eight
    # knot: right strand count but wrong length for the outermost-arc rule.
    [BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2))],
    ids=["trefoil", "figure-eight"],
)
def test_vertex_rule_inapplicable(braid):
    word, crossings = closure_diagram(braid)
    assert all(v.role is not Role.THROUGH for v in word)
    assert (word, crossings) == closure_diagram(braid, insert_vertices=False)


@pytest.mark.parametrize("shape", [(1, -2), (-1, 2), (2, -1), (-2, 1)])
def test_crossings_tie_back_on_every_vertex_shape(shape):
    # Each shape walks to the stored word by its own re-basing (offset,
    # reversal, renaming), and the crossing indices must follow it.
    word, crossings = closure_diagram(BraidWord(3, shape * 4))
    assert word == canonical_818() and len(crossings) == 8
    for c in crossings:
        assert word[c.over_strand] == Visit(c.site, Role.OVER)
        assert word[c.under_strand] == Visit(c.site, Role.UNDER)


VERTEX_SHAPES = {(1, -2) * 4, (-1, 2) * 4, (2, -1) * 4, (-2, 1) * 4}


def test_vertices_go_on_exactly_the_four_vertex_shapes():
    # All 512 eight-letter words on three strands whose generators
    # alternate: two orders of magnitude times 2**8 signs.
    words = [
        tuple(m * s for m, s in zip(mags, signs))
        for mags in ((1, 2) * 4, (2, 1) * 4)
        for signs in itertools.product((1, -1), repeat=8)
    ]
    assert len(set(words)) == 512
    with_vertices = set()
    for letters in words:
        braid = BraidWord(3, letters)
        assert braid.is_knot_closure
        word, _ = closure_diagram(braid)
        if any(v.role is Role.THROUGH for v in word):
            with_vertices.add(letters)
            assert word == canonical_818()
        else:
            assert len(word) == 16
    assert with_vertices == VERTEX_SHAPES


@given(braid_words())
@settings(max_examples=60)
def test_closure_word_shape(braid):
    try:
        word, crossings = closure_diagram(braid, insert_vertices=False)
    except NotAKnotError:
        return
    assert len(word) == 2 * len(braid)
    assert len(crossings) == len(braid)
    assert sum(c.sign for c in crossings) == braid.exponent_sum
    for c in crossings:
        assert word[c.over_strand] .role is Role.OVER
        assert word[c.under_strand].role is Role.UNDER


# Embedding geometry.
def test_bad_radii():
    with pytest.raises(BadRadiiError):
        annular_embed(BRAID_818, (1.0, 2.0))
    with pytest.raises(BadRadiiError):
        annular_embed(BRAID_818, (3.0, 2.0, 1.0))
    with pytest.raises(BadRadiiError):
        annular_embed(BRAID_818, (0.0, 1.0, 2.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(BadRadiiError):
            annular_embed(BRAID_818, (1.0, 2.0, bad))
        with pytest.raises(BadRadiiError):
            annular_embed(BRAID_818, (bad, 1.0, 2.0))
    assert annular_embed(BRAID_818, slots_per_letter=2).radii == (1.0, 2.0, 3.0)


@pytest.mark.parametrize(
    "braid, slots, message",
    [
        *[
            pytest.param(braid, slots, f"slots_per_letter must be at least 1, got {slots}", id=f"{slots}-{name}")
            for braid, name in ((BRAID_818, "main"), (BraidWord(2, ()), "empty"))
            for slots in (0, -4)
        ],
        # Under three samples per turn the polyline can wind less than
        # the curve: one letter at 1 or 2 samples gave 0 or 2*pi, not 4*pi.
        # The empty word has no turn to sample at all.
        *[
            pytest.param(braid, slots, f"slots_per_letter * letters must be at least 3, got {slots} * {len(braid)}",
                         id=f"{slots}x{len(braid)}-letters")
            for braid, slots in (
                (BraidWord(2, (1,)), 1), (BraidWord(2, (1,)), 2), (BraidWord(3, (1, -2)), 1), (BraidWord(2, ()), 64)
            )
        ],
    ],
)
def test_bad_sampling(braid, slots, message):
    with pytest.raises(BadSamplingError) as exc:
        annular_embed(braid, tuple(range(1, braid.strands + 1)), slots_per_letter=slots)
    assert type(exc.value) is BadSamplingError
    assert str(exc.value) == message


def test_sample_cap_comes_before_any_allocation(monkeypatch):
    # With the cap lowered, an embedding a missing check would build is small.
    monkeypatch.setattr(braid_module, "MAX_SAMPLES", 47)
    assert len(annular_embed(BRAID_818, slots_per_letter=1).loops[0]) == 3 * 8 + 1
    with pytest.raises(BadSamplingError) as exc:
        annular_embed(BRAID_818, radii=(), slots_per_letter=2)  # the bad radii are never looked at
    assert str(exc.value) == "strands * letters * slots_per_letter must be at most 47, got 3 * 8 * 2"


def test_embedding_peak_stays_near_what_it_holds():
    # 3 * 520 * 64 samples plus the repeated first point: the loop's
    # tuple is built from the samples with no list of them beside it.
    braid = BraidWord(3, (1, 2) * 260)
    tracemalloc.start()
    try:
        embedding = annular_embed(braid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, embedding.loops)) == 99_841
    assert peak < 1.1 * held


@pytest.mark.parametrize("braid, slots", [(BraidWord(2, (1,)), 3), (BraidWord(3, (1, -2)), 2), (BRAID_818, 1)])
def test_three_samples_per_turn_suffice(braid, slots):
    emb = annular_embed(braid, tuple(range(1, braid.strands + 1)), slots_per_letter=slots)
    assert winding_number(emb) == braid.strands


def _reference_passes(braid):
    """Each loop of the closure as its passes ``(slot, entry, exit, role)``.

    Follows one strand through the letters at a time, from each position
    no earlier loop reached, until it is back where it started; role is
    None off a crossing.
    """
    loops, reached = [], set()
    for start in range(1, braid.strands + 1):
        if start in reached:
            continue
        passes, pos = [], start
        while not passes or pos != start:
            reached.add(pos)
            for slot, letter in enumerate(braid.letters):
                i = abs(letter)
                if pos in (i, i + 1):
                    # positive letter i: the strand from position i is over
                    role = Role.OVER if (pos == i) == (letter > 0) else Role.UNDER
                    passes.append((slot, pos, 2 * i + 1 - pos, role))
                    pos = 2 * i + 1 - pos
                else:
                    passes.append((slot, pos, pos, None))
        loops.append(passes)
    return loops


def _reference_points(braid, radii, slots_per_letter):
    """Reference sampler: one point at a time, every constant recomputed per point."""
    width = 2.0 * math.pi / len(braid.letters)
    loops = []
    for loop in _reference_passes(braid):
        pts = []
        for k, (_, entry, exit_pos, role) in enumerate(loop):
            theta0 = k * width
            r_in = radii[entry - 1]
            r_out = radii[exit_pos - 1]
            for m in range(slots_per_letter):
                s = m / slots_per_letter
                if role is None:
                    r = r_in
                else:
                    r = r_in + (r_out - r_in) * (1.0 - math.cos(math.pi * s)) / 2.0
                th = theta0 + s * width
                pts.append((r * math.cos(th), r * math.sin(th)))
        pts.append(pts[0])
        loops.append(tuple(pts))
    return tuple(loops)


def _reference_markers(braid, radii):
    """Reference markers: each crossing's point and tangents, one pass at a time."""
    width = 2.0 * math.pi / len(braid.letters)
    parts = {}
    for loop in _reference_passes(braid):
        for k, (slot, entry, exit_pos, role) in enumerate(loop):
            if role is None:
                continue
            r_in, r_out = radii[entry - 1], radii[exit_pos - 1]
            th = k * width + width / 2.0
            r_mid = (r_in + r_out) / 2.0
            dr = (r_out - r_in) * math.pi / 2.0
            point = (r_mid * math.cos(th), r_mid * math.sin(th))
            tangent = (
                dr * math.cos(th) - r_mid * width * math.sin(th),
                dr * math.sin(th) + r_mid * width * math.cos(th),
            )
            parts.setdefault(slot, {})[role] = (point, tangent)
    return tuple(
        (slot, 1 if braid.letters[slot] > 0 else -1, parts[slot][Role.OVER][0],
         parts[slot][Role.OVER][1], parts[slot][Role.UNDER][1])
        for slot in sorted(parts)
    )


@st.composite
def embedding_cases(draw):
    """A nonempty braid, radii, and any sampling annular_embed accepts.

    Radii are either 1..n or cumulative sums of distinct non-integer
    steps, so that every (entry, exit) radius profile differs.
    """
    braid = draw(braid_words(max_strands=5, min_len=1, max_len=10))
    if draw(st.booleans()):
        radii = tuple(float(r) for r in range(1, braid.strands + 1))
    else:
        steps = draw(
            st.lists(st.floats(0.01, 10.0).filter(lambda x: x != int(x)),
                     min_size=braid.strands, max_size=braid.strands, unique=True)
        )
        radii = tuple(itertools.accumulate(steps))
    slots = draw(st.integers(1, 64).filter(lambda s: s * len(braid.letters) >= 3))
    return braid, radii, slots


def _xy(z):
    return z.real, z.imag


@given(embedding_cases())
@example((BraidWord(2, (1, -1, 1)), (1.0, 2.0), 1))
@example((BraidWord(3, (1, -2)), (0.3, 1.7, 2.25), 2))
@example((BRAID_818, (0.5, 1.25, 3.125), 64))
@settings(max_examples=100, deadline=None)
def test_embedding_points_match_the_reference_loop(case):
    braid, radii, slots = case
    emb = annular_embed(braid, radii, slots_per_letter=slots)
    # repr tells -0.0 from 0.0, so this is bit for bit
    assert repr(tuple(tuple(map(_xy, loop)) for loop in emb.loops)) == repr(_reference_points(braid, radii, slots))
    markers = tuple(
        (m.crossing, m.sign, _xy(m.point), _xy(m.over_direction), _xy(m.under_direction)) for m in emb.markers
    )
    assert repr(markers) == repr(_reference_markers(braid, radii))


def test_main_embedding_is_one_closed_loop():
    emb = annular_embed(BRAID_818, (1.0, 2.0, 3.0), slots_per_letter=8)
    assert len(emb.loops) == 1
    pts = polyline(emb)
    assert pts[0] == pts[-1]
    assert len(pts) == 3 * 8 * 8 + 1
    for z in pts:
        assert 1.0 - 1e-9 <= abs(z) <= 3.0 + 1e-9


def test_link_embedding_has_no_single_polyline():
    emb = annular_embed(BraidWord(2, (1, 1)), (1.0, 2.0), slots_per_letter=4)
    assert len(emb.loops) == 2
    with pytest.raises(MultiLoopError) as exc:
        polyline(emb)
    assert type(exc.value) is MultiLoopError
    assert str(exc.value) == "embedding has 2 loops, not a single polyline"


def test_quarter_turn_point_symmetry():
    # The letter pattern repeats every two slots, so the sampled point
    # set is carried to itself by a rotation of pi/2.  The walk revisits
    # a rotated slot on a different strand, so this is a set statement,
    # not a statement about sample order.
    emb = annular_embed(BRAID_818, (1.0, 2.0, 3.0), slots_per_letter=16)
    pts = polyline(emb)[:-1]
    for k in range(0, len(pts), 13):
        rotated = pts[k] * 1j
        assert min(abs(p - rotated) for p in pts) < 1e-9


def _circle(cx, steps=360):
    pts = tuple(
        complex(cx + math.cos(2 * math.pi * k / steps), math.sin(2 * math.pi * k / steps))
        for k in range(steps)
    )
    return AnnularEmbedding(loops=(pts + (pts[0],),))


def test_winding_of_a_circle():
    emb = _circle(0)
    assert winding_number(emb) == 1
    assert winding_phase(emb) == 2 * math.pi


def test_winding_of_offset_circle_is_zero():
    emb = _circle(5)
    assert winding_number(emb) == 0
    assert winding_phase(emb) == 0.0


def test_main_winding_phase():
    emb = annular_embed(BRAID_818, (1.0, 2.0, 3.0), slots_per_letter=64)
    assert winding_number(emb) == 3
    assert winding_phase(emb) == 6 * math.pi == 18.84955592153876


@given(braid_words(min_len=1))
@settings(max_examples=40, deadline=None)
def test_winding_counts_every_strand(braid):
    emb = annular_embed(braid, tuple(range(1, braid.strands + 1)), slots_per_letter=4)
    assert winding_number(emb) == braid.strands
    assert winding_phase(emb) == 2.0 * math.pi * braid.strands


def _swept_angle(pts):
    """Sum of the signed angles between consecutive vertices."""
    # conj(a) * b has the dot product of a and b as its real part and
    # their cross product as its imaginary part
    return sum(cmath.phase(a.conjugate() * b) for a, b in zip(pts, pts[1:]))


# Small integer coordinates put many vertices on the x-axis and many
# edges along it, where the half-open up/down rule decides.
_vertices = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda v: complex(*v))


def _avoids_origin(pts):
    for a, b in zip(pts, pts[1:]):
        turn = a.conjugate() * b
        if a == 0 or (turn.imag == 0.0 and turn.real < 0.0):
            return False  # a vertex on the origin, or an edge through it
    return True


@given(st.lists(st.lists(_vertices, min_size=1, max_size=12).map(lambda p: (*p, p[0])), min_size=1, max_size=3))
def test_winding_number_matches_the_swept_angle(loops):
    loops = [tuple(loop) for loop in loops if _avoids_origin(loop)]
    emb = AnnularEmbedding(loops=tuple(loops))
    assert winding_number(emb) == round(sum(_swept_angle(loop) for loop in loops) / (2 * math.pi))


def _tuple_winding_number(loops):
    """The crossing rule of :func:`winding_number`, read from (x, y) tuples."""
    total = 0
    for pts in loops:
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
            if -1e-12 < y2 < 1e-12 and -1e-12 < x2 < 1e-12 and math.hypot(x2, y2) < 1e-12:
                raise OriginOnCurveError("polyline vertex at the winding center")
            x1, y1 = x2, y2
    return total


def _winding_or_origin(count, loops):
    try:
        return count(loops)
    except OriginOnCurveError:
        return "origin"


# Coordinates on and around the 1e-12 bands of the origin check and the
# up/down rule, small integers, and any float in between.
_near_zero = st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 7e-13, -7e-13, 8e-13, -8e-13, 9.9e-13, -9.9e-13, 1e-12, -1e-12, 2e-12, -2e-12)
)
_coordinates = st.one_of(_near_zero, st.integers(-3, 3).map(float), st.floats(-3.0, 3.0))


@given(
    st.lists(
        st.lists(st.builds(complex, _coordinates, _coordinates), min_size=1, max_size=12).map(lambda p: (*p, p[0])),
        min_size=1,
        max_size=3,
    )
)
@example([(1e-12 + 0j, 1j, -1 + 0j, -1j, 1e-12 + 0j)])
@example([(1 + 0j, 1 + 1e-12j, 1j, -1 - 1e-12j, 1 - 1e-12j, 1 + 0j)])
@example([(1 + 0j, 8e-13 + 8e-13j, -1 + 0j, 1 + 0j), (2 + 1j, -2 + 1j, -2 - 1j, 2 + 1j)])
@example([(1 + 1j, -1 - 1j, 1 + 1j)])  # edges through the origin, with a cross product of 0
@settings(max_examples=300)
def test_winding_number_matches_the_tuple_rule(loops):
    tuples = [tuple(map(_xy, loop)) for loop in loops]
    assert _winding_or_origin(lambda l: winding_number(AnnularEmbedding(loops=tuple(l))), loops) == (
        _winding_or_origin(_tuple_winding_number, tuples)
    )


def test_winding_counts_vertices_on_the_positive_axis_once():
    # Through (1, 0) and (2, 0) along the axis, and back up across it.
    square = (1 + 0j, 2 + 0j, 2 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 0j)
    assert winding_number(AnnularEmbedding(loops=(square,))) == 1
    assert winding_number(AnnularEmbedding(loops=(tuple(reversed(square)),))) == -1
    touch = (1 + 0j, 2 + 1j, 3 + 0j, 2 - 1j, 1 + 0j)
    assert winding_number(AnnularEmbedding(loops=(touch,))) == 0


def test_winding_rejects_origin_on_curve():
    emb = AnnularEmbedding(loops=((0j, 1 + 0j, 1j, 0j),))
    with pytest.raises(OriginOnCurveError):
        winding_phase(emb)


@pytest.mark.parametrize(
    "vertex, rejected",
    [((0.0, 0.0), True), ((9e-13, 0.0), True), ((7e-13, -7e-13), True), ((0.0, -9.9e-13), True),
     ((8e-13, 8e-13), False), ((1e-12, 0.0), False), ((0.0, -1e-12), False), ((-2e-12, 1e-13), False)],
)
def test_origin_check_is_the_hypot_bound(vertex, rejected):
    # abs(z) is hypot(x, y), which is above 1e-12 at (8e-13, 8e-13)
    # although both coordinates are below it
    vertex = complex(*vertex)
    assert abs(vertex) == math.hypot(vertex.real, vertex.imag)
    assert (abs(vertex) < 1e-12) is rejected
    loop = (vertex, 1 + 0j, 1j, vertex)
    if rejected:
        with pytest.raises(OriginOnCurveError):
            winding_number(AnnularEmbedding(loops=(loop,)))
    else:
        winding_number(AnnularEmbedding(loops=(loop,)))


def test_winding_rejects_open_loop():
    emb = AnnularEmbedding(loops=((1 + 0j, 1j, -1 + 0j),))
    for call, embedding in ((winding_phase, emb), (winding_number, AnnularEmbedding(loops=((1 + 0j,),)))):
        with pytest.raises(OpenLoopError) as exc:
            call(embedding)
        assert type(exc.value) is OpenLoopError
        assert str(exc.value) == "loop is not a closed polyline"


def test_geometric_sign():
    assert crossing_sign_from_geometry(1 + 0j, 1j) == 1
    assert crossing_sign_from_geometry(1j, 1 + 0j) == -1
    assert crossing_sign_from_geometry(2 + 0j, 3 + 3j) == 1


def test_geometric_sign_rejects_parallel():
    with pytest.raises(ParallelStrandsError):
        crossing_sign_from_geometry(1 + 0j, 2 + 0j)
    with pytest.raises(ParallelStrandsError):
        crossing_sign_from_geometry(1 + 1j, -2 - 2j)
    with pytest.raises(ParallelStrandsError):
        crossing_sign_from_geometry(0j, 1 + 0j)


def test_markers_agree_with_diagram_signs():
    emb = annular_embed(BRAID_818, (1.0, 2.0, 3.0), slots_per_letter=32)
    assert len(emb.markers) == 8
    _, crossings = closure_diagram(BRAID_818)
    by_id = {c.id: c for c in crossings}
    for m in emb.markers:
        assert m.sign == by_id[m.crossing].sign
        assert crossing_sign_from_geometry(m.over_direction, m.under_direction) == m.sign
        assert 1.0 < abs(m.point) < 3.0
