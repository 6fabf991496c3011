"""Closure walk, crossing bookkeeping, and the sampled annular picture."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MultiLoopError, ParallelStrandsError, braid_words, crossing_sign_from_geometry, polyline
from knot818.braid import (
    BRAID_818,
    AnnularEmbedding,
    BadRadiiError,
    BadSamplingError,
    BraidWord,
    InvalidBraidError,
    NotAKnotError,
    OpenLoopError,
    OriginOnCurveError,
    VertexRuleInapplicableError,
    _walk_loops,
    annular_embed,
    closure_diagram,
    winding_number,
    winding_phase,
    writhe,
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


def test_exponent_sum():
    assert BRAID_818.exponent_sum == 0
    assert BraidWord(2, (1, 1, 1)).exponent_sum == 3
    assert BraidWord(3, (1, -2)).exponent_sum == 0


def test_closure_permutation():
    assert BraidWord(2, (1,)).closure_permutation() == (2, 1)
    assert BraidWord(3, (1, -2)).closure_permutation() == (3, 1, 2)
    assert BRAID_818.closure_permutation() == (3, 1, 2)


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


def test_trefoil_closure():
    word, crossings = closure_diagram(BraidWord(2, (1, 1, 1)))
    assert str(word) == "O1 U2 O3 U1 O2 U3"
    assert [c.sign for c in crossings] == [1, 1, 1]
    assert writhe(crossings) == 3
    for c in crossings:
        assert word[c.over_strand].role is Role.OVER
        assert word[c.under_strand].role is Role.UNDER
        assert word[c.over_strand].site == word[c.under_strand].site == c.site


def test_main_closure_reproduces_canonical_word():
    word, crossings = closure_diagram(BRAID_818)
    assert word == canonical_818()
    assert len(crossings) == 8
    assert writhe(crossings) == 0


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
    assert writhe(crossings) == 0


def test_vertex_rule_inapplicable():
    with pytest.raises(VertexRuleInapplicableError):
        closure_diagram(BraidWord(2, (1, 1, 1)), insert_vertices=True)
    # (sigma1 sigma2^-1)^2 closes to the figure-eight knot: right strand
    # count but wrong length for the outermost-arc rule.
    with pytest.raises(VertexRuleInapplicableError):
        closure_diagram(BraidWord(3, (1, -2, 1, -2)), insert_vertices=True)


@pytest.mark.parametrize("shape", [(1, -2), (-1, 2), (2, -1), (-2, 1)])
def test_crossings_tie_back_on_every_vertex_shape(shape):
    # Each shape walks to the stored word by its own re-basing (offset,
    # reversal, renaming), and the crossing indices must follow it.
    word, crossings = closure_diagram(BraidWord(3, shape * 4))
    assert len(word) == 20 and len(crossings) == 8
    for c in crossings:
        assert word[c.over_strand] == Visit(c.site, Role.OVER)
        assert word[c.under_strand] == Visit(c.site, Role.UNDER)


@given(braid_words())
@settings(max_examples=60)
def test_closure_word_shape(braid):
    try:
        word, crossings = closure_diagram(braid, insert_vertices=False)
    except NotAKnotError:
        return
    assert len(word) == 2 * len(braid)
    assert len(crossings) == len(braid)
    assert writhe(crossings) == braid.exponent_sum
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
        *[
            pytest.param(braid, slots, f"slots_per_letter * letters must be at least 3, got {slots} * {len(braid)}",
                         id=f"{slots}x{len(braid)}-letters")
            for braid, slots in ((BraidWord(2, (1,)), 1), (BraidWord(2, (1,)), 2), (BraidWord(3, (1, -2)), 1))
        ],
    ],
)
def test_bad_sampling(braid, slots, message):
    with pytest.raises(BadSamplingError) as exc:
        annular_embed(braid, tuple(range(1, braid.strands + 1)), slots_per_letter=slots)
    assert type(exc.value) is BadSamplingError
    assert str(exc.value) == message


@pytest.mark.parametrize("braid, slots", [(BraidWord(2, (1,)), 3), (BraidWord(3, (1, -2)), 2), (BRAID_818, 1)])
def test_three_samples_per_turn_suffice(braid, slots):
    emb = annular_embed(braid, tuple(range(1, braid.strands + 1)), slots_per_letter=slots)
    assert winding_number(emb) == braid.strands


def _reference_points(braid, radii, slots_per_letter):
    """Reference sampler: one point at a time, every constant recomputed per point."""
    width = 2.0 * math.pi / len(braid.letters)
    loops = []
    for loop in _walk_loops(braid):
        pts = []
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
        pts.append(pts[0])
        loops.append(tuple(pts))
    return tuple(loops)


def _reference_markers(braid, radii):
    """Reference markers: each crossing's point and tangents, one pass at a time."""
    width = 2.0 * math.pi / len(braid.letters)
    parts = {}
    for loop in _walk_loops(braid):
        for k, p in enumerate(loop):
            if p.crossing is None:
                continue
            r_in, r_out = radii[p.entry - 1], radii[p.exit - 1]
            th = k * width + width / 2.0
            r_mid = (r_in + r_out) / 2.0
            dr = (r_out - r_in) * math.pi / 2.0
            point = (r_mid * math.cos(th), r_mid * math.sin(th))
            tangent = (
                dr * math.cos(th) - r_mid * width * math.sin(th),
                dr * math.sin(th) + r_mid * width * math.cos(th),
            )
            parts.setdefault(p.slot, {})[p.role] = (point, tangent)
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
    braid = draw(braid_words(max_strands=5, max_len=10).filter(lambda b: b.letters))
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


@given(embedding_cases())
@example((BraidWord(2, (1, -1, 1)), (1.0, 2.0), 1))
@example((BraidWord(3, (1, -2)), (0.3, 1.7, 2.25), 2))
@example((BRAID_818, (0.5, 1.25, 3.125), 64))
@settings(max_examples=100, deadline=None)
def test_embedding_points_match_the_reference_loop(case):
    braid, radii, slots = case
    emb = annular_embed(braid, radii, slots_per_letter=slots)
    # repr tells -0.0 from 0.0, so this is bit for bit
    assert repr(emb.loops) == repr(_reference_points(braid, radii, slots))
    markers = tuple(
        (m.crossing, m.sign, m.point, m.over_direction, m.under_direction) for m in emb.markers
    )
    assert repr(markers) == repr(_reference_markers(braid, radii))


def test_main_embedding_is_one_closed_loop():
    emb = annular_embed(BRAID_818, (1.0, 2.0, 3.0), slots_per_letter=8)
    assert len(emb.loops) == 1
    pts = polyline(emb)
    assert pts[0] == pts[-1]
    assert len(pts) == 3 * 8 * 8 + 1
    for x, y in pts:
        r = math.hypot(x, y)
        assert 1.0 - 1e-9 <= r <= 3.0 + 1e-9


def test_empty_braid_embeds_as_circles():
    emb = annular_embed(BraidWord(2, ()), (1.0, 2.0))
    assert len(emb.loops) == 2
    with pytest.raises(MultiLoopError) as exc:
        polyline(emb)
    assert type(exc.value) is MultiLoopError
    assert str(exc.value) == "embedding has 2 loops, not a single polyline"
    for pts, radius in zip(emb.loops, (1.0, 2.0)):
        assert pts[0] == pts[-1]
        for x, y in pts:
            assert math.hypot(x, y) == pytest.approx(radius, abs=1e-12)


def test_quarter_turn_point_symmetry():
    # The letter pattern repeats every two slots, so the sampled point
    # set is carried to itself by a rotation of pi/2.  The walk revisits
    # a rotated slot on a different strand, so this is a set statement,
    # not a statement about sample order.
    emb = annular_embed(BRAID_818, (1.0, 2.0, 3.0), slots_per_letter=16)
    pts = polyline(emb)[:-1]
    for k in range(0, len(pts), 13):
        x, y = pts[k]
        rx, ry = -y, x
        nearest = min(math.hypot(px - rx, py - ry) for px, py in pts)
        assert nearest < 1e-9


def _circle(cx, steps=360):
    pts = tuple(
        (cx + math.cos(2 * math.pi * k / steps), math.sin(2 * math.pi * k / steps))
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


@given(braid_words())
@settings(max_examples=40, deadline=None)
def test_winding_counts_every_strand(braid):
    emb = annular_embed(braid, tuple(range(1, braid.strands + 1)), slots_per_letter=4)
    assert winding_number(emb) == braid.strands
    assert winding_phase(emb) == 2.0 * math.pi * braid.strands


def _swept_angle(pts):
    """Sum of the signed angles between consecutive vertices."""
    return sum(math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2) for (x1, y1), (x2, y2) in zip(pts, pts[1:]))


# Small integer coordinates put many vertices on the x-axis and many
# edges along it, where the half-open up/down rule decides.
_vertices = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda v: (float(v[0]), float(v[1])))


def _avoids_origin(pts):
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if (x1, y1) == (0.0, 0.0) or (x1 * y2 - y1 * x2 == 0.0 and x1 * x2 + y1 * y2 < 0.0):
            return False  # a vertex on the origin, or an edge through it
    return True


@given(st.lists(st.lists(_vertices, min_size=1, max_size=12).map(lambda p: (*p, p[0])), min_size=1, max_size=3))
def test_winding_number_matches_the_swept_angle(loops):
    loops = [tuple(loop) for loop in loops if _avoids_origin(loop)]
    emb = AnnularEmbedding(loops=tuple(loops))
    assert winding_number(emb) == round(sum(_swept_angle(loop) for loop in loops) / (2 * math.pi))


def test_winding_counts_vertices_on_the_positive_axis_once():
    # Through (1, 0) and (2, 0) along the axis, and back up across it.
    square = ((1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (1.0, 0.0))
    assert winding_number(AnnularEmbedding(loops=(square,))) == 1
    assert winding_number(AnnularEmbedding(loops=(tuple(reversed(square)),))) == -1
    touch = ((1.0, 0.0), (2.0, 1.0), (3.0, 0.0), (2.0, -1.0), (1.0, 0.0))
    assert winding_number(AnnularEmbedding(loops=(touch,))) == 0


def test_winding_rejects_origin_on_curve():
    emb = AnnularEmbedding(loops=(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)),))
    with pytest.raises(OriginOnCurveError):
        winding_phase(emb)


@pytest.mark.parametrize(
    "vertex, rejected",
    [((0.0, 0.0), True), ((9e-13, 0.0), True), ((7e-13, -7e-13), True), ((0.0, -9.9e-13), True),
     ((8e-13, 8e-13), False), ((1e-12, 0.0), False), ((0.0, -1e-12), False), ((-2e-12, 1e-13), False)],
)
def test_origin_check_is_the_hypot_bound(vertex, rejected):
    # hypot(8e-13, 8e-13) is above 1e-12 although both coordinates are below it
    assert (math.hypot(*vertex) < 1e-12) is rejected
    loop = (vertex, (1.0, 0.0), (0.0, 1.0), vertex)
    if rejected:
        with pytest.raises(OriginOnCurveError):
            winding_number(AnnularEmbedding(loops=(loop,)))
    else:
        winding_number(AnnularEmbedding(loops=(loop,)))


def test_winding_rejects_open_loop():
    emb = AnnularEmbedding(loops=(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)),))
    for call, embedding in ((winding_phase, emb), (winding_number, AnnularEmbedding(loops=(((1.0, 0.0),),)))):
        with pytest.raises(OpenLoopError) as exc:
            call(embedding)
        assert type(exc.value) is OpenLoopError
        assert str(exc.value) == "loop is not a closed polyline"


def test_geometric_sign():
    assert crossing_sign_from_geometry((1.0, 0.0), (0.0, 1.0)) == 1
    assert crossing_sign_from_geometry((0.0, 1.0), (1.0, 0.0)) == -1
    assert crossing_sign_from_geometry((2.0, 0.0), (3.0, 3.0)) == 1


def test_geometric_sign_rejects_parallel():
    with pytest.raises(ParallelStrandsError):
        crossing_sign_from_geometry((1.0, 0.0), (2.0, 0.0))
    with pytest.raises(ParallelStrandsError):
        crossing_sign_from_geometry((1.0, 1.0), (-2.0, -2.0))
    with pytest.raises(ParallelStrandsError):
        crossing_sign_from_geometry((0.0, 0.0), (1.0, 0.0))


def test_markers_agree_with_diagram_signs():
    emb = annular_embed(BRAID_818, (1.0, 2.0, 3.0), slots_per_letter=32)
    assert len(emb.markers) == 8
    _, crossings = closure_diagram(BRAID_818)
    by_id = {c.id: c for c in crossings}
    for m in emb.markers:
        assert m.sign == by_id[m.crossing].sign
        assert crossing_sign_from_geometry(m.over_direction, m.under_direction) == m.sign
        r = math.hypot(*m.point)
        assert 1.0 < r < 3.0
