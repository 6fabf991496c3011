"""Closure walk, crossing bookkeeping, and the sampled annular picture."""

import math

import pytest
from hypothesis import given, settings

from conftest import braid_words
from knot818.braid import (
    BRAID_818,
    AnnularEmbedding,
    BadRadiiError,
    BadSamplingError,
    BraidWord,
    InvalidBraidError,
    NotAKnotError,
    OriginOnCurveError,
    ParallelStrandsError,
    VertexRuleInapplicableError,
    annular_embed,
    closure_diagram,
    crossing_sign_from_geometry,
    winding_phase,
    writhe,
)
from knot818.diagram import Role, SiteClass, canonical_818, site_class


def test_braid_word_validation():
    for strands, letters in ((1, (1,)), (1, ()), (-5, ()), (3, (0,)), (3, (3,))):
        with pytest.raises(InvalidBraidError):
            BraidWord(strands, letters)
    assert issubclass(InvalidBraidError, ValueError)
    BraidWord(3, (2, -2, 1, -1))  # fine


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


@pytest.mark.parametrize("braid", [BRAID_818, BraidWord(2, ())], ids=["main", "empty"])
@pytest.mark.parametrize("slots", [0, -4])
def test_bad_sampling(braid, slots):
    with pytest.raises(BadSamplingError) as exc:
        annular_embed(braid, tuple(range(1, braid.strands + 1)), slots_per_letter=slots)
    assert type(exc.value) is BadSamplingError
    assert str(exc.value) == f"slots_per_letter must be at least 1, got {slots}"


def test_main_embedding_is_one_closed_loop():
    emb = annular_embed(BRAID_818, (1.0, 2.0, 3.0), slots_per_letter=8)
    assert len(emb.loops) == 1
    pts = emb.polyline
    assert pts[0] == pts[-1]
    assert len(pts) == 3 * 8 * 8 + 1
    for x, y in pts:
        r = math.hypot(x, y)
        assert 1.0 - 1e-9 <= r <= 3.0 + 1e-9


def test_empty_braid_embeds_as_circles():
    emb = annular_embed(BraidWord(2, ()), (1.0, 2.0))
    assert len(emb.loops) == 2
    with pytest.raises(ValueError):
        emb.polyline
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
    pts = emb.polyline[:-1]
    for k in range(0, len(pts), 13):
        x, y = pts[k]
        rx, ry = -y, x
        nearest = min(math.hypot(px - rx, py - ry) for px, py in pts)
        assert nearest < 1e-9


def test_winding_of_a_circle():
    steps = 360
    pts = tuple(
        (math.cos(2 * math.pi * k / steps), math.sin(2 * math.pi * k / steps))
        for k in range(steps)
    )
    emb = AnnularEmbedding(loops=(pts + (pts[0],),))
    assert winding_phase(emb) == pytest.approx(2 * math.pi, abs=1e-9)


def test_winding_of_offset_circle_is_zero():
    steps = 360
    pts = tuple(
        (5 + math.cos(2 * math.pi * k / steps), math.sin(2 * math.pi * k / steps))
        for k in range(steps)
    )
    emb = AnnularEmbedding(loops=(pts + (pts[0],),))
    assert winding_phase(emb) == pytest.approx(0.0, abs=1e-9)


def test_main_winding_phase():
    emb = annular_embed(BRAID_818, (1.0, 2.0, 3.0), slots_per_letter=64)
    assert winding_phase(emb) == pytest.approx(6 * math.pi, abs=1e-9)


@given(braid_words())
@settings(max_examples=40, deadline=None)
def test_winding_counts_every_strand(braid):
    emb = annular_embed(braid, tuple(range(1, braid.strands + 1)), slots_per_letter=4)
    expected = 2 * math.pi * braid.strands
    assert winding_phase(emb) == pytest.approx(expected, abs=1e-8)


def test_winding_rejects_origin_on_curve():
    emb = AnnularEmbedding(loops=(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)),))
    with pytest.raises(OriginOnCurveError):
        winding_phase(emb)


def test_winding_rejects_open_loop():
    emb = AnnularEmbedding(loops=(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)),))
    with pytest.raises(ValueError):
        winding_phase(emb)


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
