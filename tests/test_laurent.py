"""Ring laws and exact division for the Laurent polynomial type."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from knot818.laurent import (
    ONE,
    T,
    InexactDivisionError,
    LaurentPoly,
    ZeroArgumentError,
)

polys = st.builds(
    LaurentPoly,
    st.integers(-4, 4),
    st.lists(st.integers(-9, 9), max_size=6).map(tuple),
)


def test_trimming_is_canonical():
    assert LaurentPoly(2, (0, 1, 0)) == LaurentPoly(3, (1,))
    assert LaurentPoly(5, (0, 0)) == LaurentPoly()
    assert LaurentPoly().is_zero


def test_small_products():
    assert (ONE - T) * (ONE + T) == LaurentPoly(0, (1, 0, -1))
    assert LaurentPoly.t_power(-1) * T == ONE
    assert (T * T * T).min_exp == 3


def test_exact_div_geometric():
    num = ONE - T ** 3
    assert num.exact_div(ONE - T) == LaurentPoly(0, (1, 1, 1))


def test_exact_div_laurent_shift():
    num = LaurentPoly(-2, (1, 1))  # t^-2 + t^-1
    assert num.exact_div(LaurentPoly(-1, (1,))) == LaurentPoly(-1, (1, 1))


def test_inexact_division_rejected():
    with pytest.raises(InexactDivisionError):
        (ONE + T).exact_div(ONE - T)
    with pytest.raises(InexactDivisionError):
        LaurentPoly(0, (1, 0, 2)).exact_div(LaurentPoly(0, (2,)))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(LaurentPoly())


def test_evaluate_exact():
    p = LaurentPoly(-1, (1, 0, 3))  # t^-1 + 3t
    assert p.evaluate(2) == Fraction(1, 2) + 6
    assert p.evaluate(Fraction(1, 3)) == 3 + 1
    with pytest.raises(ZeroArgumentError):
        p.evaluate(0)


def test_rendering():
    poly = LaurentPoly(0, (1, -5, 10, -13, 10, -5, 1))
    assert str(poly) == "1 - 5*t + 10*t^2 - 13*t^3 + 10*t^4 - 5*t^5 + t^6"
    assert str(LaurentPoly()) == "0"
    assert str(-T) == "-t"
    assert str(LaurentPoly(-1, (2, 0, 1))) == "2*t^-1 + t"


def test_subs_inverse():
    p = LaurentPoly(0, (1, -3, 1))
    assert p.subs_inverse() == LaurentPoly(-2, (1, -3, 1))
    assert p.subs_inverse().subs_inverse() == p


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly() == a
    assert a * ONE == a
    assert a - a == LaurentPoly()


@given(polys, polys)
def test_multiply_then_divide_round_trips(a, b):
    if b.is_zero:
        return
    assert (a * b).exact_div(b) == a


@given(polys, st.integers(-3, 3), st.sampled_from([1, 2, -1, Fraction(1, 2), Fraction(-2, 3)]))
def test_evaluate_is_a_homomorphism(a, shift, point):
    shifted = a.shifted(shift)
    assert shifted.evaluate(point) == a.evaluate(point) * Fraction(point) ** shift


def schoolbook(a, b):
    """Reference product: every coefficient pair, one at a time."""
    out = {}
    for ea, ca in a.terms():
        for eb, cb in b.terms():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return LaurentPoly.from_dict(out)


# Long enough that both operands take the packed-integer path, with
# coefficients well past 64 bits and with zero runs inside.
wide_polys = st.builds(
    LaurentPoly,
    st.integers(-40, 40),
    st.lists(
        st.one_of(st.just(0), st.integers(-(2**100), 2**100), st.integers(-3, 3)),
        min_size=8,
        max_size=40,
    ).map(tuple),
)


@given(wide_polys, wide_polys)
@example(
    LaurentPoly(-7, (2**70, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -(2**70))),
    LaurentPoly(-3, (-1,) + (0,) * 12 + (-(2**65),)),
)
@example(LaurentPoly(0, (-1,) * 12), LaurentPoly(-5, (1, -1) * 6))
# Equal coefficients make the middle product coefficient reach the bound
# the packing width is chosen from.
@example(LaurentPoly(0, (3 * 2**60,) * 16), LaurentPoly(-2, (-3 * 2**60,) * 16))
def test_product_matches_schoolbook(a, b):
    assert a * b == schoolbook(a, b)
