"""Ring laws and exact division for the Laurent polynomial type."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import poly_from_terms, subs_inverse
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
    # the constructor stores the trimmed fields, whatever sequence it is given
    assert repr(LaurentPoly(2, [0, 1, 0])) == "LaurentPoly(min_exp=3, coeffs=(1,))"
    assert repr(LaurentPoly(5, [0, 0])) == "LaurentPoly(min_exp=0, coeffs=())"
    assert LaurentPoly().is_zero


def test_replace_trims():
    assert repr(ONE._replace(coeffs=(0, 1))) == "LaurentPoly(min_exp=1, coeffs=(1,))"
    assert repr(T._replace(coeffs=[0, 0])) == "LaurentPoly(min_exp=0, coeffs=())"
    assert repr(LaurentPoly._make((2, [0, 5, 0]))) == "LaurentPoly(min_exp=3, coeffs=(5,))"


def test_integer_times_polynomial_is_not_tuple_repetition():
    with pytest.raises(TypeError):
        2 * ONE


@pytest.mark.parametrize(
    "operate",
    [lambda: ONE + 2, lambda: ONE - 2, lambda: ONE * 2, lambda: ONE + (1,), lambda: (1,) + ONE, lambda: 2 + ONE],
    ids=["plus-int", "minus-int", "times-int", "plus-tuple", "tuple-plus", "int-plus"],
)
def test_non_polynomial_operand_is_a_type_error(operate):
    # not an AttributeError from reading the operand, and no tuple
    # concatenation or repetition
    with pytest.raises(TypeError, match="unsupported operand"):
        operate()


def test_subtraction_error_names_its_operator():
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for -: 'LaurentPoly' and 'int'$"):
        ONE - 2
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \+: 'tuple' and 'LaurentPoly'$"):
        (1,) + ONE


def test_small_products():
    assert (ONE - T) * (ONE + T) == LaurentPoly(0, (1, 0, -1))
    assert LaurentPoly(-1, (1,)) * T == ONE
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
    with pytest.raises(ZeroArgumentError):
        LaurentPoly().evaluate(Fraction(0, 5))
    assert LaurentPoly().evaluate(-1) == 0


@given(
    st.integers(-12, 0),
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
    st.fractions().filter(lambda x: x != 0),
)
@example(-3, [1, -5, 10, -13, 10, -5, 1], Fraction(-1))
@example(-2, [7, 0, 0, 3], Fraction(-3, 5))
def test_evaluate_matches_the_term_sum(min_exp, coeffs, point):
    p = LaurentPoly(min_exp, tuple(coeffs))
    expected = sum((c * point ** (min_exp + k) for k, c in enumerate(coeffs)), Fraction(0))
    value = p.evaluate(point)
    assert type(value) is Fraction
    assert value == expected


@given(st.integers(-40, 40), st.lists(st.integers(-10**30, 10**30), max_size=12))
@example(-3, [1, -5, 10, -13, 10, -5, 1])  # the Alexander polynomial of 8_18, |value at -1| = 45
@example(-1, [3])
@example(0, [])
def test_at_unit_is_the_integer_value_at_one_and_minus_one(min_exp, coeffs):
    p = LaurentPoly(min_exp, tuple(coeffs))
    for sign in (1, -1):
        value = p.at_unit(sign)
        assert type(value) is int
        assert value == p.evaluate(sign)
    assert type(p.evaluate(Fraction(1, 2))) is Fraction
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
    assert subs_inverse(p) == LaurentPoly(-2, (1, -3, 1))
    assert subs_inverse(subs_inverse(p)) == p


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
    return poly_from_terms(out)


# Wide operands for checking ``*`` against the test-local schoolbook: up
# to 40 terms, coefficients well past 64 bits, zero runs inside.
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
# Equal coefficients give the middle product coefficient magnitude
# 16 * 9 * 2^120, the most operands of these lengths and sizes allow.
@example(LaurentPoly(0, (3 * 2**60,) * 16), LaurentPoly(-2, (-3 * 2**60,) * 16))
def test_product_matches_schoolbook(a, b):
    assert a * b == schoolbook(a, b)
