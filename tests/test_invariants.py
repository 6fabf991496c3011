"""Burau representation and exact Alexander polynomials."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import braid_words
from knot818.braid import BRAID_818, BraidWord, NotAKnotError
from knot818.invariants import (
    PolyMatrix,
    ZeroPolynomialError,
    alexander_from_braid,
    burau_reduced,
    normalize_alexander,
)
from knot818.laurent import ONE, ZERO, LaurentPoly, T


def poly(min_exp, *coeffs):
    return LaurentPoly(min_exp, tuple(coeffs))


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        PolyMatrix(((ONE, ZERO),))


def test_identity_multiplication():
    m = burau_reduced(BraidWord(3, (1, -2)))
    eye = PolyMatrix.identity(2)
    assert eye * m == m
    assert m * eye == m


def _generator_image(letter, strands):
    """Dense reduced Burau image of one letter, built from the band.

    Positive generator i puts t, -t, 1 in row i-1 at columns i-2, i-1, i
    (0-based, entries past the edge dropped); its inverse puts 1, -t^-1,
    t^-1 there.  On three strands this is the pair of matrices written
    out in CONVENTIONS.md.
    """
    dim = strands - 1
    t_inv = LaurentPoly.t_power(-1)
    band = (T, -T, ONE) if letter > 0 else (ONE, -t_inv, t_inv)
    r = abs(letter) - 1
    rows = [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]
    for col, entry in zip((r - 1, r, r + 1), band):
        if 0 <= col < dim:
            rows[r][col] = entry
    return PolyMatrix(tuple(tuple(row) for row in rows))


def test_generator_images_match_conventions():
    t_inv = LaurentPoly.t_power(-1)
    assert _generator_image(1, 3).rows == ((-T, ONE), (ZERO, ONE))
    assert _generator_image(2, 3).rows == ((ONE, ZERO), (T, -T))
    assert _generator_image(-1, 3).rows == ((-t_inv, t_inv), (ZERO, ONE))


@pytest.mark.parametrize("strands", range(2, 8))
def test_burau_generator_images(strands):
    for i in range(1, strands):
        for letter in (i, -i):
            image = burau_reduced(BraidWord(strands, (letter,)))
            assert image == _generator_image(letter, strands)


@given(braid_words())
@settings(max_examples=50)
def test_burau_is_a_homomorphism(braid):
    n = braid.strands
    half = len(braid) // 2
    left = BraidWord(n, braid.letters[:half]) if half else BraidWord(n, ())
    right = BraidWord(n, braid.letters[half:]) if half < len(braid) else BraidWord(n, ())
    assert burau_reduced(left) * burau_reduced(right) == burau_reduced(braid)


@given(braid_words(max_len=5))
@settings(max_examples=50)
def test_burau_inverse_law(braid):
    inverse = BraidWord(braid.strands, tuple(-l for l in reversed(braid.letters)))
    product = burau_reduced(braid) * burau_reduced(inverse)
    assert product == PolyMatrix.identity(braid.strands - 1)


def test_braid_relation():
    # sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2
    lhs = burau_reduced(BraidWord(3, (1, 2, 1)))
    rhs = burau_reduced(BraidWord(3, (2, 1, 2)))
    assert lhs == rhs


def test_far_commutation():
    lhs = burau_reduced(BraidWord(4, (1, 3)))
    rhs = burau_reduced(BraidWord(4, (3, 1)))
    assert lhs == rhs


def leibniz_det(rows):
    """Reference determinant: the signed sum over all permutations."""
    total = ZERO
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = ONE
        for row, col in zip(rows, perm):
            term = term * row[col]
        total = total + (-term if inversions % 2 else term)
    return total


entries = st.one_of(
    st.just(ZERO),
    st.builds(LaurentPoly, st.integers(-2, 2), st.lists(st.integers(-3, 3), max_size=3).map(tuple)),
)


def square_matrices(dim):
    return st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


ZERO_LEADING_PIVOT = [[ZERO, ONE, T], [T, ZERO, ONE], [ONE, T, -ONE]]
ZERO_COLUMN = [[ONE, ZERO, T], [T, ZERO, ONE], [-T, ZERO, poly(-1, 2, 1)]]


@given(st.integers(0, 5).flatmap(square_matrices))
@example(ZERO_LEADING_PIVOT)
@example(ZERO_COLUMN)
@settings(max_examples=150)
def test_det_matches_leibniz(rows):
    matrix = PolyMatrix(tuple(tuple(row) for row in rows))
    assert matrix.det() == leibniz_det(matrix.rows)


# Alexander polynomials computed independently, by a dense Burau matrix
# product and a cofactor-expansion determinant.
# (1 2 ... 7)^9 closes to the torus knot T(8, 9).
REGRESSION_CASES = [
    (
        BraidWord(8, (1, 2, 3, 4, 5, 6, 7) * 9),
        (1, -1, 0, 0, 0, 0, 0, 0, 1, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, -1,
         0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, -1, 1),
    ),
    (
        BraidWord(6, (5, 1, -2, -4, 3, -2, 5, 3, 1, -4, 3, -2, -4, 1, 5, 5, -2, -4, 3, 1, 5, -4, 3,
                      -2, 1, -2, 5, -4, 3, -2, 5)),
        (1, -20, 193, -1199, 5397, -18795, 52834, -123535, 245663, -422545, 636606, -847847,
         1004449, -1062405, 1004449, -847847, 636606, -422545, 245663, -123535, 52834, -18795,
         5397, -1199, 193, -20, 1),
    ),
    (
        BraidWord(7, (-6, -4, -2, 3, 1, 5, -6, 1, 3, 5, -4, -2, 1, 5, 3, -2, -6, -4, 1, -4, 3, -6,
                      5, -2, -4, -6, -2, 1, 5, 3, -2, -4, 3, 1, 1, -6)),
        (1, -24, 272, -1951, 10015, -39442, 124758, -327599, 732446, -1422483, 2438104, -3734059,
         5158166, -6469681, 7399881, -7736809, 7399881, -6469681, 5158166, -3734059, 2438104,
         -1422483, 732446, -327599, 124758, -39442, 10015, -1951, 272, -24, 1),
    ),
]


@pytest.mark.parametrize("braid, coeffs", REGRESSION_CASES, ids=["torus-8-9", "six-strand", "seven-strand"])
def test_alexander_regression_values(braid, coeffs):
    assert alexander_from_braid(braid) == LaurentPoly(0, coeffs)


def test_torus_knot_against_closed_form():
    # Delta of T(p, q) is (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)).
    p, q = 8, 9
    closed_form = ((T ** (p * q) - ONE) * (T - ONE)).exact_div((T ** p - ONE) * (T ** q - ONE))
    assert REGRESSION_CASES[0][1] == closed_form.coeffs


def test_normalize_alexander():
    assert normalize_alexander(poly(-2, -1, 1)) == poly(0, 1, -1)
    assert normalize_alexander(poly(5, 3)) == poly(0, 3)
    with pytest.raises(ZeroPolynomialError):
        normalize_alexander(ZERO)


def test_unknot():
    assert alexander_from_braid(BraidWord(2, (1,))) == ONE
    assert alexander_from_braid(BraidWord(3, (1, 2))) == ONE


def test_trefoil_against_hand_oracle():
    # Oracle computed away from the Burau route: the trefoil's crossing
    # relations give the 2x2 Alexander matrix
    #     [ t    -1 ]
    #     [ 1-t   t ]
    # whose determinant is t^2 + (1 - t) = 1 - t + t^2 after collecting.
    oracle = poly(0, 1, -1, 1)
    assert alexander_from_braid(BraidWord(2, (1, 1, 1))) == oracle


def test_figure_eight():
    assert alexander_from_braid(BraidWord(3, (1, -2, 1, -2))) == poly(0, 1, -3, 1)


def test_main_knot_alexander():
    delta = alexander_from_braid(BRAID_818)
    assert delta == poly(0, 1, -5, 10, -13, 10, -5, 1)
    assert str(delta) == "1 - 5*t + 10*t^2 - 13*t^3 + 10*t^4 - 5*t^5 + t^6"


def test_main_knot_determinant():
    delta = alexander_from_braid(BRAID_818)
    assert abs(delta.evaluate(Fraction(-1))) == 45


def test_alexander_at_one_is_a_unit():
    for braid in (
        BraidWord(2, (1, 1, 1)),
        BraidWord(3, (1, -2, 1, -2)),
        BRAID_818,
        BraidWord(2, (1, 1, 1, 1, 1)),
    ):
        assert abs(alexander_from_braid(braid).evaluate(Fraction(1))) == 1


def test_alexander_markov_stability():
    # Stabilizing with a fresh top generator keeps the closure type.
    assert alexander_from_braid(BraidWord(2, (1, 1, 1))) == alexander_from_braid(
        BraidWord(3, (1, 1, 1, 2))
    )
    assert alexander_from_braid(BRAID_818) == alexander_from_braid(
        BraidWord(4, BRAID_818.letters + (3,))
    )


@given(braid_words())
@settings(max_examples=40)
def test_alexander_palindrome_and_unit_value(braid):
    try:
        delta = alexander_from_braid(braid)
    except NotAKnotError:
        return
    assert normalize_alexander(delta.subs_inverse()) == delta
    assert abs(delta.evaluate(Fraction(1))) == 1


def test_alexander_rejects_links():
    with pytest.raises(NotAKnotError):
        alexander_from_braid(BraidWord(2, (1, 1)))
