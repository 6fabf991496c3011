"""Burau representation and exact Alexander polynomials."""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ZERO, braid_words, knot_braids, matmul, signs, subs_inverse
from knot818.braid import BRAID_818, BraidWord, NotAKnotError
from knot818.invariants import (
    PolyMatrix,
    ZeroPolynomialError,
    alexander_from_braid,
    burau_reduced,
    normalize_alexander,
)
from knot818.laurent import ONE, LaurentPoly, T


def poly(min_exp, *coeffs):
    return LaurentPoly(min_exp, tuple(coeffs))


def test_matrix_must_be_square():
    with pytest.raises(ValueError, match="^matrix must be square$"):
        PolyMatrix(((ONE, ZERO),))


def test_identity_multiplication():
    m = burau_reduced(BraidWord(3, (1, -2)))
    eye = PolyMatrix.identity(2)
    assert matmul(eye, m) == m
    assert matmul(m, eye) == m


def _generator_image(letter, strands):
    """Dense reduced Burau image of one letter, built from the band.

    Positive generator i puts t, -t, 1 in row i-1 at columns i-2, i-1, i
    (0-based, entries past the edge dropped); its inverse puts 1, -t^-1,
    t^-1 there.  On three strands this is the pair of matrices written
    out in CONVENTIONS.md.
    """
    dim = strands - 1
    t_inv = LaurentPoly(-1, (1,))
    band = (T, -T, ONE) if letter > 0 else (ONE, -t_inv, t_inv)
    r = abs(letter) - 1
    rows = [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]
    for col, entry in zip((r - 1, r, r + 1), band):
        if 0 <= col < dim:
            rows[r][col] = entry
    return PolyMatrix(tuple(tuple(row) for row in rows))


def test_generator_images_match_conventions():
    t_inv = LaurentPoly(-1, (1,))
    assert _generator_image(1, 3).rows == ((-T, ONE), (ZERO, ONE))
    assert _generator_image(2, 3).rows == ((ONE, ZERO), (T, -T))
    assert _generator_image(-1, 3).rows == ((-t_inv, t_inv), (ZERO, ONE))


@pytest.mark.parametrize("strands", range(2, 8))
def test_burau_generator_images(strands):
    for i in range(1, strands):
        for letter in (i, -i):
            image = burau_reduced(BraidWord(strands, (letter,)))
            assert image == _generator_image(letter, strands)


def dense_burau(braid):
    """Reference Burau matrix: the product of the dense generator images."""
    product = PolyMatrix.identity(braid.strands - 1)
    for letter in braid.letters:
        product = matmul(product, _generator_image(letter, braid.strands))
    return product


def column_bound(braid):
    """The L1 bound ``burau_reduced`` fixes its digit width from."""
    dim = braid.strands - 1
    bound = [1] * dim
    for letter in braid.letters:
        r = abs(letter) - 1
        if r > 0:
            bound[r - 1] += bound[r]
        if r + 1 < dim:
            bound[r + 1] += bound[r]
    return max(bound)


@st.composite
def long_braid_words(draw):
    """Braids on 2-8 strands up to 120 letters.

    Alternating ones (generator i with sign (-1)^(i+1)) barely cancel, so
    on 3 strands their Burau coefficients pass 64 bits and the packed
    digits are wider than 8 bytes.
    """
    strands = draw(st.integers(2, 8))
    length = draw(st.integers(0, 120))
    gens = draw(st.lists(st.integers(1, strands - 1), min_size=length, max_size=length))
    if draw(st.booleans()):
        signs = [1 if g % 2 else -1 for g in gens]
    else:
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=length, max_size=length))
    return BraidWord(strands, tuple(g * s for g, s in zip(gens, signs)))


# The bound of this prefix of (1 -2)^n has exactly 64 bits: the edge
# where the digit width steps from 8 bytes to 9.
WIDTH_EDGE = BraidWord(3, ((1, -2) * 46)[:91])
# Largest Burau coefficient 79 bits.
WIDE_DIGITS = BraidWord(3, (1, -2) * 60)


def test_examples_sit_where_claimed():
    assert column_bound(WIDTH_EDGE).bit_length() == 64
    rho = burau_reduced(WIDE_DIGITS)
    assert max(abs(c).bit_length() for row in rho.rows for p in row for c in p.coeffs) == 79


@given(long_braid_words())
@example(WIDTH_EDGE)
@example(WIDE_DIGITS)
@example(BraidWord(8, (1, -2, 3, -4, 5, -6, 7) * 17))
@settings(max_examples=30, deadline=None)
def test_packed_burau_matches_dense_product(braid):
    assert burau_reduced(braid) == dense_burau(braid)


@given(braid_words())
@settings(max_examples=50)
def test_burau_is_a_homomorphism(braid):
    n = braid.strands
    half = len(braid) // 2
    left = BraidWord(n, braid.letters[:half]) if half else BraidWord(n, ())
    right = BraidWord(n, braid.letters[half:]) if half < len(braid) else BraidWord(n, ())
    assert matmul(burau_reduced(left), burau_reduced(right)) == burau_reduced(braid)


@given(braid_words(max_len=5))
@settings(max_examples=50)
def test_burau_inverse_law(braid):
    inverse = BraidWord(braid.strands, tuple(-l for l in reversed(braid.letters)))
    product = matmul(burau_reduced(braid), burau_reduced(inverse))
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


coefficients = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


@st.composite
def square_matrices(draw):
    """Square matrices up to 5x5 with zero entries and coefficients past 64 bits.

    The entries of one matrix take their least exponents from a window
    inside -40..40, so some matrices mix zero entries with entries whose
    exponents are all positive.
    """
    dim = draw(st.integers(0, 5))
    low = draw(st.integers(-40, 40))
    high = draw(st.integers(low, 40))
    entry = st.one_of(
        st.just(ZERO),
        st.builds(LaurentPoly, st.integers(low, high), st.lists(coefficients, max_size=3).map(tuple)),
    )
    return draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))


ZERO_LEADING_PIVOT = [[ZERO, ONE, T], [T, ZERO, ONE], [ONE, T, -ONE]]
ZERO_COLUMN = [[ONE, ZERO, T], [T, ZERO, ONE], [-T, ZERO, poly(-1, 2, 1)]]
# Monomial matrices: the one coefficient of the determinant equals the
# product of the column L1 norms that fixes the digit width.
DIAGONAL_AT_BOUND = [[poly(3, 2**40), ZERO], [ZERO, poly(-2, -(2**40))]]
# Determinant 2^63 t needs 9-byte digits; 2^63 - 1 is the largest that fits 8.
ANTI_DIAGONAL_PAST_8_BYTES = [[ZERO, poly(3, 2**31)], [poly(-2, -(2**32)), ZERO]]
ANTI_DIAGONAL_FILLS_8_BYTES = [[ZERO, poly(3, 1)], [poly(-2, 2**63 - 1), ZERO]]
# Every exponent positive, so a zero entry sits below the least exponent.
ZERO_BESIDE_POSITIVE = [[poly(2, 5, -(2**70)), ZERO, ZERO], [poly(7, 1), poly(1, 3), ZERO], [ZERO, T, poly(4, -1, 1)]]


@given(square_matrices())
@example(ZERO_LEADING_PIVOT)
@example(ZERO_COLUMN)
@example(DIAGONAL_AT_BOUND)
@example(ANTI_DIAGONAL_PAST_8_BYTES)
@example(ANTI_DIAGONAL_FILLS_8_BYTES)
@example(ZERO_BESIDE_POSITIVE)
@settings(max_examples=150)
def test_det_matches_leibniz(rows):
    matrix = PolyMatrix(tuple(tuple(row) for row in rows))
    assert matrix.det() == leibniz_det(matrix.rows)


def test_det_examples_sit_where_claimed():
    for rows, coefficient in (
        (DIAGONAL_AT_BOUND, -(2**80)),
        (ANTI_DIAGONAL_PAST_8_BYTES, 2**63),
        (ANTI_DIAGONAL_FILLS_8_BYTES, -(2**63 - 1)),
    ):
        assert leibniz_det(rows) == poly(1, coefficient)
        assert abs(coefficient) == math.prod(sum(abs(c) for p in col for c in p.coeffs) for col in zip(*rows))


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


def _captured(name):
    # Captured from the LaurentPoly column walk that preceded the packed one.
    data = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text(encoding="utf-8"))
    letters = tuple(int(l) for l in data["letters"].split())
    return BraidWord(data["strands"], letters), tuple(data["delta"])


# A 400-letter alternating 3-strand word (generator 1 positive, 2
# negative, in a seeded random order): Delta of degree 398 with 228-bit
# coefficients.
REGRESSION_CASES.append(_captured("alexander_alternating_400"))


@pytest.mark.parametrize(
    "braid, coeffs", REGRESSION_CASES, ids=["torus-8-9", "six-strand", "seven-strand", "alternating-400"]
)
def test_alexander_regression_values(braid, coeffs):
    assert alexander_from_braid(braid) == LaurentPoly(0, coeffs)


def torus_knot_alexander(p, q):
    # Delta of T(p, q) is (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)).
    return ((T ** (p * q) - ONE) * (T - ONE)).exact_div((T ** p - ONE) * (T ** q - ONE))


def test_torus_knot_against_closed_form():
    assert REGRESSION_CASES[0][1] == torus_knot_alexander(8, 9).coeffs


def test_long_torus_knot_against_closed_form():
    # (1 2)^400 closes to T(3, 400).
    assert alexander_from_braid(BraidWord(3, (1, 2) * 400)) == torus_knot_alexander(3, 400)


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


def _inserted(braid, at, piece):
    """``braid`` with the letters ``piece`` inserted before position ``at``."""
    at %= len(braid) + 1
    return BraidWord(braid.strands, braid.letters[:at] + tuple(piece) + braid.letters[at:])


@given(knot_braids(), st.integers(0, 100))
@settings(max_examples=40)
def test_alexander_conjugation_invariance(braid, k):
    k %= len(braid)
    rotated = BraidWord(braid.strands, braid.letters[k:] + braid.letters[:k])
    assert alexander_from_braid(rotated) == alexander_from_braid(braid)


@given(knot_braids(), signs)
@settings(max_examples=40)
def test_alexander_markov_stabilization(braid, sign):
    # Generalizes test_alexander_markov_stability (Birman, 1974).
    n = braid.strands
    stabilized = BraidWord(n + 1, braid.letters + (sign * n,))
    assert alexander_from_braid(stabilized) == alexander_from_braid(braid)


@given(knot_braids(), st.integers(0, 100), st.integers(1, 5), signs)
@settings(max_examples=40)
def test_alexander_free_cancellation(braid, at, g, sign):
    g = sign * (g % (braid.strands - 1) + 1)
    assert alexander_from_braid(_inserted(braid, at, (g, -g))) == alexander_from_braid(braid)


@given(knot_braids(min_strands=4), st.integers(0, 100), st.data())
@settings(max_examples=40)
def test_alexander_far_commutation(braid, at, data):
    # s_a s_b = s_b s_a for |a - b| >= 2: insert the commutator, which
    # is the trivial braid exactly when the relation holds.
    a = data.draw(st.integers(1, braid.strands - 3))
    b = data.draw(st.integers(a + 2, braid.strands - 1))
    a, b = a * data.draw(signs), b * data.draw(signs)
    assert alexander_from_braid(_inserted(braid, at, (a, b, -a, -b))) == alexander_from_braid(braid)


@given(knot_braids(min_strands=3), st.integers(0, 100), st.data())
@settings(max_examples=40)
def test_alexander_braid_relation(braid, at, data):
    # s_i s_(i+1) s_i = s_(i+1) s_i s_(i+1): insert one side times the
    # inverse of the other; the mirror relation comes with sign -1.
    i = data.draw(st.integers(1, braid.strands - 2))
    e = data.draw(signs)
    relator = (e * (i + 1), e * i, e * (i + 1), -e * i, -e * (i + 1), -e * i)
    assert alexander_from_braid(_inserted(braid, at, relator)) == alexander_from_braid(braid)


@given(braid_words())
@settings(max_examples=40)
def test_alexander_palindrome_and_unit_value(braid):
    try:
        delta = alexander_from_braid(braid)
    except NotAKnotError:
        return
    assert normalize_alexander(subs_inverse(delta)) == delta
    assert abs(delta.evaluate(Fraction(1))) == 1


def test_alexander_rejects_links():
    with pytest.raises(NotAKnotError):
        alexander_from_braid(BraidWord(2, (1, 1)))
