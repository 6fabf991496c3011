"""Burau representation and exact Alexander polynomials."""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PERFBENCH, ZERO, braid_words, knot_braids, load_script, matmul, signs, subs_inverse
from knot818.braid import BRAID_818, BraidWord, NotAKnotError, closure_diagram
from knot818.diagram import Role, Visit
from knot818 import invariants
from knot818.invariants import (
    PolyMatrix,
    ZeroPolynomialError,
    _digit_width,
    _pack,
    _state_bound,
    _state_floor,
    _trim,
    _unpack,
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
    with pytest.raises(ValueError, match="^matrix must be square$"):
        PolyMatrix(((ONE,),))._replace(rows=((ONE, ZERO),))


EYE = PolyMatrix.identity(2)


@pytest.mark.parametrize("operate", [lambda: EYE + EYE, lambda: (1,) + EYE, lambda: EYE + 2], ids=["matrix", "tuple", "int"])
def test_matrix_plus_is_a_type_error(operate):
    # not tuple concatenation
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \+: "):
        operate()


@pytest.mark.parametrize("operate", [lambda: 2 * EYE, lambda: EYE * 2, lambda: EYE * EYE], ids=["int-times", "times-int", "matrix"])
def test_matrix_times_is_a_type_error(operate):
    # not tuple repetition
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \*: "):
        operate()


def test_matrix_minus_non_matrix_is_a_type_error():
    # not an AttributeError from reading the operand's dim
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for -: 'PolyMatrix' and 'int'$"):
        EYE - 3


def test_identity_multiplication():
    m = burau_reduced(BraidWord(3, (1, -2)))
    eye = PolyMatrix.identity(2)
    assert matmul(eye, m) == m
    assert matmul(m, eye) == m


@st.composite
def digit_runs(draw):
    """A digit width in bytes and signed digits under half a digit base in
    magnitude, as ``_digit_width`` makes every coefficient, edges included."""
    width = draw(st.integers(1, 12))
    half = 1 << (8 * width - 1)
    digit = st.one_of(st.just(0), st.sampled_from((1 - half, half - 1, -1, 1)), st.integers(1 - half, half - 1))
    return width, draw(st.lists(digit, max_size=30))


@given(digit_runs())
@example((1, [-128, 127, 0, -1, 0]))
@example((9, [0, -(2**71), 2**71 - 1, 2**64, -(2**64) - 1]))
@example((3, []))  # packs to 0, which unpacks to one zero digit
@example((1, [0, -128]))  # a top digit of -half, read with one more zero
@example((4, [7, 0, -(2**31), 0]))  # a top digit of -half, read without
def test_pack_unpack_round_trip(run):
    width, digits = run
    packed = _pack(digits, width)
    assert packed == sum(d << (8 * width * i) for i, d in enumerate(digits))
    kept = list(digits)
    while kept and not kept[-1]:
        kept.pop()
    unpacked = _unpack(packed, width)
    assert unpacked[: len(kept)] == kept
    assert unpacked[len(kept) :] in ([], [0])


@given(st.one_of(st.integers(0, 2**200), st.integers(0, 40).map(lambda n: 2 ** (8 * n + 7) - 1)))
@example(2**63 - 1)
@example(2**63)
@example(255)
def test_digit_width_is_the_fewest_bytes_that_fit(bound):
    width = _digit_width(bound)
    assert bound < 1 << (8 * width - 1)
    assert width == 1 or bound >= 1 << (8 * width - 9)


@pytest.mark.parametrize("width", [1, 2, 9])
def test_trim_sheds_exactly_the_zero_low_digits(width):
    # The lowest set bit of the lowest nonzero digit may be any bit of it,
    # up to the top two: |c| = 2^(k-2), or -2^(k-1) as the top digit.  A
    # Burau entry has it there only if its lowest coefficient is half the
    # column bound, which no braid of up to 40 letters on 3-5 strands with
    # a bound below 16 reaches, so burau_reduced does not show a miscount
    # there; this does.
    k = 8 * width
    half = 1 << (k - 1)
    lows = [sign << bit for bit in (0, 1, k - 3, k - 2) for sign in (1, -1)]
    for zeros in (0, 1, 3):
        for low in lows:
            for higher in ([], [-1], [1 - half, 0, half - 1]):
                packed = _pack([0] * zeros + [low, *higher], width)
                assert _trim(7, packed, k) == (7 + zeros, _pack([low, *higher], width))
        assert _trim(7, _pack([0] * zeros + [-half], width), k) == (7 + zeros, -half)
    assert _trim(7, 0, k) == (0, 0)


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
        st.builds(LaurentPoly, st.integers(low, high), st.lists(coefficients, max_size=8).map(tuple)),
    )
    return draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))


ZERO_LEADING_PIVOT = [[ZERO, ONE, T], [T, ZERO, ONE], [ONE, T, -ONE]]
ZERO_COLUMN = [[ONE, ZERO, T], [T, ZERO, ONE], [-T, ZERO, poly(-1, 2, 1)]]
# Monomial matrices: the one coefficient of the determinant equals the
# product of the column L1 norms that fixes the digit width.
DIAGONAL_AT_BOUND = [[poly(3, 2**40), ZERO], [ZERO, poly(-2, -(2**40))]]
# Determinant 2^63 t needs 9-byte digits at base B^2; 2^63 - 1 is the
# largest that fits 8.
ANTI_DIAGONAL_PAST_8_BYTES = [[ZERO, poly(3, 2**31)], [poly(-2, -(2**32)), ZERO]]
ANTI_DIAGONAL_FILLS_8_BYTES = [[ZERO, poly(3, 1)], [poly(-2, 2**63 - 1), ZERO]]
# Least exponent -3, so det = (2^79 - 1) t^-5 is t^-6 times an odd power;
# 2^79 - 1 is the largest coefficient 10-byte digits hold.
ODD_AT_BOUND = [[ZERO, poly(-3, 1)], [poly(-2, -(2**79 - 1)), ZERO]]
# Every exponent positive, so a zero entry sits below the least exponent.
ZERO_BESIDE_POSITIVE = [[poly(2, 5, -(2**70)), ZERO, ZERO], [poly(7, 1), poly(1, 3), ZERO], [ZERO, T, poly(4, -1, 1)]]
# Bounds of 9 to 16 bits pick B = 256, where t - 256 vanishes: the first
# determinant is zero at +B only, the +B elimination of the second swaps
# its zero pivot, and that of the third meets a zero column; at -B none does.
VANISHES_AT_PLUS_B = [[poly(0, -256, 1)]]
PIVOT_ZERO_AT_PLUS_B = [[poly(0, -256, 1), ONE], [ONE, T]]
COLUMN_ZERO_AT_PLUS_B = [[poly(0, -256, 1), ONE], [poly(0, -512, 2), T]]


@given(square_matrices())
@example(ZERO_LEADING_PIVOT)
@example(ZERO_COLUMN)
@example(DIAGONAL_AT_BOUND)
@example(ANTI_DIAGONAL_PAST_8_BYTES)
@example(ANTI_DIAGONAL_FILLS_8_BYTES)
@example(ODD_AT_BOUND)
@example(ZERO_BESIDE_POSITIVE)
@example(VANISHES_AT_PLUS_B)
@example(PIVOT_ZERO_AT_PLUS_B)
@example(COLUMN_ZERO_AT_PLUS_B)
@settings(max_examples=150)
def test_det_matches_leibniz(rows):
    matrix = PolyMatrix(tuple(tuple(row) for row in rows))
    assert matrix.det() == leibniz_det(matrix.rows)


def det_bound_and_base(rows):
    """The product of column L1 norms ``PolyMatrix.det`` bounds with, and its B.

    B^2 = 2^(8 * width) for the fewest bytes ``width`` that hold the bound.
    """
    bound = math.prod(sum(abs(c) for p in col for c in p.coeffs) for col in zip(*rows))
    return bound, 2 ** (4 * (bound.bit_length() // 8 + 1))


def test_det_examples_sit_where_claimed():
    for rows, det in (
        (DIAGONAL_AT_BOUND, poly(1, -(2**80))),
        (ANTI_DIAGONAL_PAST_8_BYTES, poly(1, 2**63)),
        (ANTI_DIAGONAL_FILLS_8_BYTES, poly(1, -(2**63 - 1))),
        (ODD_AT_BOUND, poly(-5, 2**79 - 1)),
    ):
        assert leibniz_det(rows) == det
        assert abs(det.coeffs[0]) == det_bound_and_base(rows)[0]
    assert det_bound_and_base(ANTI_DIAGONAL_PAST_8_BYTES)[1] ** 2 == 2**72
    assert det_bound_and_base(ANTI_DIAGONAL_FILLS_8_BYTES)[1] ** 2 == 2**64
    assert det_bound_and_base(ODD_AT_BOUND)[1] ** 2 == 2**80

    for rows in (VANISHES_AT_PLUS_B, PIVOT_ZERO_AT_PLUS_B, COLUMN_ZERO_AT_PLUS_B):
        assert det_bound_and_base(rows)[1] == 256
    assert leibniz_det(VANISHES_AT_PLUS_B).evaluate(256) == 0
    for rows, zeros_at_plus_b in ((PIVOT_ZERO_AT_PLUS_B, [True, False]), (COLUMN_ZERO_AT_PLUS_B, [True, True])):
        assert [row[0].evaluate(256) == 0 for row in rows] == zeros_at_plus_b
        assert all(row[0].evaluate(-256) for row in rows)


LADDER = load_script("alexander_ladder")


@pytest.mark.parametrize(
    "braid",
    [LADDER.three_strand(800)] + [LADDER.full_cycle(strands) for strands in (4, 5, 6)],
    ids=["3-strand-800", "full-cycle-4", "full-cycle-5", "full-cycle-6"],
)
def test_det_matches_leibniz_on_long_entries(braid):
    # Entries of hundreds of coefficients, which no drawn matrix reaches.
    matrix = burau_reduced(braid) - PolyMatrix.identity(braid.strands - 1)
    assert matrix.det() == leibniz_det(matrix.rows)


@given(braid_words(max_strands=8, max_len=24))
@example(BraidWord(2, ()))
@example(BraidWord(3, ()))
@example(BraidWord(2, (1, 1)))
@example(BraidWord(3, (1, 2, 1, 2, 2, 1, 2)))
@example(BraidWord(5, (-1, -2, -3, -4, -1, 2, -3)))
@example(BraidWord(8, (1, -2, 3, -4, 5, -6, 7) * 3))
@settings(max_examples=80)
def test_burau_determinant_is_a_signed_monomial(braid):
    # Each generator's image has determinant -t^(+-1); links, the empty
    # word and unbalanced signs included.  alexander_from_braid rests on
    # this on three strands.
    expected = LaurentPoly(braid.exponent_sum, ((-1) ** len(braid),))
    assert burau_reduced(braid).det() == expected


# The 258- and 400-letter invariants_long words of the benchmark's seed
# 0, with alternating and with random signs.
LONG_BRAIDS = [
    BraidWord(strands, tuple(map(int, text.split())))
    for strands, text in load_script("inputs", PERFBENCH).long_braids(0)[3::4]
]


def bareiss_alexander(braid):
    """Delta through ``PolyMatrix.det`` of rho - I, the route of every strand count but three."""
    matrix = burau_reduced(braid) - PolyMatrix.identity(braid.strands - 1)
    return normalize_alexander((matrix.det() * (ONE - T)).exact_div(ONE - T ** braid.strands))


@given(knot_braids(min_strands=3, max_strands=3))
@example(BRAID_818)
@example(BraidWord(3, (1, 2)))
@example(BraidWord(3, (-1, -2) * 4))
@settings(max_examples=60, deadline=None)
def test_three_strand_alexander_matches_bareiss(braid):
    assert alexander_from_braid(braid) == bareiss_alexander(braid)


@pytest.mark.parametrize("braid", LONG_BRAIDS, ids=["alternating-258", "alternating-400", "random-258", "random-400"])
def test_three_strand_alexander_matches_bareiss_on_long_braids(braid):
    assert braid.strands == 3
    assert alexander_from_braid(braid) == bareiss_alexander(braid)


@st.composite
def patterned_knot_braids(draw):
    """Knot braids on 2 and 4-9 strands with random, all-positive or alternating signs.

    Alternating gives generator i the sign (-1)^(i+1), as in 1 -2 3 ...
    """
    braid = draw(st.one_of(knot_braids(min_strands=2, max_strands=2), knot_braids(min_strands=4, max_strands=9)))
    pattern = draw(st.sampled_from(("random", "positive", "alternating")))
    if pattern == "random":
        return braid
    return BraidWord(braid.strands, tuple(abs(l) if pattern == "positive" or l % 2 else -abs(l) for l in braid.letters))


FIGURE_EIGHT = BraidWord(3, (1, -2, 1, -2))


@given(patterned_knot_braids())
@example(LADDER.full_cycle(8))
@example(LADDER.torus(35))
@settings(max_examples=60, deadline=None)
def test_alexander_matches_bareiss_at_column_norm_width(braid):
    # alexander_from_braid packs det at the state bound where that is
    # narrower; bareiss_alexander keeps the column norms' width.
    assert alexander_from_braid(braid) == bareiss_alexander(braid)


def tait_graphs(braid):
    """Edge lists of the closure diagram's two Tait graphs, built region by region.

    A region is ("gap", g, j): gap 0 is the inner disk and gap n the
    outer region, one region each; gap g in between is cut into m_g
    segments by the letters on g, segment j running from its j-th letter
    on g to the next (the last one wraps around).  A letter on g touches
    the segments of gap g before and after it, an edge (a loop when m_g
    = 1) of the class of gap g's parity, and the regions of gaps g-1 and
    g+1 where it stands, an edge of the other class.
    """
    n = braid.strands
    gaps = [abs(l) for l in braid.letters]
    count = [1] + [gaps.count(g) for g in range(1, n)] + [1]
    seen = [0] * (n + 1)

    def region(g):
        return ("gap", g, 0) if g in (0, n) else ("gap", g, (seen[g] - 1) % count[g])

    edges = ([], [])
    for g in gaps:
        before = region(g)
        seen[g] += 1
        edges[g % 2].append((before, region(g)))
        edges[1 - g % 2].append((region(g - 1), region(g + 1)))
    return edges


def spanning_trees(edges):
    """Spanning trees of a multigraph by the matrix-tree theorem, loops dropped."""
    vertices = sorted({v for edge in edges for v in edge})
    index = {v: i for i, v in enumerate(vertices)}
    laplacian = [[Fraction(0)] * len(vertices) for _ in vertices]
    for u, v in edges:
        if u != v:
            i, j = index[u], index[v]
            laplacian[i][i] += 1
            laplacian[j][j] += 1
            laplacian[i][j] -= 1
            laplacian[j][i] -= 1
    minor = [row[1:] for row in laplacian[1:]]
    det = Fraction(1)
    for k in range(len(minor)):
        pivot = next((i for i in range(k, len(minor)) if minor[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            minor[k], minor[pivot] = minor[pivot], minor[k]
            det = -det
        det *= minor[k][k]
        for row in minor[k + 1 :]:
            factor = row[k] / minor[k][k]
            row[k:] = [a - factor * b for a, b in zip(row[k:], minor[k][k:])]
    return int(det)


def degree_product(edges):
    """The product of the degrees, loops dropped, with the largest left out."""
    degree = {}
    for u, v in edges:
        for w in (u, v):
            degree[w] = degree.get(w, 0) + (u != v)
    return math.prod(sorted(degree.values())[:-1])


@given(patterned_knot_braids())
@example(FIGURE_EIGHT)
@settings(max_examples=60, deadline=None)
def test_state_bound_holds_every_coefficient(braid):
    # sum |Delta_j| <= states = tau of either Tait graph <= the degree
    # product of the smaller class, which _state_bound computes.
    graphs = tait_graphs(braid)
    trees = [spanning_trees(edges) for edges in graphs]
    assert trees[0] == trees[1]
    assert sum(map(abs, alexander_from_braid(braid).coeffs)) <= trees[0]
    assert trees[0] <= _state_bound(braid) == min(map(degree_product, graphs))


# A short word whose state bound is computed in full (its letter counts
# give only 4) and still lands above the column norms' product.
STATES_ABOVE_NORMS = BraidWord(4, (1, 2, 3, 3, 2, 1, 3, 2, 1))


def test_state_bound_examples():
    # The figure eight: disk, outer region and the two segments of each
    # gap have degrees 2, 2, 3, 3, 3, 3; each class (2, 3, 3) gives 2 * 3.
    # It has 5 states, and Delta = 1 - 3t + t^2.
    assert _state_bound(FIGURE_EIGHT) == 6
    assert [spanning_trees(edges) for edges in tait_graphs(FIGURE_EIGHT)] == [5, 5]
    # Bit lengths of the state bound and of the column norms' product.
    for braid, bits in ((LADDER.torus(35), (216, 10)), (STATES_ABOVE_NORMS, (8, 6)), (LADDER.full_cycle(8), (58, 157))):
        matrix = burau_reduced(braid) - PolyMatrix.identity(braid.strands - 1)
        assert (_state_bound(braid).bit_length(), det_bound_and_base(matrix.rows)[0].bit_length()) == bits


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9, 21])
def test_state_bound_is_tight_on_two_strand_torus_knots(k):
    # sigma_1^k closes to T(2, k): disk and outer region joined by k
    # edges, k states, and Delta = 1 - t + ... + t^(k-1).
    braid = BraidWord(2, (1,) * k)
    assert _state_bound(braid) == k == sum(map(abs, alexander_from_braid(braid).coeffs))


def packed_bounds(braid):
    """The bounds ``alexander_from_braid`` fixes digit widths from, in call order."""
    bounds = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariants, "_digit_width", lambda bound: bounds.append(bound) or _digit_width(bound))
        alexander_from_braid(braid)
    return bounds


def test_det_width_is_the_column_norms_when_the_state_bound_is_wider():
    # On (1 2 ... 7)^35 the state bound has 216 bits and the column norms'
    # product 10; packing at the state bound would slow det hundreds of times.
    braid = LADDER.torus(35)
    matrix = burau_reduced(braid) - PolyMatrix.identity(7)
    assert packed_bounds(braid)[-1] == det_bound_and_base(matrix.rows)[0]


@given(patterned_knot_braids())
@example(STATES_ABOVE_NORMS)
@example(LADDER.full_cycle(8))
@example(LADDER.torus(35))
@settings(max_examples=60, deadline=None)
def test_det_packs_at_the_smaller_bound(braid):
    matrix = burau_reduced(braid) - PolyMatrix.identity(braid.strands - 1)
    column_norms = det_bound_and_base(matrix.rows)[0]
    entries = max(abs(c) for row in matrix.rows for p in row for c in p.coeffs)
    smaller = min(column_norms, max(_state_bound(braid), entries))
    assert matrix.det_bound(braid) == smaller
    assert packed_bounds(braid)[-1] == smaller


@given(patterned_knot_braids())
@example(BraidWord(5, (1, 2, 3, 4)))  # S = 1; each gap has one letter, and those count for nothing
@settings(max_examples=60, deadline=None)
def test_state_floor_is_below_the_state_bound(braid):
    assert _state_floor(braid) <= _state_bound(braid)


def test_state_floor_examples():
    # (1 2 ... 7)^35: 35 letters on each generator, 105 segments in the
    # even gaps 2, 4, 6 and 140 in the odd ones; far above the column
    # norms' 10 bits, so det_bound never scans the segments.
    assert _state_floor(LADDER.torus(35)) == 2**104
    assert _state_floor(STATES_ABOVE_NORMS) == 4  # 3 segments in gap 2
    assert _state_floor(BraidWord(2, (1,) * 5)) == 1  # the even class has no segments


def test_det_bound_takes_the_largest_entry_coefficient_past_the_states():
    # The formula min(product, max(S, largest entry coefficient)) on a
    # matrix that is not rho - I, so that an entry outgrows S = 3 of the
    # trefoil sigma_1^3: columns of norms 100 and 2.
    trefoil = BraidWord(2, (1, 1, 1))
    assert _state_bound(trefoil) == 3
    assert PolyMatrix(((poly(0, 100), ZERO), (ZERO, poly(0, 1, 1)))).det_bound(trefoil) == 100
    assert PolyMatrix(((poly(0, 2, -2), ZERO), (ZERO, poly(0, 1, 1)))).det_bound(trefoil) == 3
    assert PolyMatrix(((poly(0, 1), ZERO), (ZERO, poly(0, 1, 1)))).det_bound(trefoil) == 2


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


def crossing_matrix_alexander(braid):
    """Delta of the closure from Alexander's crossing matrix (Trans. AMS 30, 1928).

    The under visits of the walked word cut the knot into arcs, one per
    crossing: arc j ends at the j-th under visit.  Each crossing gives a
    row with 1 - t on its over-arc and t and -1 on the under-arcs that
    enter and leave it, in that order for a positive crossing and
    swapped for a negative one.  Delete the first row and column and
    take the Leibniz determinant: no Burau matrix and no
    ``PolyMatrix.det``.
    """
    word, crossings = closure_diagram(braid, insert_vertices=False)
    arc, unders = [], 0
    for visit in word:
        arc.append(unders % len(crossings))
        unders += visit.role is Role.UNDER
    rows = []
    for crossing in crossings:
        row = [ZERO] * len(crossings)
        entering = arc[word.index(Visit(crossing.site, Role.UNDER))]
        leaving = (entering + 1) % len(crossings)
        row[arc[word.index(Visit(crossing.site, Role.OVER))]] += ONE - T
        row[entering] += T if crossing.sign > 0 else -ONE
        row[leaving] += -ONE if crossing.sign > 0 else T
        rows.append(row)
    return normalize_alexander(leibniz_det([row[1:] for row in rows[1:]]))


def test_crossing_matrix_oracle_on_known_knots():
    assert crossing_matrix_alexander(BraidWord(2, (1, 1, 1))) == poly(0, 1, -1, 1)
    assert crossing_matrix_alexander(BraidWord(3, (1, -2, 1, -2))) == poly(0, 1, -3, 1)
    assert crossing_matrix_alexander(BRAID_818) == poly(0, 1, -5, 10, -13, 10, -5, 1)


@given(knot_braids(max_strands=5, max_letters=7))
@settings(max_examples=60)
def test_alexander_matches_crossing_matrix(braid):
    assert alexander_from_braid(braid) == crossing_matrix_alexander(braid)


def test_alexander_rejects_links():
    with pytest.raises(NotAKnotError):
        alexander_from_braid(BraidWord(2, (1, 1)))
