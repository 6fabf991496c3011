"""Knot invariants of braid closures, computed exactly.

The Alexander polynomial comes from the reduced Burau representation:
for a braid b on n strands whose closure is a knot,

    det(rho(b) - I) = Delta(t) * (1 + t + ... + t^(n-1))

up to a unit (Burau 1936, cited below), so one exact division in the
integer Laurent ring gives Delta, which is then normalized to minimum
exponent 0 with positive constant term.

Each generator's image has determinant -t^(+-1), so det rho(b) is the
monomial (-1)^L t^e for L letters of exponent sum e.  On three strands
rho is 2x2, and det(rho - I) = det rho - tr rho + 1 (Burau, Abh. Math.
Sem. Hamburg 11, 1936; Birman, *Braids, Links, and Mapping Class
Groups*, 1974) needs no elimination; on any other strand count
:meth:`PolyMatrix.det` takes it.

The Burau walk and the determinant carry long polynomials as integers
packed by :func:`_pack` (Kronecker substitution): the walk at one base
B, the determinant even and odd coefficients apart at B^2.  The
determinant's digit must hold every coefficient of the entries and of
det(rho - I).  A product of column norms bounds them for any matrix;
for rho - I so does the larger of the largest column norm and a count
of Kauffman states (:func:`_state_bound`), often far lower, and
:func:`alexander_from_braid` packs at the smaller of the two.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import prod

from .braid import BraidWord, require_knot_closure
from .laurent import ONE, InexactDivisionError, LaurentPoly


class ZeroPolynomialError(ValueError):
    """Normalization target has no nonzero coefficient."""


def _bias(count: int, width: int) -> int:
    # 2^(8*width - 1) in each of ``count`` base-2^(8*width) digits
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _digit_width(bound: int) -> int:
    """Fewest bytes per digit that hold every c with |c| <= bound."""
    return bound.bit_length() // 8 + 1


def _pack(coeffs: Sequence[int], width: int) -> int:
    """Evaluate ``sum(c * B**i)`` at B = 2^(8*width) in one pass.

    Every coefficient needs -2^(8*width - 1) <= c < 2^(8*width - 1):
    biased by that half it becomes one unsigned ``width``-byte digit, the
    digits are joined and read as one integer, and the bias of all digits
    is taken back off.
    """
    half = 1 << (8 * width - 1)
    digits = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
    return int.from_bytes(digits, "little") - _bias(len(coeffs), width)


def _unpack(x: int, width: int) -> list[int]:
    """Inverse of :func:`_pack`: the signed base-2^(8*width) digits of ``x``.

    Exact when ``x`` is ``sum(c * B**i)`` with |c| < B/2 for every c
    (as :func:`_digit_width` makes it), except that the top one may be
    -B/2: adding the bias then makes every digit nonnegative without
    carries, and ``bit_length // (8 * width) + 1`` digits reach the top
    one, so the list may end in zeros.
    """
    count = abs(x).bit_length() // (8 * width) + 1
    half = 1 << (8 * width - 1)
    digits = (x + _bias(count, width)).to_bytes(width * count, "little")
    return [int.from_bytes(digits[i : i + width], "little") - half for i in range(0, width * count, width)]


class PolyMatrix(namedtuple("PolyMatrix", "rows")):
    """Square matrix over the integer Laurent ring: a tuple of rows, each a tuple of :class:`LaurentPoly`."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[LaurentPoly, ...], ...]) -> "PolyMatrix":
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        return super().__new__(cls, rows)

    @classmethod  # so that _replace, too, builds through __new__
    def _make(cls, fields: Iterable) -> "PolyMatrix":
        return cls(*fields)

    @classmethod
    def identity(cls, dim: int) -> "PolyMatrix":
        return cls(
            tuple(
                tuple(ONE if i == j else LaurentPoly() for j in range(dim))
                for i in range(dim)
            )
        )

    # tuple's + and * would concatenate or repeat the rows
    def __add__(self, other: object):
        raise TypeError(f"unsupported operand type(s) for +: 'PolyMatrix' and {type(other).__name__!r}")

    def __radd__(self, other: object):
        raise TypeError(f"unsupported operand type(s) for +: {type(other).__name__!r} and 'PolyMatrix'")

    def __mul__(self, other: object):
        raise TypeError(f"unsupported operand type(s) for *: 'PolyMatrix' and {type(other).__name__!r}")

    def __rmul__(self, other: object):
        raise TypeError(f"unsupported operand type(s) for *: {type(other).__name__!r} and 'PolyMatrix'")

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if len(self.rows) != len(other.rows):
            raise ValueError("dimension mismatch")
        return PolyMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def det_bound(self, closure: BraidWord | None = None) -> int:
        """A bound on every coefficient of the determinant and of every entry.

        Without ``closure`` it is the product of the column L1 norms, which
        bounds every coefficient of the determinant of any matrix and,
        each column norm being at least 1 unless the product is 0, every
        coefficient of every entry too.

        ``closure``, given only when the matrix is rho - I of that
        knot-closure braid, brings in a bound S on the closure's number of
        Kauffman states (:func:`_state_bound`).  Every coefficient of
        det(rho - I) is at most sum |Delta_j|, which is at most the number
        of states, and the largest column norm bounds every entry's
        coefficients, so max(S, largest column norm) is a bound too, and
        the smaller of the two is returned.  The ``min`` matters both
        ways: on full-cycle words such as (1 -2 3 -4 5 -6 7)^9, S has 58
        bits and the product 157, while on the torus word (1 2 ... 7)^35
        S has 216 bits and the product 10.
        """
        norms = [sum(abs(c) for p in col for c in p.coeffs) for col in zip(*self.rows)]
        if closure is None:
            return prod(norms)
        return min(prod(norms), max(_state_bound(closure), *norms))

    def det(self, closure: BraidWord | None = None) -> LaurentPoly:
        """Determinant by Bareiss elimination on integers at t = B and t = -B.

        With lo the least exponent in the matrix, t^-lo * p is a polynomial
        for each entry p, and its value at +-B is E(B^2) +- B * O(B^2) for
        its even and odd parts E and O, each packed with :func:`_pack`
        at base B^2.  Since t -> +-B is a ring map, the integer
        determinants of the two evaluated matrices are Q(B) and Q(-B),
        where Q = t^(-n*lo) det.  Then (Q(B) + Q(-B)) / 2 = Q_even(B^2)
        and (Q(B) - Q(-B)) / 2B = Q_odd(B^2), which unpack at base B^2
        into the even and odd coefficients of Q.  This is exact when
        B^2 / 2 exceeds :meth:`det_bound`, and B^2 = 2^(8 * width) for
        the fewest bytes that make it so, since that bound holds every
        coefficient of the determinant and of every entry: every packed
        digit fits.  Nothing else needs the width: integer Bareiss
        (``_bareiss``) is exact on any integer matrix, so Q(B) or Q(-B)
        may be 0 while Q is not (Q = t - B vanishes at +B only).
        ``closure`` is passed on to :meth:`det_bound`.
        """
        n = len(self.rows)
        if n == 0:
            return ONE
        bound = self.det_bound(closure)
        if not bound:
            return LaurentPoly()
        lo = min(p.min_exp for row in self.rows for p in row if p.coeffs)
        width = _digit_width(bound)  # bytes per digit at base B^2
        bits = 8 * width  # B^2 = 2^bits

        def at_both_signs(p: LaurentPoly) -> tuple[int, int]:
            """``t^-lo * p`` at t = B and at t = -B."""
            if not p.coeffs:
                return 0, 0
            s = p.min_exp - lo
            e = s % 2  # coeffs[e::2] sit at the even exponents of t^-lo * p
            even = _pack(p.coeffs[e::2], width) << (s + e) // 2 * bits
            odd = _pack(p.coeffs[1 - e :: 2], width) << s // 2 * bits + bits // 2
            return even + odd, even - odd

        values = [[at_both_signs(p) for p in row] for row in self.rows]
        q_plus = _bareiss([[v[0] for v in row] for row in values])
        q_minus = _bareiss([[v[1] for v in row] for row in values])
        evens = _unpack((q_plus + q_minus) >> 1, width)
        odds = _unpack((q_plus - q_minus) >> bits // 2 + 1, width)
        coeffs = [0] * (2 * max(len(evens), len(odds)))
        coeffs[0 : 2 * len(evens) : 2] = evens
        coeffs[1 : 2 * len(odds) : 2] = odds
        return LaurentPoly(n * lo, coeffs)


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of a nonempty square integer matrix, which it overwrites.

    Bareiss fraction-free elimination (Bareiss, Math. Comp. 22, 1968): step
    k sets each entry below and right of the pivot to (pivot * a[i][j] -
    a[i][k] * a[k][j]) // previous pivot, exact by Sylvester's identity; a
    remainder raises ``InexactDivisionError``.  A zero pivot is swapped
    with the first lower row nonzero in its column, flipping the sign;
    with none the determinant is 0.
    """
    n = len(a)
    negate = False
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            negate = not negate
        pivot, pivot_row = a[k][k], a[k]
        for row in a[k + 1 :]:
            head = row[k]
            for j in range(k + 1, n):
                row[j], rem = divmod(pivot * row[j] - head * pivot_row[j], prev)
                if rem:
                    raise InexactDivisionError("Bareiss step left a remainder")
        prev = pivot
    return -a[-1][-1] if negate else a[-1][-1]


# Letters between two trims of the packed Burau entries (see burau_reduced).
_TRIM_EVERY = 64


def _trim(e: int, x: int, k: int) -> tuple[int, int]:
    """A packed entry ``(min_exp, x)`` of k-bit digits with its zero low digits shed into min_exp."""
    if not x:
        return 0, 0
    zeros = ((x & -x).bit_length() - 1) // k
    return e + zeros, x >> zeros * k


def burau_reduced(braid: BraidWord) -> PolyMatrix:
    """Reduced Burau matrix of the whole word (identity for the empty word).

    The image of generator i differs from the identity in row i-1 only,
    where it holds t, -t, 1 at columns i-2, i-1, i (0-based; the inverse
    holds 1, -t^-1, t^-1).  Right-multiplying by it therefore rewrites at
    most those three columns of the product, each from column i-1 by a
    shift, a negation and an addition, with no polynomial product.

    Entries are carried as ``(min_exp, x)`` with the coefficients packed
    into x as signed base-2^(8*width) digits (:func:`_pack`), so a
    shift moves min_exp, a negation is -x and an addition is one aligning
    left shift and one integer sum.  The digit width is fixed up front by
    a bound: with L1 the sum of |coefficients|, every entry of column j
    has L1 at most bound[j], where bound starts at all ones and each
    letter adds bound[i-1] into its two neighbours, as the update adds
    column i-1 into them.  The bound never decreases, so its final
    maximum bounds every coefficient of every intermediate entry.

    Cancellation can zero the low digits of a sum; every
    ``_TRIM_EVERY`` letters each entry sheds its zero low digits into
    min_exp, or the dead digits would ride along in every later sum.
    """
    dim = braid.strands - 1
    bound = [1] * dim
    for letter in braid.letters:
        r = abs(letter) - 1
        if r > 0:
            bound[r - 1] += bound[r]
        if r + 1 < dim:
            bound[r + 1] += bound[r]
    width = _digit_width(max(bound))
    k = 8 * width

    def plus(a: tuple[int, int], e: int, x: int) -> tuple[int, int]:
        ea, xa = a
        if not x:
            return a
        if not xa:
            return e, x
        if ea <= e:
            return ea, xa + (x << (e - ea) * k)
        return e, x + (xa << (ea - e) * k)

    cols = [[(0, int(i == j)) for i in range(dim)] for j in range(dim)]
    for n, letter in enumerate(braid.letters, 1):
        r = abs(letter) - 1
        pivot = cols[r]
        left, right = (1, 0) if letter > 0 else (0, -1)
        if r > 0:
            cols[r - 1] = [plus(a, e + left, x) for a, (e, x) in zip(cols[r - 1], pivot)]
        if r + 1 < dim:
            cols[r + 1] = [plus(a, e + right, x) for a, (e, x) in zip(cols[r + 1], pivot)]
        cols[r] = [(e + left + right, -x) for e, x in pivot]
        if n % _TRIM_EVERY == 0:
            cols = [[_trim(e, x, k) for e, x in col] for col in cols]

    return PolyMatrix(tuple(tuple(LaurentPoly(e, _unpack(x, width)) for e, x in row) for row in zip(*cols)))


def normalize_alexander(poly: LaurentPoly) -> LaurentPoly:
    """Strip the unit ambiguity: minimum exponent 0, positive constant term."""
    if poly.is_zero:
        raise ZeroPolynomialError("cannot normalize the zero polynomial")
    shifted = poly.shifted(-poly.min_exp)
    if shifted.coeffs[0] < 0:
        shifted = -shifted
    return shifted


def _state_bound(braid: BraidWord) -> int:
    """A bound S on every coefficient of det(rho - I) for a knot closure.

    The chain of bounds:

    - det(rho - I) = +-t^k * Delta * (1 + t + ... + t^(n-1)) (Burau 1936),
      and each coefficient of that product sums n consecutive ones of
      Delta, so it is at most sum |Delta_j|;
    - Delta is a sum of one +-monomial per state of the closure diagram
      (Kauffman, *Formal Knot Theory*, 1983), so sum |Delta_j| is at most
      the number of states, which equals the number tau of spanning
      trees of the diagram's Tait (checkerboard) graph, of either class;
    - tau <= prod(deg v for v != root) for any root vertex and degrees
      without loops: pointing each tree at the root picks one edge out of
      every other vertex, and the picks determine the tree.

    The closure of a word on n strands has these regions, as vertices:
    the inner disk, of degree m_1 (the letters on generator 1); the outer
    region, of degree m_(n-1); and for each gap g between positions g and
    g+1, the m_g segments that the letters on g cut the gap into.  A
    segment meets the letters on g at its two ends (degree 2 when m_g >= 2;
    with m_g = 1 that letter is a loop, degree 0), and each letter on
    g-1 or g+1 inside its span joins it to a region two gaps away.  The
    disk is gap 0 and the outer region gap n, and a class is the gaps of
    one parity.  S is the smaller, over the two classes, of the product
    of the class's degrees with its largest left out as the root.  A knot
    closure uses every generator, so every degree in a class of two or
    more vertices is at least 1.
    """
    n = braid.strands
    word = "".join(map(chr, map(abs, braid.letters)))
    degrees = [[word.count(chr(1))], []]
    degrees[n % 2].append(word.count(chr(n - 1)))
    near: list[str | None] = [None] * (n + 1)  # str.translate deletes what maps to None
    for g in range(1, n):
        near[g - 1 : g + 2] = ".|."
        # the letters on g-1 and g+1 between consecutive letters on g
        head, *inner, tail = word.translate(near).split("|")
        own = 2 if inner else 0
        degrees[g % 2] += [own + len(span) for span in inner]
        degrees[g % 2].append(own + len(head) + len(tail))  # the segment that wraps around
        near[g - 1 : g + 2] = None, None, None
    return min(prod(sorted(d)[:-1]) for d in degrees)


def alexander_from_braid(braid: BraidWord) -> LaurentPoly:
    """Normalized Alexander polynomial of the closure (a knot).

    On three strands det(rho - I) is det rho - tr rho + 1, with det rho =
    (-1)^L t^e (Burau 1936; Birman 1974; see the module docstring), so
    no determinant is eliminated.  On any other strand count
    :meth:`PolyMatrix.det` eliminates rho - I, given the braid so that
    it packs at the smaller of the column norms' product and max(state
    bound, largest column norm).  Either way one exact division by
    1 + t + ... + t^(n-1) leaves Delta.
    """
    require_knot_closure(braid)
    rho = burau_reduced(braid)
    if braid.strands == 3:
        det = LaurentPoly(braid.exponent_sum, ((-1) ** len(braid),)) - (rho.rows[0][0] + rho.rows[1][1]) + ONE
    else:
        det = (rho - PolyMatrix.identity(braid.strands - 1)).det(braid)
    return normalize_alexander(det.exact_div(LaurentPoly(0, (1,) * braid.strands)))
