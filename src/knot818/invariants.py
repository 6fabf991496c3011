"""Knot invariants of braid closures, computed exactly.

The Alexander polynomial comes from the reduced Burau representation:
for a braid b on n strands whose closure is a knot,

    det(rho(b) - I) = Delta(t) * (1 - t^n) / (1 - t)

up to a unit, so the quotient is formed exactly in the integer Laurent
ring and then normalized to minimum exponent 0 with positive constant
term.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, NamedTuple

from .braid import BraidWord, require_knot_closure
from .laurent import ONE, InexactDivisionError, LaurentPoly, T, _digit_width, _pack, _unpack


class ZeroPolynomialError(ValueError):
    """Normalization target has no nonzero coefficient."""


class PolyMatrix(NamedTuple("PolyMatrix", [("rows", tuple[tuple[LaurentPoly, ...], ...])])):
    """Square matrix over the integer Laurent ring."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[LaurentPoly, ...], ...]) -> "PolyMatrix":
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        return super().__new__(cls, rows)

    @classmethod  # so that _replace, too, builds through __new__
    def _make(cls, fields: Iterable) -> "PolyMatrix":
        return cls(*fields)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, dim: int) -> "PolyMatrix":
        return cls(
            tuple(
                tuple(ONE if i == j else LaurentPoly() for j in range(dim))
                for i in range(dim)
            )
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return PolyMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def det(self) -> LaurentPoly:
        """Bareiss fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on integers.

        Each entry p is packed as the integer p(B) / B^lo, at B = 2^(8*width)
        and lo the least exponent in the matrix (``laurent._pack``); that is a
        ring map, so the integer determinant is det(B) / B^(n*lo).  The product
        of the column L1 norms bounds the coefficients of every minor, so at a
        width that holds it a minor is zero exactly when its integer is, and
        the result unpacks digit by digit.  Step k sets each entry below and
        right of the pivot to (pivot * a[i][j] - a[i][k] * a[k][j]) // previous
        pivot, exact by Sylvester's identity; a remainder raises
        ``InexactDivisionError``.  A zero pivot is swapped with the first lower
        row nonzero in its column, flipping the sign; with none, or with a zero
        column, the determinant is zero.
        """
        n = self.dim
        if n == 0:
            return ONE
        bound = prod(sum(abs(c) for p in col for c in p.coeffs) for col in zip(*self.rows))
        if not bound:
            return LaurentPoly()
        lo = min(p.min_exp for row in self.rows for p in row if p.coeffs)
        width = _digit_width(bound)
        bits = 8 * width
        a = [[_pack(p.coeffs, width) << (p.min_exp - lo) * bits if p.coeffs else 0 for p in row] for row in self.rows]
        negate = False
        prev = 1
        for k in range(n - 1):
            if not a[k][k]:
                swap = next((i for i in range(k + 1, n) if a[i][k]), None)
                if swap is None:
                    return LaurentPoly()
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
        x = -a[-1][-1] if negate else a[-1][-1]
        return LaurentPoly(n * lo, tuple(_unpack(x, abs(x).bit_length() // bits + 1, width)))


# Letters between two trims of the packed Burau entries (see burau_reduced).
_TRIM_EVERY = 64


def burau_reduced(braid: BraidWord) -> PolyMatrix:
    """Reduced Burau matrix of the whole word (identity for the empty word).

    The image of generator i differs from the identity in row i-1 only,
    where it holds t, -t, 1 at columns i-2, i-1, i (0-based; the inverse
    holds 1, -t^-1, t^-1).  Right-multiplying by it therefore rewrites at
    most those three columns of the product, each from column i-1 by a
    shift, a negation and an addition, with no polynomial product.

    Entries are carried as ``(min_exp, x)`` with the coefficients packed
    into x as signed base-2^(8*width) digits (``laurent._pack``), so a
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

    def trim(e: int, x: int) -> tuple[int, int]:
        if not x:
            return 0, 0
        zeros = ((x & -x).bit_length() - 1) // k
        return e + zeros, x >> zeros * k

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
            cols = [[trim(e, x) for e, x in col] for col in cols]

    def unpacked(e: int, x: int) -> LaurentPoly:
        # With every digit under half a base, the top one is digit bit_length // k.
        return LaurentPoly(e, tuple(_unpack(x, abs(x).bit_length() // k + 1, width)))

    return PolyMatrix(tuple(tuple(unpacked(e, x) for e, x in row) for row in zip(*cols)))


def normalize_alexander(poly: LaurentPoly) -> LaurentPoly:
    """Strip the unit ambiguity: minimum exponent 0, positive constant term."""
    if poly.is_zero:
        raise ZeroPolynomialError("cannot normalize the zero polynomial")
    shifted = poly.shifted(-poly.min_exp)
    if shifted.coeff(0) < 0:
        shifted = -shifted
    return shifted


def alexander_from_braid(braid: BraidWord) -> LaurentPoly:
    """Normalized Alexander polynomial of the closure (a knot)."""
    require_knot_closure(braid)
    mat = burau_reduced(braid) - PolyMatrix.identity(braid.strands - 1)
    numerator = mat.det() * (ONE - T)
    denominator = ONE - T ** braid.strands
    return normalize_alexander(numerator.exact_div(denominator))
