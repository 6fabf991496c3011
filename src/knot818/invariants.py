"""Knot invariants of braid closures, computed exactly.

The Alexander polynomial comes from the reduced Burau representation:
for a braid b on n strands whose closure is a knot,

    det(rho(b) - I) = Delta(t) * (1 - t^n) / (1 - t)

up to a unit, so the quotient is formed exactly in the integer Laurent
ring and then normalized to minimum exponent 0 with positive constant
term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, require_knot_closure
from .laurent import ONE, LaurentPoly, T


class ZeroPolynomialError(ValueError):
    """Normalization target has no nonzero coefficient."""


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix over the integer Laurent ring."""

    rows: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self) -> None:
        dim = len(self.rows)
        if any(len(row) != dim for row in self.rows):
            raise ValueError("matrix must be square")

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

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = self.dim
        return PolyMatrix(
            tuple(
                tuple(
                    sum(
                        (self.rows[i][k] * other.rows[k][j] for k in range(n)),
                        LaurentPoly(),
                    )
                    for j in range(n)
                )
                for i in range(n)
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
        """Bareiss fraction-free elimination (Bareiss, Math. Comp. 22, 1968).

        Step k replaces each entry below and right of the pivot by
        (pivot * a[i][j] - a[i][k] * a[k][j]) / previous pivot.  Sylvester's
        identity makes that division exact; ``exact_div`` raises rather
        than return a wrong value if it is not.  A zero pivot is swapped
        with the first lower row that is nonzero in its column, flipping
        the sign; when there is none the determinant is zero.
        """
        n = self.dim
        if n == 0:
            return ONE
        a = [list(row) for row in self.rows]
        negate = False
        prev = ONE
        for k in range(n - 1):
            if a[k][k].is_zero:
                swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero), None)
                if swap is None:
                    return LaurentPoly()
                a[k], a[swap] = a[swap], a[k]
                negate = not negate
            pivot, pivot_row = a[k][k], a[k]
            for row in a[k + 1 :]:
                head = row[k]
                for j in range(k + 1, n):
                    row[j] = (pivot * row[j] - head * pivot_row[j]).exact_div(prev)
            prev = pivot
        return -a[-1][-1] if negate else a[-1][-1]


def burau_reduced(braid: BraidWord) -> PolyMatrix:
    """Reduced Burau matrix of the whole word (identity for the empty word).

    The image of generator i differs from the identity in row i-1 only,
    where it holds t, -t, 1 at columns i-2, i-1, i (0-based; the inverse
    holds 1, -t^-1, t^-1).  Right-multiplying by it therefore rewrites at
    most those three columns of the product, each from column i-1 by a
    shift, a negation and an addition, with no polynomial product.
    """
    dim = braid.strands - 1
    cols = [list(col) for col in PolyMatrix.identity(dim).rows]  # symmetric
    for letter in braid.letters:
        r = abs(letter) - 1
        pivot = cols[r]
        left, right = (1, 0) if letter > 0 else (0, -1)
        if r > 0:
            cols[r - 1] = [a + p.shifted(left) for a, p in zip(cols[r - 1], pivot)]
        if r + 1 < dim:
            cols[r + 1] = [a + p.shifted(right) for a, p in zip(cols[r + 1], pivot)]
        cols[r] = [-p.shifted(left + right) for p in pivot]
    return PolyMatrix(tuple(zip(*cols)))


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
