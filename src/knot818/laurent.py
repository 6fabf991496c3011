"""Exact Laurent polynomials over the integers.

Small self-contained ring used by the invariant computations, where
exactness matters more than speed: coefficients are Python ints, the
variable may carry negative exponents, and division is only permitted
when it is exact.

A polynomial is stored in canonical trimmed form: ``coeffs[k]``
multiplies ``t**(min_exp + k)``, the first and last coefficients are
nonzero, and the zero polynomial is ``(min_exp=0, coeffs=())``.  The
constructor trims, so two equal polynomials are equal tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union


class InexactDivisionError(ArithmeticError):
    """Quotient would leave a remainder or a fractional coefficient."""


class ZeroArgumentError(ValueError):
    """Evaluation point 0 is outside the Laurent domain."""


class LaurentPoly(NamedTuple("LaurentPoly", [("min_exp", int), ("coeffs", tuple[int, ...])])):
    __slots__ = ()

    def __new__(cls, min_exp: int = 0, coeffs: Sequence[int] = ()) -> "LaurentPoly":
        coeffs = tuple(coeffs)
        lo = 0
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        if lo == hi:
            return super().__new__(cls, 0, ())
        return super().__new__(cls, min_exp + lo, coeffs[lo:hi])

    @classmethod  # so that _replace, too, builds through __new__
    def _make(cls, fields: Iterable) -> "LaurentPoly":
        return cls(*fields)

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, ascending, zero terms omitted."""
        return [
            (self.min_exp + k, c)
            for k, c in enumerate(self.coeffs)
            if c != 0
        ]

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented  # a TypeError, never tuple concatenation
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_exp, other.min_exp)
        out = [0] * (max(self.min_exp + len(self.coeffs), other.min_exp + len(other.coeffs)) - lo)
        for k, c in enumerate(self.coeffs):
            out[self.min_exp + k - lo] += c
        for k, c in enumerate(other.coeffs):
            out[other.min_exp + k - lo] += c
        return LaurentPoly(lo, tuple(out))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.min_exp, tuple(-c for c in self.coeffs))

    def __radd__(self, other: object) -> "LaurentPoly":
        # returning NotImplemented would fall through to tuple concatenation
        raise TypeError(f"unsupported operand type(s) for +: {type(other).__name__!r} and 'LaurentPoly'")

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented  # a TypeError, never tuple repetition
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentPoly(self.min_exp + other.min_exp, tuple(out))

    def __rmul__(self, other: object) -> "LaurentPoly":
        # without it, int * poly would repeat the tuple
        return NotImplemented

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers only exist for monomials; use shifted")
        result = LaurentPoly(0, (1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        return LaurentPoly(self.min_exp + k, self.coeffs)

    def exact_div(self, den: "LaurentPoly") -> "LaurentPoly":
        """Divide, requiring a remainder-free integer quotient.

        Raises InexactDivisionError when the denominator does not divide
        the numerator in the integer Laurent ring.
        """
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly()
        num_c = list(self.coeffs)
        den_c = den.coeffs
        q_len = len(num_c) - len(den_c) + 1
        if q_len <= 0:
            raise InexactDivisionError(f"({self}) is not divisible by ({den})")
        lead = den_c[-1]
        quot = [0] * q_len
        for i in range(q_len - 1, -1, -1):
            top = num_c[i + len(den_c) - 1]
            if top % lead != 0:
                raise InexactDivisionError(f"({self}) is not divisible by ({den})")
            q = top // lead
            quot[i] = q
            if q != 0:
                for j, d in enumerate(den_c):
                    num_c[i + j] -= q * d
        if any(num_c):
            raise InexactDivisionError(f"({self}) is not divisible by ({den})")
        return LaurentPoly(self.min_exp - den.min_exp, tuple(quot))

    # -- evaluation and display ----------------------------------------

    def evaluate(self, t0: Union[int, Fraction]) -> Fraction:
        """Exact value at a nonzero rational point.

        With t0 = p/q, Horner's rule runs on integers: the numerator
        sums c_k * p^k * q^(deg - k), and one Fraction takes q^deg.
        """
        x = Fraction(t0)
        if x == 0:
            raise ZeroArgumentError("cannot evaluate at t = 0")
        if self.is_zero:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        num, qk = 0, 1
        for c in reversed(self.coeffs):
            num = num * p + c * qk
            qk *= q
        return Fraction(num, q ** (len(self.coeffs) - 1)) * x ** self.min_exp

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for exp, c in self.terms():
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                name = "t" if exp == 1 else f"t^{exp}"
                body = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


ONE = LaurentPoly(0, (1,))
T = LaurentPoly(1, (1,))
