"""Exact Laurent polynomials over the integers.

Small self-contained ring used by the invariant computations, where
exactness matters more than speed: coefficients are Python ints, the
variable may carry negative exponents, and division is only permitted
when it is exact.

A polynomial is stored in canonical trimmed form: ``coeffs[k]``
multiplies ``t**(min_exp + k)``, the first and last coefficients are
nonzero, and the zero polynomial is ``(min_exp=0, coeffs=())``.  Two
equal polynomials therefore compare equal as dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union


class InexactDivisionError(ArithmeticError):
    """Quotient would leave a remainder or a fractional coefficient."""


class ZeroArgumentError(ValueError):
    """Evaluation point 0 is outside the Laurent domain."""


Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class LaurentPoly:
    min_exp: int = 0
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        lo = 0
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        if lo == hi:
            object.__setattr__(self, "min_exp", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "min_exp", self.min_exp + lo)
            object.__setattr__(self, "coeffs", coeffs[lo:hi])

    # -- constructors ------------------------------------------------

    @classmethod
    def from_dict(cls, terms: Mapping[int, int]) -> "LaurentPoly":
        if not terms:
            return cls()
        lo = min(terms)
        hi = max(terms)
        return cls(lo, tuple(terms.get(e, 0) for e in range(lo, hi + 1)))

    @classmethod
    def t_power(cls, k: int) -> "LaurentPoly":
        return cls(k, (1,))

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.min_exp + len(self.coeffs) - 1

    def coeff(self, exp: int) -> int:
        k = exp - self.min_exp
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, ascending, zero terms omitted."""
        return [
            (self.min_exp + k, c)
            for k, c in enumerate(self.coeffs)
            if c != 0
        ]

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        out = [0] * (hi - lo + 1)
        for k, c in enumerate(self.coeffs):
            out[self.min_exp + k - lo] += c
        for k, c in enumerate(other.coeffs):
            out[other.min_exp + k - lo] += c
        return LaurentPoly(lo, tuple(out))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        if min(len(self.coeffs), len(other.coeffs)) >= _KRONECKER_MIN_LEN:
            out = _kronecker_product(self.coeffs, other.coeffs)
        else:
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return LaurentPoly(self.min_exp + other.min_exp, tuple(out))

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers only exist for monomials; use t_power")
        result = LaurentPoly(0, (1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scaled(self, factor: int) -> "LaurentPoly":
        return LaurentPoly(self.min_exp, tuple(factor * c for c in self.coeffs))

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        return LaurentPoly(self.min_exp + k, self.coeffs)

    def subs_inverse(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        if self.is_zero:
            return self
        return LaurentPoly(-self.max_exp, tuple(reversed(self.coeffs)))

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

    def evaluate(self, t0: Scalar) -> Fraction:
        """Exact value at a nonzero rational point."""
        x = Fraction(t0)
        if x == 0:
            raise ZeroArgumentError("cannot evaluate at t = 0")
        total = Fraction(0)
        for exp, c in self.terms():
            total += c * x ** exp
        return total

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


# Shorter operands multiply faster by the schoolbook loop than by packing.
_KRONECKER_MIN_LEN = 10


def _kronecker_product(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Product coefficients by Kronecker substitution.

    Both operands are evaluated at t = 2^k, with k so large that every
    product coefficient c has |c| < 2^(k-1), and multiplied as two
    integers.  Adding 2^(k-1) to every base-2^k digit of the result
    makes each digit nonnegative without carries, so the coefficients
    read back digit by digit.
    """
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = bound.bit_length() // 8 + 1  # bytes per digit
    k = 8 * width
    x = 0
    for c in reversed(a):
        x = (x << k) + c
    y = 0
    for c in reversed(b):
        y = (y << k) + c
    n = len(a) + len(b) - 1
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    digits = (x * y + bias).to_bytes(width * n, "little")
    half = 1 << (k - 1)
    return [int.from_bytes(digits[i : i + width], "little") - half for i in range(0, width * n, width)]


ZERO = LaurentPoly()
ONE = LaurentPoly(0, (1,))
T = LaurentPoly(1, (1,))
