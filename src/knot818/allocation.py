"""Per-site allocation totals and the defect structure they expose.

Summing the values a traversal assigns at each site (over plus under at
shoulders, the single through value at branch centers) always spends the
same budget, 210 per table, but the split across the four sites of a
class is uneven for any single table.  The defect report makes that
precise with exact rationals: per class, the mean, the largest absolute
deviation from it, and a mismatch flag.  The rationals are two-integer
records in lowest terms, so the report needs no ``fractions``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import copysign, gcd, inf
from operator import add
from sys import hash_info

from .diagram import CLASS_SITES, LETTER_SITES
from .errors import DomainError, Record
from .traversal import StateEnsemble, TraversalTable


class IncompleteAllocationError(DomainError, ValueError):
    """An allocation holds other than twelve site totals."""


class SiteAllocation(Record, namedtuple("SiteAllocation", "source totals")):
    """Integer totals of the twelve sites in A..L order, tagged with their source."""

    __slots__ = ()

    @property
    def grand_total(self) -> int:
        return sum(self.totals)


# Builds a record that has no __new__ of its own from its fields, without a Python-level call.
_new = tuple.__new__


def _summed(source: str, sums: Sequence[int]) -> SiteAllocation:
    """The allocation of twenty per-key sums in :data:`TABLE_KEYS` order: each
    shoulder's adjacent over and under slots added, then the through slots."""
    return _new(SiteAllocation, (source, (*map(add, sums[0:16:2], sums[1:16:2]), *sums[16:])))


def site_totals(table: TraversalTable) -> SiteAllocation:
    """Allocation of one table: over+under per shoulder, through per branch."""
    return _summed(table.describe(), table.values)


def ensemble_totals(ensemble: StateEnsemble) -> SiteAllocation:
    """Site totals summed over every table of the ensemble."""
    return _summed(ensemble.label, tuple(map(sum, zip(*(table.values for table in ensemble.tables)))))


class Ratio(Record, namedtuple("Ratio", "numerator denominator")):
    """An exact rational ``numerator/denominator`` in lowest terms, its denominator positive.

    :func:`defect_report` builds it reduced.  It prints as a ``Fraction``
    prints (``22``, ``17/2``, ``-3/2``), equals the int or ``Fraction`` of
    the same value and hashes as they do, but equals no plain tuple.  It has
    no arithmetic and no order.
    """

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = Record._unordered

    def __str__(self) -> str:
        numerator, denominator = self
        return f"{numerator}/{denominator}" if denominator != 1 else str(numerator)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, tuple):
            return isinstance(other, Ratio) and tuple.__eq__(self, other)
        try:  # an int or a Fraction, by its lowest terms
            return self.numerator == other.numerator and self.denominator == other.denominator
        except AttributeError:
            return NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        # Python's hash of a rational p/q: that of the integer p * q**-1
        # modulo the hash modulus, or of a signed infinity when q has no inverse.
        numerator, denominator = self
        if denominator % hash_info.modulus == 0:
            return hash(copysign(inf, numerator))
        return hash(numerator * pow(denominator, -1, hash_info.modulus))


class ClassStats(Record, namedtuple("ClassStats", "site_class entries mean max_deviation mismatch")):
    """One class's ``(site, total)`` entries, with their exact mean and largest deviation as Ratios."""

    __slots__ = ()


class DefectReport(Record, namedtuple("DefectReport", "source classes")):
    """The :class:`ClassStats` of each class, in report order, tagged with their source."""

    __slots__ = ()


# Each class, its sites and their run in LETTER_SITES, in report order.
_CLASS_SPANS = tuple(
    (cls, sites, slice(LETTER_SITES.index(sites[0]), LETTER_SITES.index(sites[-1]) + 1)) for cls, sites in CLASS_SITES
)


def defect_report(allocation: SiteAllocation) -> DefectReport:
    """Exact per-class statistics of an allocation over all twelve sites.

    For a class of n totals v summing to S, the mean is ``S/n`` and the
    largest deviation is ``max |n*v - S| / n``: since
    ``|v - S/n| = |n*v - S| / n``, every deviation is an integer over the
    same denominator n, so the maximum of the integers divided once by n
    is exactly the maximum of the rational deviations.  That maximum
    integer is ``D = max(n*max(v) - S, S - n*min(v))``, since ``n*v - S``
    grows with v, and the class is a mismatch exactly when
    ``min(v) != max(v)``.  D is ``+-(S - n*v)`` for some v, so
    ``gcd(D, n) = gcd(S, n)``: one gcd reduces both ratios.
    """
    totals = allocation.totals
    if len(totals) != len(LETTER_SITES):
        raise IncompleteAllocationError(f"allocation has {len(totals)} site totals, expected {len(LETTER_SITES)}")
    stats = []
    for cls, sites, span in _CLASS_SPANS:
        values = totals[span]
        n, total, lo, hi = len(values), sum(values), min(values), max(values)
        g = gcd(total, n)
        mean = _new(Ratio, (total // g, n // g))
        max_deviation = _new(Ratio, (max(n * hi - total, total - n * lo) // g, n // g))
        stats.append(_new(ClassStats, (cls, tuple(zip(sites, values)), mean, max_deviation, lo != hi)))
    return _new(DefectReport, (allocation.source, tuple(stats)))
