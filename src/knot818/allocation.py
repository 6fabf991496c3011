"""Per-site allocation totals and the defect structure they expose.

Summing the values a traversal assigns at each site (over plus under at
shoulders, the single through value at branch centers) always spends the
same budget, 210 per table, but the split across the four sites of a
class is uneven for any single table.  The defect report makes that
precise with exact rationals: per class, the mean, the largest absolute
deviation from it, and a mismatch flag.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from operator import add

from .diagram import CLASS_SITES, LETTER_SITES
from .errors import DomainError
from .traversal import StateEnsemble, TraversalTable


class IncompleteAllocationError(DomainError, ValueError):
    """An allocation holds other than twelve site totals."""


class SiteAllocation(namedtuple("SiteAllocation", "source totals")):
    """Integer totals of the twelve sites in A..L order, tagged with their source."""

    __slots__ = ()

    @property
    def grand_total(self) -> int:
        return sum(self.totals)


def _summed(source: str, sums: Sequence[int]) -> SiteAllocation:
    """The allocation of twenty per-key sums in :data:`TABLE_KEYS` order: each
    shoulder's adjacent over and under slots added, then the through slots."""
    return SiteAllocation(source, (*map(add, sums[0:16:2], sums[1:16:2]), *sums[16:]))


def site_totals(table: TraversalTable) -> SiteAllocation:
    """Allocation of one table: over+under per shoulder, through per branch."""
    return _summed(table.describe(), table.values)


def ensemble_totals(ensemble: StateEnsemble) -> SiteAllocation:
    """Site totals summed over every table of the ensemble."""
    return _summed(ensemble.label, tuple(map(sum, zip(*(table.values for table in ensemble.tables)))))


class ClassStats(namedtuple("ClassStats", "site_class entries mean max_deviation mismatch")):
    """One class's ``(site, total)`` entries, with their exact mean and largest deviation as Fractions."""

    __slots__ = ()


class DefectReport(namedtuple("DefectReport", "source classes")):
    """The :class:`ClassStats` of each class, in report order, tagged with their source."""

    __slots__ = ()


# Each class, its sites and their run in LETTER_SITES, in report order.
_CLASS_SPANS = tuple(
    (cls, sites, slice(LETTER_SITES.index(sites[0]), LETTER_SITES.index(sites[-1]) + 1)) for cls, sites in CLASS_SITES
)


def defect_report(allocation: SiteAllocation) -> DefectReport:
    """Exact per-class statistics of an allocation over all twelve sites.

    For a class of n totals v summing to S, the mean is ``Fraction(S, n)``
    and the largest deviation is ``Fraction(max |n*v - S|, n)``: since
    ``|v - S/n| = |n*v - S| / n``, every deviation is an integer over the
    same denominator n, so the maximum of the integers divided once by n
    is exactly the maximum of the rational deviations, reduced the same
    way by ``Fraction``.  That maximum integer is
    ``max(n*max(v) - S, S - n*min(v))``, since ``n*v - S`` grows with v,
    and the class is a mismatch exactly when ``min(v) != max(v)``.
    """
    totals = allocation.totals
    if len(totals) != len(LETTER_SITES):
        raise IncompleteAllocationError(f"allocation has {len(totals)} site totals, expected {len(LETTER_SITES)}")
    stats = []
    for cls, sites, span in _CLASS_SPANS:
        values = totals[span]
        n, total, lo, hi = len(values), sum(values), min(values), max(values)
        mean, max_deviation = Fraction(total, n), Fraction(max(n * hi - total, total - n * lo), n)
        stats.append(ClassStats(cls, tuple(zip(sites, values)), mean, max_deviation, lo != hi))
    return DefectReport(allocation.source, tuple(stats))
