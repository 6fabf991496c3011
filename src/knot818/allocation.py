"""Per-site allocation totals and the defect structure they expose.

Summing the values a traversal assigns at each site (over plus under at
shoulders, the single through value at branch centers) always spends the
same budget, 210 per table, but the split across the four sites of a
class is uneven for any single table.  The defect report makes that
precise with exact rationals: per class, the mean, the largest absolute
deviation from it, and a mismatch flag.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .diagram import CLASS_SITES, LETTER_SITES, SiteClass
from .errors import DomainError
from .traversal import TABLE_KEYS, StateEnsemble, TraversalTable


class IncompleteAllocationError(DomainError, ValueError):
    """An allocation holds other than twelve site totals."""


class SiteAllocation(NamedTuple):
    """Integer totals of the twelve sites in A..L order, tagged with their source."""

    source: str
    totals: tuple[int, ...]

    @property
    def grand_total(self) -> int:
        return sum(self.totals)


# The position in LETTER_SITES of each TABLE_KEYS slot's site.
_SLOT_SITE = tuple(LETTER_SITES.index(site) for site, _role in TABLE_KEYS)


def _summed(source: str, tables: Iterable[TraversalTable]) -> SiteAllocation:
    totals = [0] * len(LETTER_SITES)
    for site, column in zip(_SLOT_SITE, zip(*(table.values for table in tables))):
        totals[site] += sum(column)
    return SiteAllocation(source, tuple(totals))


def site_totals(table: TraversalTable) -> SiteAllocation:
    """Allocation of one table: over+under per shoulder, through per branch."""
    return _summed(table.describe(), [table])


def ensemble_totals(ensemble: StateEnsemble) -> SiteAllocation:
    """Site totals summed over every table of the ensemble."""
    return _summed(ensemble.label, ensemble.tables)


class ClassStats(NamedTuple):
    site_class: SiteClass
    entries: tuple[tuple[str, int], ...]
    mean: Fraction
    max_deviation: Fraction
    mismatch: bool


class DefectReport(NamedTuple):
    source: str
    classes: tuple[ClassStats, ...]


# Each class's sites and their positions in LETTER_SITES, in report order.
_CLASS_AT = tuple((cls, sites, [LETTER_SITES.index(s) for s in sites]) for cls, sites in CLASS_SITES)


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
    for cls, sites, positions in _CLASS_AT:
        values = [totals[p] for p in positions]
        n, total, lo, hi = len(values), sum(values), min(values), max(values)
        stats.append(
            ClassStats(
                site_class=cls,
                entries=tuple(zip(sites, values)),
                mean=Fraction(total, n),
                max_deviation=Fraction(max(n * hi - total, total - n * lo), n),
                mismatch=lo != hi,
            )
        )
    return DefectReport(allocation.source, tuple(stats))
