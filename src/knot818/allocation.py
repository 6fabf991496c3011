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
from typing import Iterable, Mapping, NamedTuple

from .diagram import CLASS_SITES, SiteClass
from .errors import DomainError
from .traversal import TABLE_KEYS, StateEnsemble, TraversalTable


class IncompleteAllocationError(DomainError, ValueError):
    """Totals are missing one or more of the twelve sites."""


class SiteAllocation(NamedTuple):
    """Integer totals per site, tagged with where they came from."""

    source: str
    totals: tuple[tuple[str, int], ...]

    @classmethod
    def from_mapping(cls, source: str, totals: Mapping[str, int]) -> "SiteAllocation":
        return cls(source, tuple(sorted(totals.items())))

    @property
    def grand_total(self) -> int:
        return sum(v for _, v in self.totals)


def _summed(tables: Iterable[TraversalTable]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for table in tables:
        for (site, _role), value in zip(TABLE_KEYS, table.values):
            totals[site] = totals.get(site, 0) + value
    return totals


def site_totals(table: TraversalTable) -> SiteAllocation:
    """Allocation of one table: over+under per shoulder, through per branch."""
    return SiteAllocation.from_mapping(table.describe(), _summed([table]))


def ensemble_totals(ensemble: StateEnsemble) -> SiteAllocation:
    """Site totals summed over every table of the ensemble."""
    return SiteAllocation.from_mapping(ensemble.label, _summed(ensemble.tables))


class ClassStats(NamedTuple):
    site_class: SiteClass
    entries: tuple[tuple[str, int], ...]
    mean: Fraction
    max_deviation: Fraction
    mismatch: bool


class DefectReport(NamedTuple):
    source: str
    classes: tuple[ClassStats, ...]


def defect_report(allocation: SiteAllocation) -> DefectReport:
    """Exact per-class statistics of an allocation over all twelve sites.

    For a class of n totals v summing to S, the mean is ``Fraction(S, n)``
    and the largest deviation is ``Fraction(max |n*v - S|, n)``: since
    ``|v - S/n| = |n*v - S| / n``, every deviation is an integer over the
    same denominator n, so the maximum of the integers divided once by n
    is exactly the maximum of the rational deviations, reduced the same
    way by ``Fraction``.
    """
    totals = dict(allocation.totals)
    missing = [
        site
        for _cls, sites in CLASS_SITES
        for site in sites
        if site not in totals
    ]
    if missing:
        raise IncompleteAllocationError(f"allocation missing sites {', '.join(sorted(missing))}")
    stats = []
    for cls, sites in CLASS_SITES:
        values = [totals[s] for s in sites]
        n, total = len(values), sum(values)
        stats.append(
            ClassStats(
                site_class=cls,
                entries=tuple(zip(sites, values)),
                mean=Fraction(total, n),
                max_deviation=Fraction(max(abs(n * v - total) for v in values), n),
                mismatch=len(set(values)) > 1,
            )
        )
    return DefectReport(allocation.source, tuple(stats))
