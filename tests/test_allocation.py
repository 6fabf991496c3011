"""Site allocation totals and per-class defect statistics."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import table_value
from knot818.allocation import (
    CLASS_SITES,
    ClassStats,
    IncompleteAllocationError,
    SiteAllocation,
    defect_report,
    ensemble_totals,
    site_totals,
)
from knot818.diagram import Role, SiteClass, canonical_818
from knot818.traversal import (
    Direction,
    EmptyEnsembleError,
    StartSpec,
    StateEnsemble,
    enumerate_all,
    enumerate_representatives,
    mirror_table,
    traverse,
)


def case_a_table():
    return traverse(canonical_818(), StartSpec("K", Direction.CW))


def test_case_a_site_totals():
    alloc = site_totals(case_a_table())
    totals = dict(alloc.totals)
    assert {s: totals[s] for s in "ABCD"} == {"A": 32, "B": 22, "C": 12, "D": 22}
    assert {s: totals[s] for s in "EFGH"} == {"E": 17, "F": 27, "G": 17, "H": 27}
    assert {s: totals[s] for s in "IJKL"} == {"I": 11, "J": 6, "K": 1, "L": 16}
    assert alloc.grand_total == 210
    assert alloc.source == "K,cw"


def test_every_table_spends_the_same_budget():
    for table in enumerate_all().tables:
        assert site_totals(table).grand_total == sum(range(1, 21))


def test_case_a_defect_report():
    report = defect_report(site_totals(case_a_table()))
    by_class = {c.site_class: c for c in report.classes}
    inner = by_class[SiteClass.INNER_SHOULDER]
    assert inner.mismatch
    assert inner.mean == Fraction(88, 4)
    assert inner.max_deviation == Fraction(10)
    outer = by_class[SiteClass.OUTER_SHOULDER]
    assert outer.mismatch
    assert outer.mean == Fraction(22)
    assert outer.max_deviation == Fraction(5)
    branch = by_class[SiteClass.BRANCH_CENTER]
    assert branch.mismatch
    assert branch.mean == Fraction(34, 4)
    assert report.classes[0] is branch  # branch centers reported first


def test_reps10_totals():
    alloc = ensemble_totals(enumerate_representatives())
    assert dict(alloc.totals) == {
        "A": 180, "B": 220, "C": 220, "D": 220,
        "E": 220, "F": 180, "G": 220, "H": 220,
        "I": 110, "J": 110, "K": 90, "L": 110,
    }
    assert alloc.grand_total == 10 * 210
    report = defect_report(alloc)
    assert all(c.mismatch for c in report.classes)


def test_all40_totals_balance_exactly():
    # Pair each start state with its direction-reversed partner: a visit
    # slot collects v and 22-v from the pair (sum 22), except in the one
    # pair that starts at that slot, where both walks give it 1.  With
    # twenty pairs that is 19*22 + 2 = 420 per slot, so shoulders carry
    # 840 and branch centers 420, identical within each class.
    alloc = ensemble_totals(enumerate_all())
    expected = {s: 840 for s in "ABCDEFGH"}
    expected.update({s: 420 for s in "IJKL"})
    assert dict(alloc.totals) == expected
    assert alloc.grand_total == 40 * 210
    report = defect_report(alloc)
    assert not any(c.mismatch for c in report.classes)
    for stats in report.classes:
        assert stats.max_deviation == 0
        values = {v for _, v in stats.entries}
        assert len(values) == 1


def test_mirror_preserves_site_totals():
    for table in enumerate_all().tables:
        assert dict(site_totals(mirror_table(table)).totals) == dict(site_totals(table).totals)


def test_mirrored_source_string():
    alloc = site_totals(mirror_table(case_a_table()))
    assert alloc.source == "mirror(K,cw)"


def test_ensemble_totals_rejects_empty():
    with pytest.raises(EmptyEnsembleError):
        ensemble_totals(StateEnsemble("empty", ()))


def test_defect_report_requires_all_sites():
    partial = SiteAllocation.from_mapping("partial", {"A": 1, "B": 2})
    with pytest.raises(IncompleteAllocationError) as info:
        defect_report(partial)
    assert "C" in str(info.value) and "K" in str(info.value)


def test_class_site_partition():
    sites = [s for _cls, group in CLASS_SITES for s in group]
    assert sorted(sites) == list("ABCDEFGHIJKL")
    assert [cls for cls, _ in CLASS_SITES] == [
        SiteClass.BRANCH_CENTER,
        SiteClass.OUTER_SHOULDER,
        SiteClass.INNER_SHOULDER,
    ]


def test_site_totals_uses_through_values():
    table = case_a_table()
    alloc = dict(site_totals(table).totals)
    for site in "IJKL":
        assert alloc[site] == table_value(table, site, Role.THROUGH)
    for site in "ABCDEFGH":
        assert alloc[site] == table_value(table, site, Role.OVER) + table_value(table, site, Role.UNDER)


def _rational_class_stats(site_class, sites, values):
    """The defining statistics, computed on rationals throughout."""
    mean = Fraction(sum(values), len(values))
    max_deviation = max(abs(Fraction(v) - mean) for v in values)
    return ClassStats(site_class, tuple(zip(sites, values)), mean, max_deviation, len(set(values)) > 1)


_TOTAL = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


@given(st.lists(_TOTAL, min_size=12, max_size=12))
def test_defect_report_matches_rational_definition(drawn):
    totals = dict(zip("ABCDEFGHIJKL", drawn))
    report = defect_report(SiteAllocation.from_mapping("drawn", totals))
    assert report.source == "drawn"
    assert len(report.classes) == len(CLASS_SITES)
    for stats, (cls, sites) in zip(report.classes, CLASS_SITES):
        expected = _rational_class_stats(cls, sites, [totals[s] for s in sites])
        assert stats == expected
        assert type(stats.mean) is type(expected.mean) is Fraction
        assert type(stats.max_deviation) is type(expected.max_deviation) is Fraction
        assert type(stats.mismatch) is bool
