"""Site allocation totals and per-class defect statistics."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import table_value, totals_by_site
from knot818.allocation import (
    CLASS_SITES,
    ClassStats,
    IncompleteAllocationError,
    SiteAllocation,
    defect_report,
    ensemble_totals,
    site_totals,
)
from knot818.diagram import LETTER_SITES, Role, SiteClass, canonical_818
from knot818.traversal import (
    TABLE_KEYS,
    Direction,
    StartSpec,
    StateEnsemble,
    TraversalTable,
    enumerate_all,
    enumerate_representatives,
    mirror_table,
    traverse,
    with_mirrors,
)


def case_a_table():
    return traverse(canonical_818(), StartSpec("K", Direction.CW))


def test_case_a_site_totals():
    alloc = site_totals(case_a_table())
    totals = totals_by_site(alloc)
    assert {s: totals[s] for s in "ABCD"} == {"A": 32, "B": 22, "C": 12, "D": 22}
    assert {s: totals[s] for s in "EFGH"} == {"E": 17, "F": 27, "G": 17, "H": 27}
    assert {s: totals[s] for s in "IJKL"} == {"I": 11, "J": 6, "K": 1, "L": 16}
    assert alloc.totals == (32, 22, 12, 22, 17, 27, 17, 27, 11, 6, 1, 16)  # A..L
    assert all(type(total) is int for total in alloc.totals)
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
    assert totals_by_site(alloc) == {
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
    assert totals_by_site(alloc) == expected
    assert alloc.grand_total == 40 * 210
    report = defect_report(alloc)
    assert not any(c.mismatch for c in report.classes)
    for stats in report.classes:
        assert stats.max_deviation == 0
        values = {v for _, v in stats.entries}
        assert len(values) == 1


def test_mirror_preserves_site_totals():
    for table in enumerate_all().tables:
        assert site_totals(mirror_table(table)).totals == site_totals(table).totals


_MIRRORED_ALL = with_mirrors(enumerate_all())


def _entry_sums(tables):
    """Site totals summed straight from each table's (site, role, value) entries."""
    sums = dict.fromkeys(LETTER_SITES, 0)
    for table in tables:
        for site, _role, value in table.entries:
            sums[site] += value
    return sums


@given(st.sets(st.integers(0, len(_MIRRORED_ALL) - 1), min_size=1))
def test_totals_match_a_sum_over_entries(picked):
    tables = [_MIRRORED_ALL[i] for i in sorted(picked)]
    alloc = ensemble_totals(StateEnsemble("drawn", tuple(tables)))
    assert alloc.source == "drawn"
    assert totals_by_site(alloc) == _entry_sums(tables)
    assert alloc.grand_total == 210 * len(tables)
    for table in tables:
        single = site_totals(table)
        assert totals_by_site(single) == _entry_sums([table])
        assert single.grand_total == 210


def test_mirrored_source_string():
    alloc = site_totals(mirror_table(case_a_table()))
    assert alloc.source == "mirror(K,cw)"


@pytest.mark.parametrize("count", [0, 2, 11, 13])
def test_defect_report_requires_twelve_totals(count):
    with pytest.raises(IncompleteAllocationError) as info:
        defect_report(SiteAllocation("partial", (1,) * count))
    assert str(info.value) == f"allocation has {count} site totals, expected 12"


def test_class_site_partition():
    sites = [s for _cls, group in CLASS_SITES for s in group]
    assert sorted(sites) == list("ABCDEFGHIJKL")
    assert [cls for cls, _ in CLASS_SITES] == [
        SiteClass.BRANCH_CENTER,
        SiteClass.OUTER_SHOULDER,
        SiteClass.INNER_SHOULDER,
    ]


def test_slot_layout_the_totals_read():
    # site_totals adds slots 2i and 2i+1 for shoulder i and keeps slots 16..19.
    shoulders, branches = LETTER_SITES[:8], LETTER_SITES[8:]
    assert TABLE_KEYS[0:16:2] == tuple((s, Role.OVER) for s in shoulders)
    assert TABLE_KEYS[1:16:2] == tuple((s, Role.UNDER) for s in shoulders)
    assert TABLE_KEYS[16:] == tuple((s, Role.THROUGH) for s in branches)
    assert len(TABLE_KEYS) == 20


def test_each_class_is_one_run_of_letter_sites():
    # defect_report reads each class as one slice of the totals.
    for _cls, sites in CLASS_SITES:
        start = LETTER_SITES.index(sites[0])
        assert LETTER_SITES[start : start + len(sites)] == sites


def test_site_totals_uses_through_values():
    table = case_a_table()
    alloc = totals_by_site(site_totals(table))
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
    report = defect_report(SiteAllocation("drawn", tuple(drawn)))
    assert report.source == "drawn"
    assert len(report.classes) == len(CLASS_SITES)
    for stats, (cls, sites) in zip(report.classes, CLASS_SITES):
        expected = _rational_class_stats(cls, sites, [totals[s] for s in sites])
        assert stats == expected
        assert type(stats.mean) is type(expected.mean) is Fraction
        assert type(stats.max_deviation) is type(expected.max_deviation) is Fraction
        assert type(stats.mismatch) is bool


def _keyed_totals(value_rows):
    """Site totals in LETTER_SITES order, each value added to its TABLE_KEYS site."""
    sums = dict.fromkeys(LETTER_SITES, 0)
    for values in value_rows:
        for (site, _role), value in zip(TABLE_KEYS, values):
            sums[site] += value
    return tuple(sums[s] for s in LETTER_SITES)


_STARTS = [table.start for table in enumerate_all().tables]


@given(st.lists(st.lists(_TOTAL, min_size=20, max_size=20).map(tuple), min_size=1, max_size=4))
def test_totals_match_a_keyed_sum_for_any_values(value_rows):
    tables = tuple(TraversalTable(start, values) for start, values in zip(_STARTS, value_rows))
    for table in tables:
        alloc = site_totals(table)
        assert alloc == SiteAllocation(table.describe(), _keyed_totals([table.values]))
    alloc = ensemble_totals(StateEnsemble("drawn", tables))
    assert alloc == SiteAllocation("drawn", _keyed_totals(value_rows))
