"""Acceptance gate: the ten deliverable checks, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL
lines; under plain pytest the prints surface only on failure.
"""

import math
import random
import time
from fractions import Fraction

from conftest import matmul, random_valid_word, subs_inverse, table_value, totals_by_site
from knot818.braid import BRAID_818, BraidWord, annular_embed, closure_diagram, winding_phase
from knot818.invariants import (
    PolyMatrix,
    alexander_from_braid,
    burau_reduced,
    normalize_alexander,
)
from knot818.laurent import LaurentPoly
from knot818.notation import emit_extended_gauss, gauss_to_dt, parse_extended_gauss
from knot818.traversal import (
    Direction,
    MatchStatus,
    StartSpec,
    check_fixture,
    enumerate_all,
    enumerate_representatives,
    load_errata,
    load_table_fixture,
    mirror_table,
    rotation_orbits,
    shipped_errata_path,
    shipped_fixture_path,
    traverse,
)
from knot818.allocation import defect_report, ensemble_totals, site_totals
from knot818.diagram import Role, canonical_818


def _report(number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


def test_criterion_01_alexander_polynomial():
    def check():
        t0 = time.perf_counter()
        delta = alexander_from_braid(BRAID_818)
        elapsed = time.perf_counter() - t0
        assert delta.min_exp == 0
        assert delta.coeffs == (1, -5, 10, -13, 10, -5, 1)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    _report(1, "alexander coefficients (1,-5,10,-13,10,-5,1) in under 1s", check)


def test_criterion_02_writhe_zero():
    def check():
        _, crossings = closure_diagram(BRAID_818)
        assert len(crossings) == 8
        assert sum(c.sign for c in crossings) == 0

    _report(2, "eight-crossing closure has writhe exactly 0", check)


def test_criterion_03_winding_phase():
    def check():
        t0 = time.perf_counter()
        embedding = annular_embed(BRAID_818, (1.0, 2.0, 3.0), slots_per_letter=64)
        phase = winding_phase(embedding)
        elapsed = time.perf_counter() - t0
        assert abs(phase - 6 * math.pi) < 1e-9
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    _report(3, "winding phase is 6*pi within 1e-9 at 64 points/slot in under 1s", check)


def test_criterion_04_fixture_regeneration():
    def check():
        t0 = time.perf_counter()
        ensemble = enumerate_representatives()
        fixture = load_table_fixture(shipped_fixture_path())
        raw = {r.case_id: r for r in check_fixture(ensemble, fixture).results}
        assert set(raw) == set("abcdefghijk")
        assert raw["h"].status is MatchStatus.UNMATCHED
        assert "value 12 duplicated at B over, D over" in raw["h"].violations
        assert "value 2 missing" in raw["h"].violations
        for case_id, result in raw.items():
            if case_id != "h":
                assert result.status is MatchStatus.MATCHED, case_id
        errata = load_errata(shipped_errata_path())
        cured = {r.case_id: r for r in check_fixture(ensemble, fixture, errata).results}
        assert cured["h"].status is MatchStatus.MATCHED_WITH_ERRATUM
        assert all(r.status is not MatchStatus.UNMATCHED for r in cured.values())
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    _report(4, "all 11 reference cases regenerate; case h only under the erratum", check)


def test_criterion_05_permutation_property():
    def check():
        for table in enumerate_all().tables:
            assert sorted(table.values) == list(range(1, 21)), table.start
            spec = table.start
            role = spec.entry_role if spec.entry_role is not None else Role.THROUGH
            assert table_value(table, spec.site, role) == 1, table.start

    _report(5, "all 40 start specs assign exactly {1..20} with 1 at the start", check)


def test_criterion_06_symmetry_orbits():
    def check():
        orbits = rotation_orbits(enumerate_all().tables)
        assert len(orbits) == 10
        assert all(len(orbit) == 4 for orbit in orbits)

    _report(6, "the 40 tables split into 10 rotation orbits of size 4", check)


def test_criterion_07_mirror_law():
    def check():
        fixture = load_table_fixture(shipped_fixture_path())
        case_a = traverse(canonical_818(), StartSpec("K", Direction.CW))
        assert mirror_table(case_a).values == fixture["k"]
        for table in enumerate_all().tables:
            assert mirror_table(mirror_table(table)).values == table.values

    _report(7, "mirror(case a) is case k; mirroring is an involution on all 40", check)


def test_criterion_08_mismatch_reproduction():
    def check():
        case_a = traverse(canonical_818(), StartSpec("K", Direction.CW))
        totals = totals_by_site(site_totals(case_a))
        assert [totals[s] for s in "ABCD"] == [32, 22, 12, 22]
        assert [totals[s] for s in "EFGH"] == [17, 27, 17, 27]
        single = defect_report(site_totals(case_a))
        flags = {c.site_class.value: c.mismatch for c in single.classes}
        assert flags["inner-shoulder"] and flags["outer-shoulder"]
        full = defect_report(ensemble_totals(enumerate_all()))
        assert not any(c.mismatch for c in full.classes)
        for stats in full.classes:
            assert stats.max_deviation == 0

    _report(8, "case-a totals mismatch per class; all-40 totals balance exactly", check)


def test_criterion_09_invariant_suite():
    def check():
        t0 = time.perf_counter()
        # Homomorphism and relations.
        for left, right in (
            ((1, -2, 1), (-2,)),
            ((1, 2), (2, 1)),
            ((2, -1, -1), (1, 2, -2)),
        ):
            a, b = BraidWord(3, left), BraidWord(3, right)
            combined = BraidWord(3, left + right)
            assert matmul(burau_reduced(a), burau_reduced(b)) == burau_reduced(combined)
        assert burau_reduced(BraidWord(3, (1, 2, 1))) == burau_reduced(BraidWord(3, (2, 1, 2)))
        inverse = BraidWord(3, tuple(-l for l in reversed(BRAID_818.letters)))
        assert matmul(burau_reduced(BRAID_818), burau_reduced(inverse)) == PolyMatrix.identity(2)
        # Alexander symmetry and unit value on a spread of knots.
        for braid in (
            BraidWord(2, (1, 1, 1)),
            BraidWord(3, (1, -2, 1, -2)),
            BRAID_818,
        ):
            delta = alexander_from_braid(braid)
            assert normalize_alexander(subs_inverse(delta)) == delta
            assert abs(delta.evaluate(Fraction(1))) == 1
        # Trefoil oracle: determinant of the hand-built Alexander matrix
        # [[t, -1], [1-t, t]] collected to 1 - t + t^2.
        assert alexander_from_braid(BraidWord(2, (1, 1, 1))) == LaurentPoly(0, (1, -1, 1))
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.3f}s"

    _report(9, "Burau laws, alexander symmetry, unit at 1, trefoil oracle in under 5s", check)


def test_criterion_10_parser_round_trips():
    def check():
        rng = random.Random(20260822)
        evens = [2, 4, 6, 8, 10, 12, 14, 16]
        for _ in range(1000):
            word = random_valid_word(rng)
            assert parse_extended_gauss(emit_extended_gauss(word)) == word
            code = gauss_to_dt(word)
            assert sorted(abs(n) for n in code) == evens

    _report(10, "parse/emit identity and DT permutation invariant on 1000 words", check)
