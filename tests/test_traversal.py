"""Start-state traversal tables, the reference fixture, and its errata."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relabel_table, table_value
from knot818.diagram import (
    LETTER_SITES,
    ROTATION_RELABEL,
    DiagramWord,
    Role,
    Visit,
    canonical_818,
)
from knot818.traversal import (
    REPRESENTATIVE_SITES,
    CaseResult,
    Direction,
    EmptyEnsembleError,
    FixtureParseError,
    InvalidStartSpecError,
    MatchStatus,
    RoleMissingError,
    StartNotFoundError,
    StartSpec,
    TABLE_KEYS,
    StateEnsemble,
    TraversalTable,
    apply_errata,
    case_multiset_violations,
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
    with_mirrors,
)

CW, CCW = Direction.CW, Direction.CCW

# The reference assignment for the clockwise walk from K, restated here
# as the module's ground truth.
CASE_A = {
    ("A", Role.OVER): 13, ("A", Role.UNDER): 19,
    ("B", Role.OVER): 8, ("B", Role.UNDER): 14,
    ("C", Role.OVER): 3, ("C", Role.UNDER): 9,
    ("D", Role.OVER): 18, ("D", Role.UNDER): 4,
    ("E", Role.OVER): 5, ("E", Role.UNDER): 12,
    ("F", Role.OVER): 20, ("F", Role.UNDER): 7,
    ("G", Role.OVER): 15, ("G", Role.UNDER): 2,
    ("H", Role.OVER): 10, ("H", Role.UNDER): 17,
    ("I", Role.THROUGH): 11, ("J", Role.THROUGH): 6,
    ("K", Role.THROUGH): 1, ("L", Role.THROUGH): 16,
}


def assignment(table_or_case):
    return {(site, role): value for site, role, value in table_or_case.entries}


def all_specs():
    return [t.start for t in enumerate_all().tables]


def test_start_spec_validation():
    with pytest.raises(InvalidStartSpecError, match="^start site must be one of A..L, got 'Z'$"):
        StartSpec("Z", CW)
    with pytest.raises(InvalidStartSpecError, match="^branch start K takes no entry role$"):
        StartSpec("K", CW, Role.OVER)
    with pytest.raises(InvalidStartSpecError, match="^shoulder start A needs an over or under entry role$"):
        StartSpec("A", CW)
    with pytest.raises(InvalidStartSpecError, match="^shoulder start A needs an over or under entry role$"):
        StartSpec("A", CW, Role.THROUGH)


def test_start_spec_text():
    assert str(StartSpec("K", CW)) == "K,cw"
    assert str(StartSpec("A", CCW, Role.UNDER)) == "A,ccw,under"


def test_case_a_values():
    table = traverse(canonical_818(), StartSpec("K", CW))
    assert assignment(table) == CASE_A
    assert table_value(table, "K", Role.THROUGH) == 1
    assert table_value(table, "C", Role.OVER) == 3
    assert not table.mirrored


def test_table_keys_order():
    shoulders = [(s, r) for s in "ABCDEFGH" for r in (Role.OVER, Role.UNDER)]
    assert list(TABLE_KEYS) == shoulders + [(s, Role.THROUGH) for s in "IJKL"]
    table = traverse(canonical_818(), StartSpec("K", CW))
    assert table.values == tuple(CASE_A[key] for key in TABLE_KEYS)
    assert [(site, role) for site, role, _ in table.entries] == list(TABLE_KEYS)
    with pytest.raises(KeyError):
        table_value(table, "K", Role.OVER)


def test_ccw_reverses_cw():
    cw = traverse(canonical_818(), StartSpec("K", CW))
    ccw = traverse(canonical_818(), StartSpec("K", CCW))
    for key, value in assignment(cw).items():
        expected = 1 if value == 1 else 22 - value
        assert table_value(ccw, *key) == expected


def test_every_start_is_a_permutation_with_value_one_at_start():
    word = canonical_818()
    for spec in all_specs():
        table = traverse(word, spec)
        assert sorted(table.values) == list(range(1, 21))
        role = Role.THROUGH if spec.entry_role is None else spec.entry_role
        assert table_value(table, spec.site, role) == 1


def test_ensembles_have_expected_shapes():
    reps = enumerate_representatives()
    assert reps.label == "reps10"
    assert len(reps.tables) == 10
    assert [t.start.site for t in reps.tables] == list("KKFFFFAAAA")
    full = enumerate_all()
    assert full.label == "all40"
    assert len(full.tables) == 40
    assert REPRESENTATIVE_SITES == ("K", "F", "A")


def test_with_mirrors_order_and_flags():
    pool = with_mirrors(enumerate_representatives())
    assert len(pool) == 20
    assert [t.mirrored for t in pool] == [False] * 10 + [True] * 10
    assert pool[10].start == pool[0].start


def test_mirror_swaps_over_and_under():
    table = traverse(canonical_818(), StartSpec("F", CW, Role.OVER))
    mirrored = mirror_table(table)
    for site in "ABCDEFGH":
        assert table_value(mirrored, site, Role.OVER) == table_value(table, site, Role.UNDER)
        assert table_value(mirrored, site, Role.UNDER) == table_value(table, site, Role.OVER)
    for site in "IJKL":
        assert table_value(mirrored, site, Role.THROUGH) == table_value(table, site, Role.THROUGH)
    assert mirrored.describe() == "mirror(F,cw,over)"


def test_mirror_is_an_involution():
    for table in enumerate_all().tables:
        back = mirror_table(mirror_table(table))
        assert back.values == table.values
        assert back.mirrored == table.mirrored


def test_relabel_moves_start_spec():
    table = traverse(canonical_818(), StartSpec("K", CW))
    rotated = relabel_table(table, ROTATION_RELABEL)
    assert rotated.start == StartSpec("J", CW)
    assert table_value(rotated, "J", Role.THROUGH) == 1


def test_rotation_equivariance():
    word = canonical_818()
    table = traverse(word, StartSpec("A", CCW, Role.UNDER))
    direct = traverse(word, StartSpec(ROTATION_RELABEL["A"], CCW, Role.UNDER))
    assert relabel_table(table, ROTATION_RELABEL).values == direct.values


def test_rotation_orbits_on_all40():
    orbits = rotation_orbits(enumerate_all().tables)
    assert len(orbits) == 10
    assert all(len(orbit) == 4 for orbit in orbits)
    flattened = sorted(i for orbit in orbits for i in orbit)
    assert flattened == list(range(40))


def test_rotation_orbits_need_a_closed_ensemble():
    with pytest.raises(ValueError) as info:
        rotation_orbits(enumerate_representatives().tables)
    assert str(info.value) == "ensemble not closed under rotation at J,cw"


def test_rotation_orbits_check_every_table():
    tables = with_mirrors(enumerate_all())
    first = tables[0]
    swapped = (first.values[1], first.values[0]) + first.values[2:]
    tables[0] = first._replace(values=swapped)
    relabeled = StartSpec(ROTATION_RELABEL[first.start.site], first.start.direction, first.start.entry_role)
    with pytest.raises(ValueError, match=f"^rotation equivariance violated at {relabeled}$"):
        rotation_orbits(tables)


def test_traverse_errors():
    trefoil = DiagramWord(
        (
            Visit("1", Role.OVER), Visit("2", Role.UNDER), Visit("3", Role.OVER),
            Visit("1", Role.UNDER), Visit("2", Role.OVER), Visit("3", Role.UNDER),
        )
    )
    with pytest.raises(StartNotFoundError):
        traverse(trefoil, StartSpec("K", CW))
    no_through = DiagramWord((Visit("K", Role.OVER), Visit("K", Role.UNDER)))
    with pytest.raises(RoleMissingError):
        traverse(no_through, StartSpec("K", CW))
    doubled = DiagramWord((Visit("A", Role.OVER), Visit("A", Role.OVER)))
    with pytest.raises(ValueError):
        traverse(doubled, StartSpec("A", CW, Role.OVER))
    nineteen = DiagramWord(canonical_818().visits[:19])
    with pytest.raises(ValueError, match="20-visit"):
        traverse(nineteen, StartSpec("K", CW))
    digit = canonical_818().relabeled({**{s: s for s in LETTER_SITES}, "A": "1"})
    with pytest.raises(ValueError, match="20-visit"):
        traverse(digit, StartSpec("K", CW))


def test_ensemble_rejects_duplicate_specs():
    table = traverse(canonical_818(), StartSpec("K", CW))
    with pytest.raises(ValueError, match="^duplicate start specs in ensemble$"):
        StateEnsemble("dup", (table, table))


# Fixture: the shipped table of eleven worked cases.
def test_shipped_fixture_shape():
    cases = load_table_fixture(shipped_fixture_path())
    assert [c.case_id for c in cases] == list("abcdefghijk")
    assert all(len(c.entries) == 20 for c in cases)


def test_case_a_in_fixture_matches_traversal():
    cases = {c.case_id: c for c in load_table_fixture(shipped_fixture_path())}
    assert assignment(cases["a"]) == CASE_A


def test_fixture_raw_statuses():
    report = check_fixture(
        enumerate_representatives(), load_table_fixture(shipped_fixture_path())
    )
    by_case = {r.case_id: r for r in report.results}
    assert by_case["h"].status is MatchStatus.UNMATCHED
    assert not report.all_matched
    for case_id, result in by_case.items():
        if case_id != "h":
            assert result.status is MatchStatus.MATCHED
            assert result.violations == ()
    assert set(by_case["h"].violations) == {
        "value 12 duplicated at B over, D over",
        "value 2 missing",
    }


def test_fixture_with_errata_matches_everything():
    report = check_fixture(
        enumerate_representatives(),
        load_table_fixture(shipped_fixture_path()),
        load_errata(shipped_errata_path()),
    )
    assert report.all_matched
    by_case = {r.case_id: r for r in report.results}
    assert by_case["h"].status is MatchStatus.MATCHED_WITH_ERRATUM
    assert by_case["h"].erratum_applied
    # The raw rows stay on record even after the correction matched.
    assert by_case["h"].violations != ()


def test_fixture_witnesses_name_the_start_states():
    report = check_fixture(
        enumerate_representatives(),
        load_table_fixture(shipped_fixture_path()),
        load_errata(shipped_errata_path()),
    )
    witnesses = {r.case_id: r.witness.describe() for r in report.results}
    assert witnesses == {
        "a": "K,cw",
        "b": "K,ccw",
        "c": "F,cw,over",
        "d": "F,ccw,over",
        "e": "F,cw,under",
        "f": "F,ccw,under",
        "g": "mirror(A,cw,under)",
        "h": "A,ccw,under",
        "i": "A,cw,over",
        "j": "A,ccw,over",
        "k": "mirror(K,cw)",
    }


def test_mirror_of_case_a_is_case_k():
    cases = {c.case_id: c for c in load_table_fixture(shipped_fixture_path())}
    mirrored = mirror_table(traverse(canonical_818(), StartSpec("K", CW)))
    assert mirrored.values == cases["k"].values


def test_check_fixture_requires_tables():
    with pytest.raises(EmptyEnsembleError):
        check_fixture(StateEnsemble("empty", ()), ())


def test_multiset_violations_clean_case():
    cases = load_table_fixture(shipped_fixture_path())
    clean = next(c for c in cases if c.case_id == "a")
    assert case_multiset_violations(clean) == []


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_fixture_parse_bad_header(tmp_path):
    path = _write(tmp_path, "bad.csv", "case,site,role\n")
    with pytest.raises(FixtureParseError, match="line 1"):
        load_table_fixture(path)


def test_fixture_parse_bad_site(tmp_path):
    path = _write(tmp_path, "bad.csv", "case,site,role,value\nx,Q,over,1\n")
    with pytest.raises(FixtureParseError, match="line 2"):
        load_table_fixture(path)


def test_fixture_parse_bad_role(tmp_path):
    path = _write(tmp_path, "bad.csv", "case,site,role,value\nx,A,sideways,1\n")
    with pytest.raises(FixtureParseError, match="sideways"):
        load_table_fixture(path)


def test_fixture_parse_bad_value(tmp_path):
    path = _write(tmp_path, "bad.csv", "case,site,role,value\nx,A,over,seven\n")
    with pytest.raises(FixtureParseError, match="line 2"):
        load_table_fixture(path)


def test_fixture_parse_duplicate_row(tmp_path):
    path = _write(
        tmp_path, "bad.csv",
        "case,site,role,value\nx,A,over,1\nx,A,over,2\n",
    )
    with pytest.raises(FixtureParseError, match="duplicate"):
        load_table_fixture(path)


def test_fixture_parse_incomplete_case(tmp_path):
    path = _write(tmp_path, "bad.csv", "case,site,role,value\nx,A,over,1\n")
    with pytest.raises(FixtureParseError, match="incomplete"):
        load_table_fixture(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("case,site,role\n", "line 1: expected header case,site,role,value"),
        ("case,site,role,value\nx,A,over\n", "line 2: expected 4 fields, got 3"),
        ("case,site,role,value\n,A,over,1\n", "line 2: empty case id"),
        ("case,site,role,value\nx,Q,over,1\n", "line 2: unknown site 'Q'"),
        ("case,site,role,value\nx,a,over,1\n", "line 2: unknown site 'a'"),
        ("case,site,role,value\nx,A,sideways,1\n", "line 2: unknown role 'sideways'"),
        ("case,site,role,value\nx,A,Over,1\n", "line 2: unknown role 'Over'"),
        ("case,site,role,value\nx,A,through,1\n", "line 2: role 'through' does not fit site 'A'"),
        ("case,site,role,value\nx,I,over,1\n", "line 2: role 'over' does not fit site 'I'"),
        ("case,site,role,value\nx,A,over,seven\n", "line 2: value 'seven' is not an integer"),
        ("case,site,role,value\nx,A,over,1\nx,A,over,2\n", "line 3: duplicate entry A over in case x"),
        ("case,site,role,value\nx,A,over,1\nx,I,through,2\n", "line 3: case x incomplete (2 of 20 entries)"),
    ],
)
def test_fixture_parse_messages(tmp_path, body, message):
    path = _write(tmp_path, "bad.csv", body)
    with pytest.raises(FixtureParseError) as exc:
        load_table_fixture(path)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "row, message",
    [
        pytest.param("h,B,over,99,2", "erratum for case h expects B over = 99, fixture has 12", id="disagrees"),
        # case a matches raw, so its row is never applied, yet still checked
        pytest.param("a,A,over,99,5", "erratum for case a expects A over = 99, fixture has 13", id="raw-match"),
        pytest.param("z,D,over,13,2", "erratum for case z: the fixture has no such case", id="absent-case"),
    ],
)
def test_errata_row_must_agree_with_fixture(tmp_path, row, message):
    errata_path = _write(tmp_path, "errata.csv", f"case,site,role,value,corrected_value\n{row}\n")
    with pytest.raises(FixtureParseError) as exc:
        check_fixture(
            enumerate_representatives(),
            load_table_fixture(shipped_fixture_path()),
            load_errata(errata_path),
        )
    assert str(exc.value) == message


def test_apply_errata_corrects_case_h():
    cases = {c.case_id: c for c in load_table_fixture(shipped_fixture_path())}
    corrected = apply_errata(cases["h"], load_errata(shipped_errata_path())["h"])
    assert corrected.case_id == "h"
    assert corrected.values != cases["h"].values
    assert corrected.values == traverse(canonical_818(), StartSpec("A", CCW, Role.UNDER)).values
    assert case_multiset_violations(corrected) == []
    assert apply_errata(cases["a"], ()) == cases["a"]


@pytest.mark.parametrize(
    "site, role, message",
    [
        ("Q", "over", "line 2: unknown site 'Q'"),
        ("A", "Over", "line 2: unknown role 'Over'"),
        ("I", "over", "line 2: role 'over' does not fit site 'I'"),
    ],
)
def test_errata_parse_row_key_messages(tmp_path, site, role, message):
    path = _write(tmp_path, "errata.csv", f"case,site,role,value,corrected_value\nh,{site},{role},1,2\n")
    with pytest.raises(FixtureParseError) as exc:
        load_errata(path)
    assert str(exc.value) == message


def test_errata_parse_bad_header(tmp_path):
    path = _write(tmp_path, "errata.csv", "case,site,role,value\n")
    with pytest.raises(FixtureParseError, match="line 1"):
        load_errata(path)


# Property: mirroring commutes with relabeling on every table.
@given(st.sampled_from(LETTER_SITES), st.booleans())
@settings(max_examples=24, deadline=None)
def test_mirror_commutes_with_rotation(site, ccw):
    direction = CCW if ccw else CW
    role = None if site in "IJKL" else Role.OVER
    table = traverse(canonical_818(), StartSpec(site, direction, role))
    one = mirror_table(relabel_table(table, ROTATION_RELABEL))
    two = relabel_table(mirror_table(table), ROTATION_RELABEL)
    assert one.values == two.values
    assert one.start == two.start
