"""Start-state traversal tables, the reference fixture, and its errata."""

import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cut_path, relabel_table, table_value
from knot818.diagram import (
    LETTER_SITES,
    ROTATION_RELABEL,
    DiagramWord,
    Role,
    Visit,
    canonical_818,
    validate_word,
)
from knot818.errors import DomainError
from knot818.traversal import (
    REPRESENTATIVE_SITES,
    Direction,
    EmptyEnsembleError,
    FixtureParseError,
    MAX_FIXTURE_BYTES,
    InvalidStartSpecError,
    MatchStatus,
    StartSpec,
    TABLE_KEYS,
    StateEnsemble,
    TableUndefinedError,
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


def assignment(values):
    return dict(zip(TABLE_KEYS, values))


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
    # _replace builds through the same checks
    assert StartSpec("A", CW, Role.OVER)._replace(direction=CCW) == StartSpec("A", CCW, Role.OVER)
    with pytest.raises(InvalidStartSpecError, match="^branch start K takes no entry role$"):
        StartSpec("A", CW, Role.OVER)._replace(site="K")


def test_start_spec_text():
    assert str(StartSpec("K", CW)) == "K,cw"
    assert str(StartSpec("A", CCW, Role.UNDER)) == "A,ccw,under"


def test_start_spec_parses_what_it_prints():
    for spec in all_specs():
        assert StartSpec.parse(str(spec)) == spec
    assert StartSpec.parse(" a , ccw , under ") == StartSpec("A", CCW, Role.UNDER)
    # Only the site folds; direction and role are lower case, as traverse --dir and --role take them.
    with pytest.raises(InvalidStartSpecError, match="^direction must be cw or ccw, got 'CCW'$"):
        StartSpec.parse("a,CCW,under")
    with pytest.raises(InvalidStartSpecError, match="^entry role must be over or under, got 'Under'$"):
        StartSpec.parse("a,ccw,Under")
    # Only ASCII folds: dotless i would upper-case to I, sharp s to SS.
    for site in ("ı", "ß"):
        with pytest.raises(InvalidStartSpecError, match=f"^start site must be one of A..L, got '{site}'$"):
            StartSpec.parse(f"{site},cw")
    # The entry-role rule is StartSpec's own, whatever the text names.
    with pytest.raises(InvalidStartSpecError, match="^shoulder start A needs an over or under entry role$"):
        StartSpec.parse("A,cw,through")
    with pytest.raises(InvalidStartSpecError, match="^branch start K takes no entry role$"):
        StartSpec.parse("K,cw,through")
    with pytest.raises(InvalidStartSpecError, match="^entry role must be over or under, got 'sideways'$"):
        StartSpec.parse("A,cw,sideways")


def test_case_a_values():
    table = traverse(canonical_818(), StartSpec("K", CW))
    assert assignment(table.values) == CASE_A
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
    for key, value in assignment(cw.values).items():
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
    """Relabeling the table of each of the forty start states equals the
    table traversed from the relabeled start state (``CONVENTIONS.md``,
    "Quarter-turn relabeling"); ``rotation_orbits`` relies on it."""
    word = canonical_818()
    for table in enumerate_all().tables:
        relabeled = relabel_table(table, ROTATION_RELABEL)
        assert relabeled == traverse(word, relabeled.start), table.describe()


ALL40_ORBITS = (
    (0, 12, 8, 4), (1, 13, 9, 5), (2, 14, 10, 6), (3, 15, 11, 7),
    (16, 28, 24, 20), (17, 29, 25, 21), (18, 30, 26, 22), (19, 31, 27, 23),
    (32, 38, 36, 34), (33, 39, 37, 35),
)


def test_rotation_orbits_on_all40():
    orbits = rotation_orbits(enumerate_all().tables)
    assert len(orbits) == 10
    assert all(len(orbit) == 4 for orbit in orbits)
    flattened = sorted(i for orbit in orbits for i in orbit)
    assert flattened == list(range(40))
    # By lowest index, each orbit from there along the quarter turn; mirrors keep to their own.
    assert orbits == ALL40_ORBITS
    mirrored = tuple(tuple(i + 40 for i in orbit) for orbit in ALL40_ORBITS)
    assert rotation_orbits(with_mirrors(enumerate_all())) == ALL40_ORBITS + mirrored


def test_rotation_orbits_need_a_closed_ensemble():
    with pytest.raises(ValueError) as info:
        rotation_orbits(enumerate_representatives().tables)
    assert str(info.value) == "ensemble not closed under rotation at J,cw"


def test_rotation_orbits_reject_a_table_listed_twice():
    tables = enumerate_all().tables
    with pytest.raises(ValueError, match="^duplicate start specs in ensemble$"):
        rotation_orbits(tables + tables[-1:])


def test_traverse_errors():
    assert issubclass(TableUndefinedError, DomainError) and issubclass(TableUndefinedError, ValueError)
    trefoil = DiagramWord(
        (
            Visit("1", Role.OVER), Visit("2", Role.UNDER), Visit("3", Role.OVER),
            Visit("1", Role.UNDER), Visit("2", Role.OVER), Visit("3", Role.UNDER),
        )
    )
    no_through = DiagramWord((Visit("K", Role.OVER), Visit("K", Role.UNDER)))
    doubled = DiagramWord((Visit("A", Role.OVER), Visit("A", Role.OVER)))
    nineteen = DiagramWord(tuple(canonical_818())[:19])
    digit = canonical_818().relabeled({**{s: s for s in LETTER_SITES}, "A": "1"})
    # Whether or not the word holds the start visit, only a model word has tables.
    for word, spec in [
        (trefoil, StartSpec("K", CW)),
        (no_through, StartSpec("K", CW)),
        (doubled, StartSpec("A", CW, Role.OVER)),
        (nineteen, StartSpec("K", CW)),
        (nineteen, StartSpec("A", CCW, Role.UNDER)),
        (digit, StartSpec("K", CW)),
    ]:
        assert validate_word(word)
        with pytest.raises(TableUndefinedError, match="^table undefined: not a 20-visit word of the 12-site model$"):
            traverse(word, spec)


def test_ensemble_rejects_duplicate_specs():
    table = traverse(canonical_818(), StartSpec("K", CW))
    with pytest.raises(ValueError, match="^duplicate start specs in ensemble$"):
        StateEnsemble("dup", (table, table))
    with pytest.raises(ValueError, match="^duplicate start specs in ensemble$"):
        StateEnsemble("one", (table,))._replace(tables=(table, table))


def test_ensemble_rejects_empty():
    with pytest.raises(EmptyEnsembleError, match="^ensemble 'empty' has no tables$"):
        StateEnsemble("empty", ())
    table = traverse(canonical_818(), StartSpec("K", CW))
    with pytest.raises(EmptyEnsembleError, match="^ensemble 'one' has no tables$"):
        StateEnsemble("one", (table,))._replace(tables=())


# Fixture: the shipped table of eleven worked cases.
def test_shipped_fixture_shape():
    cases = load_table_fixture(shipped_fixture_path())
    assert list(cases) == list("abcdefghijk")
    assert all(len(values) == 20 for values in cases.values())


def test_case_a_in_fixture_matches_traversal():
    assert assignment(load_table_fixture(shipped_fixture_path())["a"]) == CASE_A


def test_fixture_raw_statuses():
    report = check_fixture(
        enumerate_representatives(), load_table_fixture(shipped_fixture_path())
    )
    by_case = {r.case_id: r for r in report.results}
    assert by_case["h"].status is MatchStatus.UNMATCHED
    assert not all(r.status is not MatchStatus.UNMATCHED for r in report.results)
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
    assert all(r.status is not MatchStatus.UNMATCHED for r in report.results)
    by_case = {r.case_id: r for r in report.results}
    assert by_case["h"].status is MatchStatus.MATCHED_WITH_ERRATUM
    assert [r.case_id for r in report.results if r.erratum_applied] == ["h"]
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
    cases = load_table_fixture(shipped_fixture_path())
    mirrored = mirror_table(traverse(canonical_818(), StartSpec("K", CW)))
    assert mirrored.values == cases["k"]


def test_multiset_violations_clean_case():
    cases = load_table_fixture(shipped_fixture_path())
    assert case_multiset_violations(cases["a"]) == []


@given(st.permutations(range(1, 21)))
def test_any_permutation_of_one_to_twenty_is_clean(values):
    assert case_multiset_violations(tuple(values)) == []


def test_one_to_nineteen_misses_twenty():
    assert case_multiset_violations(tuple(range(1, 20))) == ["value 20 missing"]


def _case_a_with(changes):
    """Case a's values with the ``(site, role): value`` entries of ``changes`` replaced."""
    return tuple({**CASE_A, **changes}[key] for key in TABLE_KEYS)


@pytest.mark.parametrize(
    "changes, diags",
    [
        pytest.param({("K", Role.THROUGH): 2}, ["value 2 duplicated at G under, K through", "value 1 missing"],
                     id="one-missing-two-repeated"),
        pytest.param({("A", Role.OVER): 0, ("A", Role.UNDER): 21},
                     ["value 0 out of range at A over", "value 21 out of range at A under",
                      "value 13 missing", "value 19 missing"],
                     id="zero-and-twenty-one"),
        pytest.param({("A", Role.OVER): 25, ("B", Role.OVER): 25},
                     ["value 25 out of range at A over, B over", "value 8 missing", "value 13 missing"],
                     id="out-of-range-at-two-places"),
        pytest.param({("L", Role.THROUGH): -3}, ["value -3 out of range at L through", "value 16 missing"],
                     id="negative"),
    ],
)
def test_multiset_violations_name_every_place_in_order(changes, diags):
    assert case_multiset_violations(_case_a_with(changes)) == diags


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_not_utf8_names_its_path_clipped(tmp_path):
    (tmp_path / ("d" * 200)).mkdir()
    path = tmp_path / ("d" * 200) / "not_utf8.csv"
    path.write_bytes(b"\xff\xfecase,site,role,value\n")
    with pytest.raises(FixtureParseError) as exc:
        load_table_fixture(path)
    assert str(exc.value) == f"{cut_path(str(path))}: not UTF-8 text"
    assert "/not_utf8.csv (" in str(exc.value)


def test_a_fixture_of_exactly_the_byte_limit_loads_and_one_byte_more_does_not(tmp_path):
    shipped = Path(shipped_fixture_path()).read_bytes()
    tails = [f",{site},{role.value},{value}\n".encode() for value, (site, role) in enumerate(TABLE_KEYS, 1)]
    room = MAX_FIXTURE_BYTES - len(shipped) - sum(map(len, tails))
    case_id = b"p" * (room // len(tails))
    tails[0] = tails[0].replace(b",1\n", b"," + b"0" * (room % len(tails)) + b"1\n")  # the odd bytes
    path = tmp_path / "full.csv"
    path.write_bytes(shipped + b"".join(case_id + tail for tail in tails))
    assert path.stat().st_size == MAX_FIXTURE_BYTES
    cases = load_table_fixture(path)
    assert cases[case_id.decode()] == tuple(range(1, 21))
    with open(path, "ab") as fh:
        fh.write(b"\n")
    with pytest.raises(FixtureParseError) as exc:
        load_table_fixture(path)
    assert str(exc.value) == f"{cut_path(str(path))}: larger than {MAX_FIXTURE_BYTES} bytes"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("load", [load_table_fixture, load_errata])
def test_a_device_is_read_up_to_the_byte_limit(load):
    with pytest.raises(FixtureParseError) as exc:
        load("/dev/zero")
    assert str(exc.value) == f"/dev/zero: larger than {MAX_FIXTURE_BYTES} bytes"


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
        ("case,site,role,value\n", "line 1: no cases"),
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
        # The csv module's own limit is a parse error like any other.
        pytest.param(
            f"case,site,role,value\nx,A,over,{'1' * 200_000}\n", "line 2: field larger than field limit (131072)",
            id="field-limit",
        ),
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
    cases = load_table_fixture(shipped_fixture_path())
    errata = load_errata(shipped_errata_path())
    assert errata == {"h": {TABLE_KEYS.index(("D", Role.OVER)): (12, 2)}}
    corrected = apply_errata("h", cases["h"], errata["h"])
    assert corrected != cases["h"]
    assert corrected == traverse(canonical_818(), StartSpec("A", CCW, Role.UNDER)).values
    assert case_multiset_violations(corrected) == []
    assert apply_errata("a", cases["a"], {}) == cases["a"]


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


@pytest.mark.parametrize(
    "rows, message",
    [
        # A second row for one key would chain onto the first, or repeat it.
        pytest.param(["h,D,over,12,2", "h,D,over,2,5"], "line 3: duplicate erratum D over in case h", id="chained"),
        pytest.param(["h,D,over,12,2", "h,D,over,12,2"], "line 3: duplicate erratum D over in case h", id="repeated"),
        pytest.param(["h,D,over,12,2", ",D,over,12,2"], "line 3: empty case id", id="empty-case"),
        pytest.param(
            [f"h,D,over,12,{'2' * 200_000}"], "line 2: field larger than field limit (131072)", id="field-limit"
        ),
    ],
)
def test_errata_parse_messages(tmp_path, rows, message):
    body = "case,site,role,value,corrected_value\n" + "".join(f"{row}\n" for row in rows)
    path = _write(tmp_path, "errata.csv", body)
    with pytest.raises(FixtureParseError) as exc:
        load_errata(path)
    assert str(exc.value) == message


def test_errata_rows_for_distinct_keys_all_apply(tmp_path):
    # B over and D over both hold 12 in case h; each row corrects its own key.
    path = _write(tmp_path, "errata.csv", "case,site,role,value,corrected_value\nh,D,over,12,2\nh,B,over,12,7\n")
    errata = load_errata(path)
    cases = load_table_fixture(shipped_fixture_path())
    corrected = assignment(apply_errata("h", cases["h"], errata["h"]))
    assert (corrected["D", Role.OVER], corrected["B", Role.OVER]) == (2, 7)


def test_header_only_errata_corrects_nothing(tmp_path):
    path = _write(tmp_path, "errata.csv", "case,site,role,value,corrected_value\n")
    assert load_errata(path) == {}


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
