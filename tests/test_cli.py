"""End-to-end command line behavior, including the exit code contract."""

import json

import pytest

from knot818 import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_defaults(capsys):
    code, out, _ = run(capsys, "build")
    assert code == 0
    assert out.splitlines() == [
        "crossings: 8",
        "writhe: 0",
        "vertices: 4",
        "gauss: VK UG OC UD OE VJ UF OB UC OH VI UE OA UB OG VL UH OD UA OF",
    ]


def test_build_trefoil(capsys):
    code, out, _ = run(capsys, "build", "--braid", "1 1 1", "--strands", "2")
    assert code == 0
    assert "gauss: O1 U2 O3 U1 O2 U3" in out
    assert "writhe: 3" in out
    assert "vertices: 0" in out


def test_build_vertices_off(capsys):
    code, out, _ = run(capsys, "build", "--vertices", "off")
    assert code == 0
    assert "vertices: 0" in out
    assert "crossings: 8" in out


def test_build_vertices_forced_on_wrong_shape(capsys):
    code, _, err = run(capsys, "build", "--braid", "1 1 1", "--strands", "2", "--vertices", "on")
    assert code == 3
    assert "error:" in err


def test_invariants_defaults(capsys):
    code, out, _ = run(capsys, "invariants")
    assert code == 0
    assert out.splitlines() == [
        "alexander: 1 - 5*t + 10*t^2 - 13*t^3 + 10*t^4 - 5*t^5 + t^6",
        "writhe: 0",
        "phase: 6π",
        "determinant: 45",
    ]


def test_invariants_radians(capsys):
    code, out, _ = run(capsys, "invariants", "--radians")
    assert code == 0
    phase_line = next(l for l in out.splitlines() if l.startswith("phase:"))
    value = float(phase_line.split()[1])
    assert value == pytest.approx(6 * 3.141592653589793, abs=1e-9)


def test_invariants_not_a_knot(capsys):
    code, _, err = run(capsys, "invariants", "--braid", "1 1", "--strands", "2")
    assert code == 3
    assert "not a knot" in err


def test_invariants_long_link_error_is_short(capsys):
    code, _, err = run(capsys, "invariants", "--braid", " ".join(["1"] * 600), "--strands", "2")
    assert code == 3
    assert "600-letter" in err and "2 components" in err
    assert len(err) < 200


def test_traverse_text(capsys):
    code, out, _ = run(capsys, "traverse", "--start", "K")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# start K,cw"
    assert len(lines) == 21
    assert "K through  1" in out


def test_traverse_csv(capsys):
    code, out, _ = run(capsys, "traverse", "--start", "A", "--dir", "ccw", "--role", "under", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "site,role,value"
    assert "A,under,1" in lines
    assert len(lines) == 21


def test_traverse_json(capsys):
    code, out, _ = run(capsys, "traverse", "--start", "F", "--role", "over", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["start"] == "F,cw,over"
    assert payload["mirrored"] is False
    values = {(e["site"], e["role"]): e["value"] for e in payload["entries"]}
    assert values[("F", "over")] == 1
    assert len(values) == 20


def test_traverse_missing_role_is_usage_error(capsys):
    code, _, err = run(capsys, "traverse", "--start", "A")
    assert code == 2
    assert "error:" in err


def test_traverse_env_format(capsys, monkeypatch):
    monkeypatch.setenv("KNOT818_FORMAT", "csv")
    code, out, _ = run(capsys, "traverse", "--start", "K")
    assert code == 0
    assert out.splitlines()[0] == "site,role,value"


def test_flag_beats_env_format(capsys, monkeypatch):
    monkeypatch.setenv("KNOT818_FORMAT", "csv")
    code, out, _ = run(capsys, "traverse", "--start", "K", "--format", "text")
    assert code == 0
    assert out.startswith("# start K,cw")


def test_bad_env_format_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("KNOT818_FORMAT", "yaml")
    code, _, err = run(capsys, "traverse", "--start", "K")
    assert code == 2
    assert "yaml" in err


def test_analyze_single_state_csv(capsys):
    code, out, _ = run(capsys, "analyze", "--state", "K,cw", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class,site,total"
    assert "branch-center,K,1" in lines
    assert "inner-shoulder,A,32" in lines
    assert "outer-shoulder,E,17" in lines
    assert len(lines) == 13


def test_analyze_reps10_json(capsys):
    code, out, _ = run(capsys, "analyze", "--ensemble", "reps10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["grand_total"] == 2100
    classes = {c["class"]: c for c in payload["classes"]}
    assert classes["inner-shoulder"]["totals"] == {"A": 180, "B": 220, "C": 220, "D": 220}
    assert classes["branch-center"]["mean"] == "105"
    assert classes["branch-center"]["max_deviation"] == "15"
    assert classes["branch-center"]["mismatch"] is True


def test_analyze_all40_text(capsys):
    code, out, _ = run(capsys, "analyze", "--ensemble", "all40")
    assert code == 0
    assert "mismatch=no" in out
    assert "mismatch=yes" not in out
    assert "total: 8400" in out


def test_analyze_state_and_ensemble_are_exclusive(capsys):
    code, _, err = run(capsys, "analyze", "--ensemble", "all40", "--state", "K,cw")
    assert code == 2


def test_analyze_bad_state(capsys):
    code, _, err = run(capsys, "analyze", "--state", "K")
    assert code == 2
    assert "SITE,DIR" in err


def test_check_fixture_raw(capsys):
    code, out, _ = run(capsys, "check-fixture")
    assert code == 1
    lines = out.splitlines()
    assert "case a: MATCHED (K,cw)" in lines
    assert "case h: UNMATCHED" in lines
    assert "  inconsistency: value 12 duplicated at B over, D over" in lines
    assert "  inconsistency: value 2 missing" in lines
    assert lines[-1] == "10 of 11 cases matched"


def test_check_fixture_with_errata(capsys):
    code, out, _ = run(capsys, "check-fixture", "--errata")
    assert code == 0
    lines = out.splitlines()
    assert "case h: MATCHED_WITH_ERRATUM (A,ccw,under)" in lines
    assert "case g: MATCHED (mirror(A,cw,under))" in lines
    assert "case k: MATCHED (mirror(K,cw))" in lines
    assert lines[-1] == "all 11 cases matched"


def test_check_fixture_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("case,site\n", encoding="utf-8")
    code, _, err = run(capsys, "check-fixture", str(bad))
    assert code == 2
    assert "header" in err


def test_embed_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "points.csv"
    code, out, _ = run(capsys, "embed", "--out", str(out_path), "--points-per-slot", "8")
    assert code == 0
    assert "1 loop(s)" in out
    assert "phase: 6π" in out
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "loop,x,y"
    assert len(lines) == 1 + 3 * 8 * 8 + 1  # header + samples + closing point
    loop, x, y = lines[1].split(",")
    assert loop == "0"
    float(x), float(y)


def test_embed_points_per_slot_must_be_positive(capsys, tmp_path):
    for value in ("0", "-3", "x"):
        code, _, err = run(capsys, "embed", "--out", str(tmp_path / "x.csv"), "--points-per-slot", value)
        assert code == 2
        assert "--points-per-slot" in err
    assert not (tmp_path / "x.csv").exists()


def test_embed_bad_radii_order(capsys, tmp_path):
    code, _, err = run(capsys, "embed", "--out", str(tmp_path / "x.csv"), "--radii", "3,2,1")
    assert code == 3


def test_embed_unparseable_radii(capsys, tmp_path):
    code, _, err = run(capsys, "embed", "--out", str(tmp_path / "x.csv"), "--radii", "1;2;3")
    assert code == 2
    assert "bad radii" in err


def test_usage_errors_from_argparse(capsys):
    assert run(capsys, "traverse")[0] == 2  # missing --start
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "build", "--braid", "1 x")[0] == 2
    assert run(capsys, "build", "--braid", "")[0] == 2


def test_internal_errors_exit_one(capsys, monkeypatch):
    def boom(*_args, **_kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "alexander_from_braid", boom)
    code, _, err = run(capsys, "invariants")
    assert code == 1
    assert "internal error: wires crossed" in err


def test_output_is_deterministic(capsys):
    first = run(capsys, "analyze", "--ensemble", "with-mirrors", "--format", "json")
    second = run(capsys, "analyze", "--ensemble", "with-mirrors", "--format", "json")
    assert first == second
    payload = json.loads(first[1])
    assert payload["grand_total"] == 2 * 2100
