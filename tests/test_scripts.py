"""The experiment scripts under scripts/, run in-process through main()."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import load_script
from knot818 import cli
from knot818.braid import BadRadiiError, BadSamplingError

DATA = Path(__file__).parent / "data"


def test_regenerate_reference_cases_check(capsys):
    script = load_script("regenerate_reference_cases")
    assert script.main(["--check"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "case,site,role,value"
    assert len(out.splitlines()) == 1 + 11 * 20
    verdicts = err.splitlines()
    assert len(verdicts) == 11
    assert all(": agrees (" in line for line in verdicts)
    assert "case h: agrees (A,ccw,under)" in verdicts


def test_defect_summary_states_text(capsys):
    script = load_script("defect_summary")
    assert script.main(["--states"]) == 0
    expected = (DATA / "defect_summary_states.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_export_embedding_matches_cli_embed(capsys, tmp_path):
    script = load_script("export_embedding")
    script_csv, cli_csv, markers = tmp_path / "script.csv", tmp_path / "cli.csv", tmp_path / "markers.csv"
    assert script.main(["--out", str(script_csv), "--markers", str(markers)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote 1537 points in 1 loop(s) to {script_csv}",
        f"wrote 8 markers to {markers}",
        "winding phase: 18.84955592153876 (6.000000 pi)",
    ]
    assert cli.main(["embed", "--out", str(cli_csv)]) == 0
    assert script_csv.read_bytes() == cli_csv.read_bytes()
    assert markers.read_text(encoding="utf-8").splitlines()[0] == (
        "crossing,sign,x,y,over_dx,over_dy,under_dx,under_dy"
    )


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_export_embedding_points_per_slot_must_be_positive(capsys, tmp_path, value):
    script = load_script("export_embedding")
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        script.main(["--out", str(out), "--points-per-slot", value])
    assert exc.value.code == 2
    assert "--points-per-slot" in capsys.readouterr().err
    assert not out.exists()


def test_export_embedding_shares_the_radii_checks(capsys, tmp_path):
    script = load_script("export_embedding")
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        script.main(["--out", str(out), "--radii", "a,b,c"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --radii: bad radii list 'a,b,c'\n")
    with pytest.raises(BadRadiiError):
        script.main(["--out", str(out), "--radii", "1,2,nan"])
    assert not out.exists()


def test_export_embedding_rejects_undersampling(tmp_path):
    script = load_script("export_embedding")
    out = tmp_path / "x.csv"
    with pytest.raises(BadSamplingError):
        script.main(["--out", str(out), "--strands", "2", "--braid", "1", "--points-per-slot", "2"])
    assert not out.exists()


def test_alexander_ladder_quick(capsys):
    script = load_script("alexander_ladder")
    assert script.main(["--quick", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [
        "rung", "strands", "letters", "burau_ms", "det_ms", "alexander_ms", "embed_ms", "det_bits"
    ]
    rows = [line.split() for line in lines[1:]]
    assert [row[:3] for row in rows] == [["3-strand/50", "3", "50"], ["3-strand/200", "3", "200"]]
    assert [int(row[7]) for row in rows] == [4, 41]


def test_alexander_ladder_rungs_close_to_knots():
    script = load_script("alexander_ladder")
    rungs = script.ladder()
    assert [len(braid) for _, braid in rungs] == [50, 200, 800, 3000, 15, 24, 35, 48, 63, 63, 245, 497, 1001]
    assert all(braid.is_knot_closure for _, braid in rungs)
