"""The experiment scripts under scripts/, run in-process through main()."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import SCRIPTS, load_script

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.stem)
def test_every_script_loads_and_prints_help(capsys, path):
    script = load_script(path.stem)
    with pytest.raises(SystemExit) as exc:
        script.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_defect_summary_states_text(capsys):
    script = load_script("defect_summary")
    assert script.main(["--states"]) == 0
    expected = (DATA / "defect_summary_states.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_alexander_ladder_quick(capsys):
    script = load_script("alexander_ladder")
    assert script.main(["--quick", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [
        "rung", "strands", "letters", "burau_ms", "det_ms", "alexander_ms", "closure_ms", "embed_ms", "winding_ms",
        "det_bits", "bound_bits", "embed_peak_b",
    ]
    rows = [line.split() for line in lines[1:]]
    assert [row[:3] for row in rows] == [["3-strand/50", "3", "50"], ["3-strand/200", "3", "200"]]
    assert [int(row[9]) for row in rows] == [4, 41]
    assert [int(row[10]) for row in rows] == [20, 91]
    assert all(40 < float(row[11]) < 60 for row in rows)


def test_cold_start_quick(capsys):
    script = load_script("cold_start")
    assert script.main(["--quick", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["child", "min_ms", "q1_ms", "median_ms", "q3_ms"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["bare", "argparse", "build", "traverse"]
    # one round: its one time is the minimum and every quartile
    assert all(float(row[1]) > 0 and len(set(row[1:])) == 1 for row in rows)


def test_cold_start_runs_the_benchmark_commands():
    script = load_script("cold_start")
    names = [name for name, _code, _want in script.children(script.SRC)]
    assert names == [
        "bare", "argparse", "build", "invariants", "traverse", "analyze", "check_fixture_errata", "check_fixture", "embed"
    ]


def test_alexander_ladder_rungs_close_to_knots():
    script = load_script("alexander_ladder")
    rungs = script.ladder()
    assert [len(braid) for _, braid in rungs] == [
        50, 200, 800, 3000, 6000, 15, 24, 35, 48, 63, 99, 143, 63, 245, 497, 1001
    ]
    assert all(braid.is_knot_closure for _, braid in rungs)
