"""Golden gate for the table paths of the command line.

``data/cli_golden.json`` holds the stdout and exit code of ``traverse``
for every start spec (csv and json), of ``analyze`` for every ensemble
(all three formats) and of ``analyze --state`` for every start spec
(json).  A mirror table has the same site totals as its table, so the
per-state reports cover all eighty tables.  Re-capture it only when a
change to that output is intended:

    PYTHONPATH=src python tests/test_golden_cli.py

The benchmark's ``cli`` workload pins the other commands: each of its
``CLI_INVOCATIONS`` must print its ``perfbench/golden`` file.  That
table is read from the benchmark's source, which is not imported.

``data/cli_help.json`` holds the stdout of ``knot818 -h`` and of
``knot818 <command> -h`` for each command at 80 columns, as CPython
3.11 prints it; argparse words its help differently on other releases.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from knot818 import cli
from knot818.diagram import BRANCH_SITES, LETTER_SITES

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
HELP_GOLDEN = Path(__file__).parent / "data" / "cli_help.json"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_STARTS = [
    (site, direction, role)
    for site in LETTER_SITES
    for direction in ("cw", "ccw")
    for role in ((None,) if site in BRANCH_SITES else ("over", "under"))
]
_START_ARGS = [
    ["--start", site, "--dir", direction] + (["--role", role] if role else [])
    for site, direction, role in _STARTS
]
_STATE_SPECS = [",".join(filter(None, start)) for start in _STARTS]

INVOCATIONS = [
    ["traverse", *start, "--format", fmt] for start in _START_ARGS for fmt in ("csv", "json")
] + [
    ["analyze", "--ensemble", ensemble, "--format", fmt]
    for ensemble in ("reps10", "all40", "with-mirrors")
    for fmt in ("text", "csv", "json")
] + [
    ["analyze", "--state", spec, "--format", "json"] for spec in _STATE_SPECS
]


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert _run(argv) == golden[" ".join(argv)]


def _perfbench_invocations():
    """``(name, argv, exit code)`` for each row of perfbench's CLI_INVOCATIONS."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    (table,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CLI_INVOCATIONS"]
    )
    return [pytest.param(argv, code, name, id=name) for name, argv, code in ast.literal_eval(table)]


@pytest.mark.parametrize("argv, code, name", _perfbench_invocations())
def test_cli_output_matches_perfbench_golden(monkeypatch, tmp_path, argv, code, name):
    monkeypatch.chdir(tmp_path)  # embed writes its points file here
    result = _run(argv)
    golden = (PERFBENCH / "golden" / f"{name}.stdout").read_bytes()
    assert (result["exit"], result["stdout"].encode("utf-8")) == (code, golden)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse words its help differently on other releases")
@pytest.mark.parametrize("line", list(json.loads(HELP_GOLDEN.read_text(encoding="utf-8"))))
def test_help_matches_golden(monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads(HELP_GOLDEN.read_text(encoding="utf-8"))[line]
    assert _run(line.split()) == {"exit": 0, "stdout": want}


def test_golden_lists_every_invocation(golden):
    assert len(_START_ARGS) == len(_STATE_SPECS) == 40
    assert list(golden) == [" ".join(argv) for argv in INVOCATIONS]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    captured = {" ".join(argv): _run(argv) for argv in INVOCATIONS}
    GOLDEN.write_text(json.dumps(captured, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(captured)} invocations to {GOLDEN}", file=sys.stderr)
