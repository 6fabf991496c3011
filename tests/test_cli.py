"""End-to-end command line behavior, including the exit code contract."""

import argparse
import ast
import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from conftest import crossing_sign_from_geometry, cut, cut_path, knot_braids
import knot818
from knot818 import cli, invariants
from knot818.braid import BRAID_818, BraidWord, InvalidBraidError, NotAKnotError, annular_embed, winding_number
from knot818.errors import ECHO_LIMIT, DomainError, Knot818Error, UsageError, clip, clip_path
from knot818.invariants import ZeroPolynomialError
from knot818.laurent import InexactDivisionError, ZeroArgumentError
from knot818.traversal import MAX_FIXTURE_BYTES


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



def test_invariants_defaults(capsys):
    code, out, _ = run(capsys, "invariants")
    assert code == 0
    assert out.splitlines() == [
        "alexander: 1 - 5*t + 10*t^2 - 13*t^3 + 10*t^4 - 5*t^5 + t^6",
        "writhe: 0",
        "phase: 6π",
        "determinant: 45",
    ]


@given(knot_braids(max_strands=5))
@example(BraidWord(2, (1,)))
@example(BraidWord(2, (1, 1, 1)))
@example(BraidWord(3, (1, 2)))
@settings(max_examples=40, deadline=None)
def test_invariants_phase_matches_a_64_slot_embedding(braid):
    argv = ["invariants", "--braid", " ".join(map(str, braid.letters)), "--strands", str(braid.strands)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    turns = winding_number(annular_embed(braid, slots_per_letter=64))
    expected = f"{2 * turns}π" if turns else "0"
    assert out.getvalue().splitlines()[2] == f"phase: {expected}"


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


def test_traverse_explicit_text_format(capsys):
    code, out, _ = run(capsys, "traverse", "--start", "K", "--format", "text")
    assert code == 0
    assert out == run(capsys, "traverse", "--start", "K")[1]
    assert out.startswith("# start K,cw\n")


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


# The bytes the default embedding of the main braid writes, pinned when the
# marker CSV moved into `knot818 embed` from a separate export script.
POINTS_818_SHA256 = "b4c21565e15b83ef73062ff4a16fab11caa081ebed383e488fc128fe9a31700e"
MARKERS_818_SHA256 = "7f103fc5d3da7917fb3c61dd43bbac1bde36535d295b5b12068e197ed2c0c32f"


def test_embed_markers_default(capsys, tmp_path):
    points, markers = tmp_path / "points.csv", tmp_path / "markers.csv"
    code, out, _ = run(capsys, "embed", "--out", str(points), "--markers", str(markers))
    assert code == 0
    assert out.splitlines() == [
        f"wrote 1537 points in 1 loop(s) to {points}",
        f"wrote 8 markers to {markers}",
        "phase: 6π",
    ]
    assert hashlib.sha256(points.read_bytes()).hexdigest() == POINTS_818_SHA256
    assert hashlib.sha256(markers.read_bytes()).hexdigest() == MARKERS_818_SHA256


@pytest.mark.parametrize(
    "braid, extra",
    [
        (BRAID_818, []),
        (BraidWord(3, (1, 2, -1, 2, 1)), ["--radii", "1,2.5,4", "--points-per-slot", "5"]),
        (BraidWord(4, (1, -2, 3, -1, 2, -3, 1)), ["--radii", "0.5,1,1.75,3", "--points-per-slot", "5"]),
    ],
    ids=["main", "two-loops", "four-strands"],
)
def test_embed_marker_signs_read_back(capsys, tmp_path, braid, extra):
    markers = tmp_path / "markers.csv"
    word = ["--braid", " ".join(map(str, braid.letters)), "--strands", str(braid.strands)]
    assert run(capsys, "embed", "--out", str(tmp_path / "points.csv"), "--markers", str(markers), *word, *extra)[0] == 0
    header, *rows = markers.read_text(encoding="utf-8").splitlines()
    assert header == "crossing,sign,x,y,over_dx,over_dy,under_dx,under_dy"
    assert [int(row.split(",")[0]) for row in rows] == list(range(len(braid)))
    for row in rows:
        crossing, sign, _x, _y, *directions = row.split(",")
        over_dx, over_dy, under_dx, under_dy = map(float, directions)
        assert int(sign) == crossing_sign_from_geometry(complex(over_dx, over_dy), complex(under_dx, under_dy))
        assert int(sign) == (1 if braid.letters[int(crossing)] > 0 else -1)


def _readme_commands():
    """Each ``$ knot818 ...`` block of README.md: its arguments and the lines it shows."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = []
    for block in readme.split("```")[1::2]:  # the fenced blocks
        for chunk in block.split("\n$ knot818 ")[1:]:
            command, *shown = chunk.strip("\n").split("\n")
            blocks.append(pytest.param(shlex.split(command), shown, id=command))
    return blocks


@pytest.mark.parametrize("argv, shown", _readme_commands())
def test_readme_tour_prints_what_it_shows(capsys, monkeypatch, tmp_path, argv, shown):
    # A "..." line stands for any run of lines.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    pattern = "".join("(?:.*\n)*?" if line == "..." else re.escape(line) + "\n" for line in shown)
    assert re.fullmatch(pattern, out), out


def test_option_surface_is_pinned():
    # Every option each subcommand accepts, the positional fixture path
    # included: a new option or environment knob lands only with an edit here.
    (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        command: {
            option
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings or [action.dest]
        }
        for command, parser in subparsers.choices.items()
    }
    braid = {"--braid", "--strands"}
    assert surface == {
        "build": braid | {"--vertices"},
        "invariants": braid,
        "traverse": {"--start", "--dir", "--role", "--format"},
        "analyze": {"--ensemble", "--state", "--format"},
        "check-fixture": {"fixture", "--errata"},
        "embed": braid | {"--out", "--markers", "--radii", "--points-per-slot"},
    }
    assert sum(map(len, surface.values())) == 20


def _usage_error(command, message):
    """argparse's stderr for a rejected option of ``knot818 command``."""
    parser = cli.build_parser()
    if command is not None:
        (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[command]
    return f"{parser.format_usage()}{parser.prog}: error: {message}\n"


def fails(name, argv, code, stderr, leaves=()):
    return pytest.param(argv, code, stderr, leaves, id=name)


OUT = ["--out", "{tmp}/x.csv"]
LONG_LINK = " ".join(["1"] * 600)
# Outside text an error quotes is cut (conftest.cut) to its first 40 characters.
LONG_X = "x" * 20_000
LONG_LETTER = "1" + "0" * 3_999
# More digits than CPython's int() converts from a string (4,300 by default).
MANY_DIGITS = "1" * 5_000
LONG_RADII = ",".join(["1"] * 2_500)
LONG_WALK = " ".join(["1"] * 2_001)  # 1000 strands * 2001 letters, one over the walk cap
FIELD_OVER_LIMIT = "1" * 200_000  # one CSV cell over the csv module's 131072-character limit
# A relative path longer than any file name the OS takes, so opening it fails and nothing is written.
LONG_PATH = "p" * 6_005
# A missing file in a deep directory: the error keeps the path's tail (conftest.cut_path), so its name.
DEEP_MISSING = "no-dir/" * 10 + "missing.csv"
NAME_TOO_LONG = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"


# Every failure path of the command line: (argv, exit code, exact stderr,
# the files the failed run leaves).  "{tmp}" stands for the directory of
# the files that the failure_files fixture writes, "{name}" for its name.
# The run's working directory is that directory's parent, so "{tmp}" is
# filled in as its name, and the paths an error echoes stay short enough
# for clip_path to leave them whole.
FAILURES = [
    # UsageError, exit 2
    fails("non-integer-letter", ["build", "--braid", "1 x"], 2, "error: token 1: 'x' is not an integer\n"),
    fails("empty-braid", ["build", "--braid", ""], 2, "error: empty braid word\n"),
    fails("letter-out-of-range", ["build", "--braid", "1 5"], 2,
          "error: token 1: letter 5 out of range for 3 strands\n"),
    fails("long-non-integer-letter", ["build", "--braid", LONG_X], 2,
          f"error: token 0: {cut(repr(LONG_X))} is not an integer\n"),
    fails("long-letter-out-of-range", ["build", "--braid", LONG_LETTER], 2,
          f"error: token 0: letter {cut(LONG_LETTER)} out of range for 3 strands\n"),
    fails("long-many-digit-letter", ["build", "--braid", f"1 {MANY_DIGITS} x"], 2,
          f"error: token 1: letter {cut(MANY_DIGITS)} out of range for 3 strands\n"),
    fails("long-strands-letter-out-of-range", ["build", "--strands", LONG_LETTER, "--braid", "0"], 2,
          f"error: token 0: letter 0 out of range for {cut(LONG_LETTER)} strands\n"),
    # The strand rule comes before any letter.
    *[
        fails(f"build-strands-{n}-with-a-letter", ["build", "--strands", n, "--braid", "1"], 2,
              "error: a braid needs at least 2 strands\n")
        for n in ("0", "1")
    ],
    *[
        fails(f"{command}-strands-{n}", [command, "--strands", n, "--braid", "", *extra], 2,
              "error: a braid needs at least 2 strands\n")
        for command, n, extra in [
            ("build", "1", []), ("build", "-5", []), ("invariants", "1", []), ("embed", "1", OUT),
        ]
    ],
    fails("traverse-missing-role", ["traverse", "--start", "A"], 2,
          "error: shoulder start A needs an over or under entry role\n"),
    fails("traverse-unknown-site", ["traverse", "--start", "Z"], 2, "error: start site must be one of A..L, got 'Z'\n"),
    # Only ASCII folds: dotless i would upper-case to I, sharp s to SS.
    fails("traverse-non-ascii-site", ["traverse", "--start", "ı"], 2, "error: start site must be one of A..L, got 'ı'\n"),
    fails("analyze-non-ascii-site", ["analyze", "--state", "ß,cw"], 2, "error: start site must be one of A..L, got 'ß'\n"),
    fails("analyze-bad-state", ["analyze", "--state", "K"], 2, "error: state must be SITE,DIR[,ROLE], got 'K'\n"),
    fails("analyze-bad-direction", ["analyze", "--state", "K,up"], 2,
          "error: direction must be cw or ccw, got 'up'\n"),
    fails("long-analyze-state", ["analyze", "--state", LONG_X[:10_000]], 2,
          f"error: state must be SITE,DIR[,ROLE], got {cut(repr(LONG_X[:10_000]))}\n"),
    fails("long-analyze-direction", ["analyze", "--state", f"K,{LONG_X}"], 2,
          f"error: direction must be cw or ccw, got {cut(repr(LONG_X))}\n"),
    fails("long-analyze-role", ["analyze", "--state", f"A,cw,{LONG_X}"], 2,
          f"error: entry role must be over or under, got {cut(repr(LONG_X))}\n"),
    # A role that StartSpec judges, as it judges a traverse --role.
    fails("analyze-through-at-shoulder", ["analyze", "--state", "A,cw,through"], 2,
          "error: shoulder start A needs an over or under entry role\n"),
    fails("analyze-through-at-branch", ["analyze", "--state", "K,cw,through"], 2,
          "error: branch start K takes no entry role\n"),
    fails("long-traverse-site", ["traverse", "--start", LONG_X], 2,
          f"error: start site must be one of A..L, got {cut(repr(LONG_X.upper()))}\n"),
    fails("check-fixture-bad-header", ["check-fixture", "{tmp}/bad_header.csv"], 2,
          "error: line 1: expected header case,site,role,value\n"),
    fails("check-fixture-header-only", ["check-fixture", "{tmp}/header_only.csv"], 2, "error: line 1: no cases\n"),
    fails("long-check-fixture-site", ["check-fixture", "{tmp}/long_site.csv"], 2,
          f"error: line 2: unknown site {cut(repr(LONG_X))}\n"),
    fails("long-check-fixture-value", ["check-fixture", "{tmp}/long_value.csv"], 2,
          f"error: line 2: value {cut(repr(LONG_X))} is not an integer\n"),
    fails("long-check-fixture-many-digits", ["check-fixture", "{tmp}/many_digits.csv"], 2,
          f"error: line 2: value {cut(repr(MANY_DIGITS))} has more than 4300 digits\n"),
    fails("long-check-fixture-case", ["check-fixture", "{tmp}/long_case.csv"], 2,
          f"error: line 2: case {cut(LONG_X)} incomplete (1 of 20 entries)\n"),
    fails("long-errata-case", ["check-fixture", "--errata", "{tmp}/long_case_errata.csv"], 2,
          f"error: erratum for case {cut(LONG_X)}: the fixture has no such case\n"),
    fails("check-fixture-not-utf8", ["check-fixture", "{tmp}/not_utf8.csv"], 2,
          "error: {tmp}/not_utf8.csv: not UTF-8 text\n"),
    fails("errata-not-utf8", ["check-fixture", "--errata", "{tmp}/not_utf8.csv"], 2,
          "error: {tmp}/not_utf8.csv: not UTF-8 text\n"),
    fails("errata-disagrees", ["check-fixture", "--errata", "{tmp}/wrong_errata.csv"], 2,
          "error: erratum for case h expects D over = 13, fixture has 12\n"),
    # Rows for cases that match raw, or that the fixture lacks, are checked too.
    fails("errata-three-rows", ["check-fixture", "--errata", "{tmp}/three_row_errata.csv"], 2,
          "error: erratum for case z: the fixture has no such case\n"),
    fails("errata-unknown-case", ["check-fixture", "--errata", "{tmp}/unknown_case_errata.csv"], 2,
          "error: erratum for case z: the fixture has no such case\n"),
    fails("errata-disagrees-on-raw-match", ["check-fixture", "--errata", "{tmp}/raw_match_errata.csv"], 2,
          "error: erratum for case a expects A over = 99, fixture has 13\n"),
    # One row per (case, site, role) key: a second one would chain onto the first.
    fails("errata-chained", ["check-fixture", "--errata", "{tmp}/chained_errata.csv"], 2,
          "error: line 3: duplicate erratum D over in case h\n"),
    fails("errata-repeated", ["check-fixture", "--errata", "{tmp}/repeated_errata.csv"], 2,
          "error: line 3: duplicate erratum D over in case h\n"),
    fails("errata-empty-case-id", ["check-fixture", "--errata", "{tmp}/empty_case_errata.csv"], 2,
          "error: line 2: empty case id\n"),
    # A cell over the csv module's field limit is a parse error, not an internal one.
    fails("check-fixture-field-too-long", ["check-fixture", "{tmp}/field_too_long.csv"], 2,
          "error: line 2: field larger than field limit (131072)\n"),
    fails("errata-field-too-long", ["check-fixture", "--errata", "{tmp}/field_too_long_errata.csv"], 2,
          "error: line 2: field larger than field limit (131072)\n"),
    # A file over the byte limit is refused before the rest of it is read.
    fails("check-fixture-over-limit", ["check-fixture", "{tmp}/over_limit.csv"], 2,
          f"error: {{tmp}}/over_limit.csv: larger than {MAX_FIXTURE_BYTES} bytes\n"),
    fails("errata-over-limit", ["check-fixture", "--errata", "{tmp}/over_limit.csv"], 2,
          f"error: {{tmp}}/over_limit.csv: larger than {MAX_FIXTURE_BYTES} bytes\n"),
    # Checked before any write, however the two paths are spelled.
    fails("embed-markers-same-file", ["embed", *OUT, "--markers", "{tmp}/x.csv"], 2,
          "error: --out and --markers name one file: {tmp}/x.csv\n"),
    fails("embed-markers-same-file-dotdot", ["embed", *OUT, "--markers", "{tmp}/../{name}/x.csv"], 2,
          "error: --out and --markers name one file: {tmp}/../{name}/x.csv\n"),
    fails("long-embed-markers-same-file", ["embed", "--out", LONG_PATH, "--markers", LONG_PATH], 2,
          f"error: --out and --markers name one file: {cut_path(LONG_PATH)}\n"),
    # OSError, exit 2
    fails("check-fixture-missing", ["check-fixture", "{tmp}/missing.csv"], 2,
          "error: [Errno 2] No such file or directory: '{tmp}/missing.csv'\n"),
    fails("errata-missing", ["check-fixture", "--errata", "{tmp}/missing.csv"], 2,
          "error: [Errno 2] No such file or directory: '{tmp}/missing.csv'\n"),
    fails("check-fixture-directory", ["check-fixture", "{tmp}"], 2, "error: [Errno 21] Is a directory: '{tmp}'\n"),
    fails("embed-missing-directory", ["embed", "--out", "{tmp}/no-dir/x.csv"], 2,
          "error: [Errno 2] No such file or directory: '{tmp}/no-dir/x.csv'\n"),
    # The markers are written after the points, which stay complete.
    fails("embed-markers-missing-directory", ["embed", *OUT, "--markers", "{tmp}/no-dir/m.csv"], 2,
          "error: [Errno 2] No such file or directory: '{tmp}/no-dir/m.csv'\n", leaves=["x.csv"]),
    # An OSError's path is outside text too.
    fails("long-check-fixture-path", ["check-fixture", LONG_PATH], 2,
          f"error: {NAME_TOO_LONG}: {cut_path(repr(LONG_PATH))}\n"),
    fails("long-embed-out-path", ["embed", "--out", LONG_PATH], 2, f"error: {NAME_TOO_LONG}: {cut_path(repr(LONG_PATH))}\n"),
    fails("long-check-fixture-deep-missing", ["check-fixture", DEEP_MISSING], 2,
          f"error: [Errno 2] No such file or directory: {cut_path(repr(DEEP_MISSING))}\n"),
    # argparse, exit 2
    fails("no-such-command", ["no-such-command"], 2,
          _usage_error(None, "argument command: invalid choice: 'no-such-command' (choose from 'build',"
                       " 'invariants', 'traverse', 'analyze', 'check-fixture', 'embed')")),
    fails("traverse-missing-start", ["traverse"], 2,
          _usage_error("traverse", "the following arguments are required: --start")),
    fails("build-vertices-on", ["build", "--vertices", "on"], 2,
          _usage_error("build", "argument --vertices: invalid choice: 'on' (choose from 'auto', 'off')")),
    fails("build-strands-x", ["build", "--strands", "x"], 2,
          _usage_error("build", "argument --strands: invalid int value: 'x'")),
    fails("long-build-strands", ["build", "--strands", LONG_X], 2,
          _usage_error("build", f"argument --strands: invalid int value: {cut(repr(LONG_X))}")),
    fails("long-build-many-digit-strands", ["build", "--strands", MANY_DIGITS], 2,
          _usage_error("build", f"argument --strands: int value {cut(repr(MANY_DIGITS))} has more than 4300 digits")),
    *[
        fails(f"long-{command}-{option[2:]}", [command, *extra, option, LONG_X], 2,
              _usage_error(command, f"argument {option}: invalid choice: {cut(repr(LONG_X))} (choose from {choices})"))
        for command, extra, option, choices in [
            ("build", [], "--vertices", "'auto', 'off'"),
            ("traverse", ["--start", "A"], "--dir", "'cw', 'ccw'"),
            ("traverse", ["--start", "A"], "--role", "'over', 'under'"),
            ("traverse", ["--start", "A"], "--format", "'text', 'csv', 'json'"),
        ]
    ],
    fails("build-extra-argument", ["build", "x"], 2, _usage_error(None, "unrecognized arguments: x")),
    fails("long-build-extra-argument", ["build", LONG_X], 2,
          _usage_error(None, f"unrecognized arguments: {cut(LONG_X)}")),
    fails("long-build-unknown-option", ["build", f"--{LONG_X}"], 2,
          _usage_error(None, f"unrecognized arguments: {cut('--' + LONG_X)}")),
    # The OS takes no path with a NUL byte, so each path option rejects one as it is parsed.
    *[
        fails(f"{name}-nul-path", argv, 2, _usage_error(argv[0], f"argument {option}: path has a NUL byte: '\\x00'"))
        for name, option, argv in [
            ("check-fixture", "fixture", ["check-fixture", "\0"]),
            ("errata", "--errata", ["check-fixture", "--errata", "\0"]),
            ("embed-out", "--out", ["embed", "--out", "\0"]),
            ("embed-markers", "--markers", ["embed", *OUT, "--markers", "\0"]),
        ]
    ],
    fails("long-embed-nul-path", ["embed", "--out", LONG_X + "\0"], 2,
          _usage_error("embed", f"argument --out: path has a NUL byte: {cut(repr(LONG_X + chr(0)))}")),
    # argparse lists every choice after the clipped value, so these two
    # lines are 197 and 171 characters long: bounded, but over a long row's 160.
    fails("clipped-command", [LONG_X], 2,
          _usage_error(None, f"argument command: invalid choice: {cut(repr(LONG_X))} (choose from 'build',"
                       " 'invariants', 'traverse', 'analyze', 'check-fixture', 'embed')")),
    fails("clipped-analyze-ensemble", ["analyze", "--ensemble", LONG_X], 2,
          _usage_error("analyze", f"argument --ensemble: invalid choice: {cut(repr(LONG_X))}"
                       " (choose from 'reps10', 'all40', 'with-mirrors')")),
    fails("analyze-state-and-ensemble", ["analyze", "--ensemble", "all40", "--state", "K,cw"], 2,
          _usage_error("analyze", "argument --state: not allowed with argument --ensemble")),
    fails("embed-unparseable-radii", ["embed", *OUT, "--radii", "1;2;3"], 2,
          _usage_error("embed", "argument --radii: bad radii list '1;2;3'")),
    fails("long-embed-unparseable-radii", ["embed", *OUT, "--radii", LONG_RADII + ";"], 2,
          _usage_error("embed", f"argument --radii: bad radii list {cut(repr(LONG_RADII + ';'))}")),
    *[
        fails(f"embed-points-per-slot-{value}", ["embed", *OUT, "--points-per-slot", value], 2,
              _usage_error("embed", f"argument --points-per-slot: {message}"))
        for value, message in [
            ("0", "must be at least 1, got 0"),
            ("-3", "must be at least 1, got -3"),
            ("x", "expected a positive integer, got 'x'"),
        ]
    ],
    fails("long-embed-points-per-slot", ["embed", *OUT, "--points-per-slot", LONG_X], 2,
          _usage_error("embed", "argument --points-per-slot: expected a positive integer,"
                       f" got {cut(repr(LONG_X))}")),
    fails("long-embed-many-digit-points-per-slot", ["embed", *OUT, "--points-per-slot", MANY_DIGITS], 2,
          _usage_error("embed", f"argument --points-per-slot: integer {cut(repr(MANY_DIGITS))}"
                       " has more than 4300 digits")),
    fails("long-embed-negative-points-per-slot", ["embed", *OUT, "--points-per-slot", f"-{LONG_LETTER}"], 2,
          _usage_error("embed", "argument --points-per-slot: must be at least 1,"
                       f" got {cut('-' + LONG_LETTER)}")),
    # DomainError, exit 3
    fails("build-not-a-knot", ["build", "--braid", "1 1", "--strands", "2"], 3,
          "error: closure of a 2-letter braid on 2 strands has 2 components, so it is not a knot\n"),
    fails("invariants-not-a-knot", ["invariants", "--braid", "1 1", "--strands", "2"], 3,
          "error: closure of a 2-letter braid on 2 strands has 2 components, so it is not a knot\n"),
    fails("invariants-long-link", ["invariants", "--braid", LONG_LINK, "--strands", "2"], 3,
          "error: closure of a 600-letter braid on 2 strands has 2 components, so it is not a knot\n"),
    # Fewer than strands - 1 letters, or a walk of more than MAX_SAMPLES
    # positions, is rejected before the closure is walked.
    fails("build-too-few-letters", ["build", "--strands", "1000000", "--braid", "1"], 3,
          "error: closure of a 1-letter braid on 1000000 strands has at least 999999 components, so it is not a knot\n"),
    fails("invariants-too-few-letters", ["invariants", "--strands", "5", "--braid", "1 2"], 3,
          "error: closure of a 2-letter braid on 5 strands has at least 3 components, so it is not a knot\n"),
    *[
        fails(f"{command}-over-the-walk-cap", [command, "--strands", "1000", "--braid", LONG_WALK], 3,
              "error: strands * letters must be at most 2000000, got 1000 * 2001\n")
        for command in ("build", "invariants")
    ],
    # The walk cap comes first, so a strand count too long to fit it is echoed once, clipped.
    *[
        fails(f"long-{command}-strands-over-the-walk-cap", [command, "--strands", LONG_LETTER, "--braid", "1"], 3,
              f"error: strands * letters must be at most 2000000, got {cut(LONG_LETTER)} * 1\n")
        for command in ("build", "invariants")
    ],
    *[
        fails(f"embed-radii-{radii}", ["embed", *OUT, "--braid", "1 2", "--radii", radii], 3,
              f"error: need 3 finite positive strictly increasing radii, got {shown}\n")
        for radii, shown in [
            ("3,2,1", "(3.0, 2.0, 1.0)"),
            ("1,3,2", "(1.0, 3.0, 2.0)"),
            ("nan,1,2", "(nan, 1.0, 2.0)"),
            ("1,2,inf", "(1.0, 2.0, inf)"),
        ]
    ],
    fails("long-embed-radii", ["embed", *OUT, "--braid", "1 2", "--radii", LONG_RADII], 3,
          f"error: need 3 finite positive strictly increasing radii, got {cut(repr((1.0,) * 2_500))}\n"),
    fails("embed-origin-on-curve", ["embed", *OUT, "--radii", "1e-13,2e-13,3e-13"], 3,
          "error: polyline vertex at the winding center\n"),
    *[
        fails(f"embed-undersampled-{n}", ["embed", *OUT, "--strands", "2", "--braid", "1", "--points-per-slot", n], 3,
              f"error: slots_per_letter * letters must be at least 3, got {n} * 1\n")
        for n in ("1", "2")
    ],
    # One sample over MAX_SAMPLES, rejected before anything is sampled.
    fails("embed-over-the-sample-cap",
          ["embed", *OUT, "--strands", "2", "--braid", "1", "--points-per-slot", "1000001"], 3,
          "error: strands * letters * slots_per_letter must be at most 2000000, got 2 * 1 * 1000001\n"),
    fails("long-embed-strands-over-the-sample-cap", ["embed", *OUT, "--strands", LONG_LETTER, "--braid", "1"], 3,
          f"error: strands * letters * slots_per_letter must be at most 2000000, got {cut(LONG_LETTER)} * 1 * 64\n"),
    fails("long-embed-points-per-slot-over-the-sample-cap", ["embed", *OUT, "--points-per-slot", LONG_LETTER], 3,
          f"error: strands * letters * slots_per_letter must be at most 2000000, got 3 * 8 * {cut(LONG_LETTER)}\n"),
]


def test_long_inputs_print_a_short_line():
    long_rows = [row for row in FAILURES if row.id.startswith("long-")]
    assert len(long_rows) == 35
    for row in long_rows:
        _argv, _code, stderr, _leaves = row.values
        assert len(stderr.splitlines()[-1]) <= 160, row.id


def test_clip_keeps_short_text_and_cuts_long_text():
    assert clip("x" * ECHO_LIMIT) == "x" * ECHO_LIMIT
    assert clip("x" * (ECHO_LIMIT + 1)) == f"{'x' * ECHO_LIMIT}... ({ECHO_LIMIT + 1} characters)"


def test_clip_path_keeps_short_paths_and_the_tail_of_long_ones():
    assert clip_path("d" * (ECHO_LIMIT - 4) + "/x.c") == "d" * (ECHO_LIMIT - 4) + "/x.c"
    assert clip_path("d" * ECHO_LIMIT + "/x.c") == f"...{'d' * (ECHO_LIMIT - 4)}/x.c ({ECHO_LIMIT + 4} characters)"


@pytest.fixture
def failure_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return write_failure_files(tmp_path)


def write_failure_files(root):
    """Write the failure table's input files into ``root/f``, its "{tmp}", and return that directory."""
    files = root / "f"
    files.mkdir()
    (files / "bad_header.csv").write_text("case,site\n", encoding="utf-8")
    (files / "header_only.csv").write_text("case,site,role,value\n", encoding="utf-8")
    (files / "not_utf8.csv").write_bytes(b"\xff\xfecase,site,role,value\n")
    with open(files / "over_limit.csv", "wb") as fh:  # a header, then NUL bytes the file system stores sparse
        fh.write(b"case,site,role,value\n")
        fh.truncate(MAX_FIXTURE_BYTES + 1)
    for name, row in [
        ("long_site", f"a,{LONG_X},over,1"), ("long_value", f"a,A,over,{LONG_X}"), ("long_case", f"{LONG_X},A,over,1"),
        ("many_digits", f"a,A,over,{MANY_DIGITS}"),
        ("field_too_long", f"a,A,over,{FIELD_OVER_LIMIT}"),
    ]:
        (files / f"{name}.csv").write_text(f"case,site,role,value\n{row}\n", encoding="utf-8")
    header = "case,site,role,value,corrected_value\n"
    for name, rows in [
        ("wrong_errata", ["h,D,over,13,2"]),
        ("three_row_errata", ["h,D,over,12,2", "z,D,over,13,2", "a,A,over,99,5"]),
        ("unknown_case_errata", ["z,D,over,13,2"]),
        ("raw_match_errata", ["a,A,over,99,5"]),
        ("long_case_errata", [f"{LONG_X},D,over,13,2"]),
        ("chained_errata", ["h,D,over,12,2", "h,D,over,2,5"]),
        ("repeated_errata", ["h,D,over,12,2", "h,D,over,12,2"]),
        ("empty_case_errata", [",D,over,12,2"]),
        ("field_too_long_errata", [f"h,D,over,12,{FIELD_OVER_LIMIT}"]),
    ]:
        (files / f"{name}.csv").write_text(header + "".join(f"{row}\n" for row in rows), encoding="utf-8")
    return files


@pytest.mark.parametrize("argv, code, stderr, leaves", FAILURES)
def test_cli_failure(capsys, failure_files, argv, code, stderr, leaves):
    before = sorted(failure_files.iterdir())

    def fill(text):
        return text.replace("{tmp}", failure_files.name).replace("{name}", failure_files.name)

    assert run(capsys, *map(fill, argv)) == (code, "", fill(stderr))
    assert sorted(failure_files.iterdir()) == sorted(before + [failure_files / name for name in leaves])


@pytest.mark.parametrize("row_id", ["check-fixture-over-limit", "errata-over-limit"])
def test_a_file_over_the_byte_limit_fails_fast(capsys, failure_files, row_id):
    (argv, code, _stderr, _leaves), = (row.values for row in FAILURES if row.id == row_id)
    started = time.perf_counter()
    result = run(capsys, *(arg.replace("{tmp}", failure_files.name) for arg in argv))
    assert time.perf_counter() - started < 1
    assert result[:2] == (code, "")
    assert len(result[2]) < 100


class _CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


FORMATS = ("text", "csv", "json")


@pytest.mark.parametrize(
    "argv, code",
    [pytest.param(argv, code, id=" ".join(argv)) for argv, code in [
        (["build"], 0),
        (["build", "--vertices", "off"], 0),
        (["invariants"], 0),
        *((["traverse", "--start", "A", "--role", "under", "--format", fmt], 0) for fmt in FORMATS),
        *((["analyze", "--format", fmt], 0) for fmt in FORMATS),
        *((["analyze", "--state", "K,cw", "--format", fmt], 0) for fmt in FORMATS),
        (["check-fixture"], 1),
        (["check-fixture", "--errata"], 0),
        (["embed", "--out", "points.csv"], 0),
        (["embed", "--out", "points.csv", "--markers", "markers.csv"], 0),
    ]],
)
def test_a_run_writes_stdout_once(monkeypatch, tmp_path, argv, code):
    # Every command returns its lines, and main writes them in one call
    # after the command has finished; the failure table shows that a
    # failed run writes nothing.
    monkeypatch.chdir(tmp_path)
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(argv) == code
    assert out.writes == 1
    assert out.getvalue().endswith("\n")


def test_cli_prints_only_to_stderr():
    source = Path(cli.__file__).read_text(encoding="utf-8")
    prints = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    ]
    assert prints
    for node in prints:
        assert [ast.unparse(k) for k in node.keywords] == ["file=sys.stderr"], node.lineno


def _defined_exceptions():
    for info in pkgutil.iter_modules(knot818.__path__):
        module = importlib.import_module(f"knot818.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                yield obj


def _modules_loaded_by(code, cwd=None):
    # Under -S no site-packages .pth file imports anything first, so this
    # sees only what the code itself pulls in.
    src = Path(knot818.__file__).resolve().parent.parent
    probe = f"import sys; sys.path.insert(0, {str(src)!r}); {code}; print(sorted(sys.modules))"
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, cwd=cwd)
    assert result.stderr == ""
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


# what `build` never runs: the table path, the invariants and JSON output
_NOT_FOR_BUILD = {
    "knot818.traversal",
    "knot818.allocation",
    "knot818.invariants",
    "knot818.laurent",
    "fractions",
    "decimal",
    "json",
}


def test_cli_import_leaves_out_the_heavy_stdlib_modules():
    loaded = _modules_loaded_by("import knot818.cli")
    assert not {"dataclasses", "inspect", "importlib.resources", "pathlib"} & loaded
    assert not _NOT_FOR_BUILD & loaded
    assert {m for m in _modules_loaded_by("import knot818") if m.startswith("knot818.")} == set()


_BUILD_SET = {"knot818.cli", "knot818.braid", "knot818.diagram", "knot818.notation", "knot818.errors"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["build"], set()),
        (["embed", "--out", "points.csv"], set()),
        (["embed", "--out", "p.csv", "--markers", "m.csv"], set()),
        (["traverse", "--start", "A", "--role", "under"], {"knot818.traversal"}),
        (["check-fixture"], {"knot818.traversal"}),
        (["invariants"], {"knot818.invariants", "knot818.laurent", "fractions", "decimal"}),
        (["analyze", "--format", "json"], {"knot818.traversal", "knot818.allocation", "fractions", "decimal", "json"}),
    ],
    ids=["build", "embed", "embed-markers", "traverse", "check-fixture", "invariants", "analyze"],
)
def test_each_command_loads_only_what_it_runs(tmp_path, argv, extra):
    loaded = _modules_loaded_by(f"import knot818.cli; knot818.cli.main({argv!r})", cwd=tmp_path)
    assert {m for m in loaded if m.startswith("knot818.")} | (_NOT_FOR_BUILD & loaded) == _BUILD_SET | extra


def test_package_namespace_is_what_perfbench_imports():
    # The package re-exports only names some caller imports from it;
    # everything else imports from its own module.
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    imported = set()
    for path in [perfbench / "workloads.py", *sorted((perfbench / "tests").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "knot818" and node.level == 0:
                imported.update(alias.name for alias in node.names)
    assert set(knot818.__all__) == imported
    assert dir(knot818) == sorted(imported)
    bound = {
        name
        for name, value in vars(knot818).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound <= imported  # the names resolved so far, whatever ran first
    for name in knot818.__all__:
        value = getattr(knot818, name)
        # the object of that name in the module that defines it
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        knot818.no_such_name


def test_every_error_class_is_in_one_family():
    arithmetic = {InexactDivisionError, ZeroArgumentError, ZeroPolynomialError}
    classes = set(_defined_exceptions()) - {Knot818Error, UsageError, DomainError}
    assert arithmetic | {cli.SamePathError, InvalidBraidError, NotAKnotError} <= classes
    for cls in classes:
        families = [family for family in (UsageError, DomainError) if issubclass(cls, family)]
        if cls in arithmetic:
            assert families == [], cls
        else:
            assert len(families) == 1 and issubclass(cls, ValueError), cls


def _raised_names():
    """The name of every class a ``raise`` statement in the library names."""
    names = set()
    for path in Path(knot818.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def test_no_error_class_is_an_orphan():
    # An error class no raise names, and that is no base of one that is
    # named, is dead code.
    classes = set(_defined_exceptions())
    raised = {cls for cls in classes if cls.__name__ in _raised_names()}
    for cls in classes:
        assert any(issubclass(sub, cls) for sub in raised), cls


def test_internal_errors_exit_one(capsys, monkeypatch):
    # No command line input reaches the three arithmetic errors (Delta of
    # a knot is nonzero, it is only evaluated at -1, and the quotient by
    # (1 - t^n)/(1 - t) is exact), so meeting one is a bug like any other.
    for error in (
        RuntimeError("wires crossed"),
        InexactDivisionError("wires crossed"),
        ZeroArgumentError("wires crossed"),
        ZeroPolynomialError("wires crossed"),
    ):
        def boom(*_args, **_kwargs):
            raise error

        monkeypatch.setattr(invariants, "alexander_from_braid", boom)
        code, _, err = run(capsys, "invariants")
        assert code == 1
        assert err == "internal error: wires crossed\n"


@pytest.mark.parametrize("error", [MemoryError(), RuntimeError()])
def test_an_internal_error_without_a_message_names_its_class(capsys, monkeypatch, error):
    def boom(_args):
        raise error

    monkeypatch.setattr(cli, "cmd_analyze", boom)
    assert run(capsys, "analyze") == (1, "", f"internal error: {type(error).__name__}\n")


def test_output_is_deterministic(capsys):
    first = run(capsys, "analyze", "--ensemble", "with-mirrors", "--format", "json")
    second = run(capsys, "analyze", "--ensemble", "with-mirrors", "--format", "json")
    assert first == second
    payload = json.loads(first[1])
    assert payload["grand_total"] == 2 * 2100
