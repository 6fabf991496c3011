"""End-to-end command line behavior, including the exit code contract."""

import argparse
import ast
import contextlib
import importlib
import io
import json
import math
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import knot_braids
import knot818
from knot818 import cli, invariants
from knot818 import traversal as trav
from knot818.braid import BraidWord, InvalidBraidError, NotAKnotError, annular_embed, winding_number
from knot818.errors import DomainError, Knot818Error, UsageError
from knot818.invariants import ZeroPolynomialError
from knot818.laurent import InexactDivisionError, ZeroArgumentError


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


def test_invariants_radians(capsys):
    code, out, _ = run(capsys, "invariants", "--radians")
    assert code == 0
    phase_line = next(l for l in out.splitlines() if l.startswith("phase:"))
    assert phase_line == "phase: 18.84955592153876"  # 2.0 * math.pi * 3, exactly




@given(knot_braids(max_strands=5), st.booleans())
@example(BraidWord(2, (1,)), False)
@example(BraidWord(2, (1, 1, 1)), True)
@example(BraidWord(3, (1, 2)), False)
@settings(max_examples=40, deadline=None)
def test_invariants_phase_matches_a_64_slot_embedding(braid, radians):
    argv = ["invariants", "--braid", " ".join(map(str, braid.letters)), "--strands", str(braid.strands)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--radians"] * radians) == 0
    turns = winding_number(annular_embed(braid, slots_per_letter=64))
    expected = repr(2.0 * math.pi * turns) if radians else f"{2 * turns}π" if turns else "0"
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


def test_bad_env_format_is_usage_error(monkeypatch):
    # The command line side is the "bad-env-format" row of FAILURES.
    monkeypatch.setenv("KNOT818_FORMAT", "yaml")
    with pytest.raises(cli.FormatError) as info:
        cli._resolve_format(None)
    assert isinstance(info.value, UsageError)
    assert not isinstance(info.value, trav.InvalidStartSpecError)


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


def _usage_error(command, message):
    """argparse's stderr for a rejected option of ``knot818 command``."""
    parser = cli.build_parser()
    if command is not None:
        (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[command]
    return f"{parser.format_usage()}{parser.prog}: error: {message}\n"


def fails(name, argv, code, stderr, env=None):
    return pytest.param(argv, code, stderr, env or {}, id=name)


OUT = ["--out", "{tmp}/x.csv"]
LONG_LINK = " ".join(["1"] * 600)

# Every failure path of the command line: (argv, exit code, exact stderr,
# environment).  "{tmp}" stands for the directory of the files that the
# failure_files fixture writes.
FAILURES = [
    # UsageError, exit 2
    fails("bad-env-format", ["traverse", "--start", "K"], 2, "error: unknown format 'yaml'\n",
          {"KNOT818_FORMAT": "yaml"}),
    fails("non-integer-letter", ["build", "--braid", "1 x"], 2, "error: token 1: 'x' is not an integer\n"),
    fails("empty-braid", ["build", "--braid", ""], 2,
          "error: empty braid word (pass allow_empty=True for the trivial braid)\n"),
    fails("letter-out-of-range", ["build", "--strands", "1", "--braid", "1"], 2,
          "error: token 0: letter 1 out of range for 1 strands\n"),
    *[
        fails(f"{command}-strands-{n}", [command, "--strands", n, "--braid", "", "--allow-empty", *extra], 2,
              "error: a braid needs at least 2 strands\n")
        for command, n, extra in [
            ("build", "1", []), ("build", "-5", []), ("invariants", "1", []), ("embed", "1", OUT),
        ]
    ],
    fails("traverse-missing-role", ["traverse", "--start", "A"], 2,
          "error: shoulder start A needs an over or under entry role\n"),
    fails("traverse-unknown-site", ["traverse", "--start", "Z"], 2, "error: start site must be one of A..L, got 'Z'\n"),
    fails("analyze-bad-state", ["analyze", "--state", "K"], 2, "error: state must be SITE,DIR[,ROLE], got 'K'\n"),
    fails("analyze-bad-direction", ["analyze", "--state", "K,up"], 2,
          "error: direction must be cw or ccw, got 'up'\n"),
    fails("check-fixture-bad-header", ["check-fixture", "{tmp}/bad_header.csv"], 2,
          "error: line 1: expected header case,site,role,value\n"),
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
    # OSError, exit 2
    fails("check-fixture-missing", ["check-fixture", "{tmp}/missing.csv"], 2,
          "error: [Errno 2] No such file or directory: '{tmp}/missing.csv'\n"),
    fails("errata-missing", ["check-fixture", "--errata", "{tmp}/missing.csv"], 2,
          "error: [Errno 2] No such file or directory: '{tmp}/missing.csv'\n"),
    fails("check-fixture-directory", ["check-fixture", "{tmp}"], 2, "error: [Errno 21] Is a directory: '{tmp}'\n"),
    fails("embed-missing-directory", ["embed", "--out", "{tmp}/no-dir/x.csv"], 2,
          "error: [Errno 2] No such file or directory: '{tmp}/no-dir/x.csv'\n"),
    # argparse, exit 2
    fails("no-such-command", ["no-such-command"], 2,
          _usage_error(None, "argument command: invalid choice: 'no-such-command' (choose from 'build',"
                       " 'invariants', 'traverse', 'analyze', 'check-fixture', 'embed')")),
    fails("traverse-missing-start", ["traverse"], 2,
          _usage_error("traverse", "the following arguments are required: --start")),
    fails("analyze-state-and-ensemble", ["analyze", "--ensemble", "all40", "--state", "K,cw"], 2,
          _usage_error("analyze", "argument --state: not allowed with argument --ensemble")),
    fails("embed-unparseable-radii", ["embed", *OUT, "--radii", "1;2;3"], 2,
          _usage_error("embed", "argument --radii: bad radii list '1;2;3'")),
    *[
        fails(f"embed-points-per-slot-{value}", ["embed", *OUT, "--points-per-slot", value], 2,
              _usage_error("embed", f"argument --points-per-slot: {message}"))
        for value, message in [
            ("0", "must be at least 1, got 0"),
            ("-3", "must be at least 1, got -3"),
            ("x", "expected a positive integer, got 'x'"),
        ]
    ],
    # DomainError, exit 3
    fails("build-not-a-knot", ["build", "--braid", "1 1", "--strands", "2"], 3,
          "error: closure of a 2-letter braid on 2 strands has 2 components, so it is not a knot\n"),
    fails("invariants-not-a-knot", ["invariants", "--braid", "1 1", "--strands", "2"], 3,
          "error: closure of a 2-letter braid on 2 strands has 2 components, so it is not a knot\n"),
    fails("invariants-long-link", ["invariants", "--braid", LONG_LINK, "--strands", "2"], 3,
          "error: closure of a 600-letter braid on 2 strands has 2 components, so it is not a knot\n"),
    # The knot check runs before the vertex-rule check.
    fails("vertices-forced-on-a-link", ["build", "--braid", "1 -2 1 -2 1 -2", "--vertices", "on"], 3,
          "error: closure of a 6-letter braid on 3 strands has 3 components, so it is not a knot\n"),
    fails("vertices-forced-on-wrong-shape", ["build", "--braid", "1 1 1", "--strands", "2", "--vertices", "on"], 3,
          "error: branch vertices are only defined on the annular 3-strand shape\n"),
    *[
        fails(f"embed-radii-{radii}", ["embed", *OUT, "--braid", "1 2", "--radii", radii], 3,
              f"error: need 3 finite positive strictly increasing radii, got {shown}\n")
        for radii, shown in [
            ("3,2,1", "(3.0, 2.0, 1.0)"),
            ("nan,1,2", "(nan, 1.0, 2.0)"),
            ("1,2,inf", "(1.0, 2.0, inf)"),
        ]
    ],
    fails("embed-origin-on-curve", ["embed", *OUT, "--radii", "1e-13,2e-13,3e-13"], 3,
          "error: polyline vertex at the winding center\n"),
    *[
        fails(f"embed-undersampled-{n}", ["embed", *OUT, "--strands", "2", "--braid", "1", "--points-per-slot", n], 3,
              f"error: slots_per_letter * letters must be at least 3, got {n} * 1\n")
        for n in ("1", "2")
    ],
]


@pytest.fixture
def failure_files(tmp_path):
    (tmp_path / "bad_header.csv").write_text("case,site\n", encoding="utf-8")
    (tmp_path / "not_utf8.csv").write_bytes(b"\xff\xfecase,site,role,value\n")
    header = "case,site,role,value,corrected_value\n"
    for name, rows in [
        ("wrong_errata", ["h,D,over,13,2"]),
        ("three_row_errata", ["h,D,over,12,2", "z,D,over,13,2", "a,A,over,99,5"]),
        ("unknown_case_errata", ["z,D,over,13,2"]),
        ("raw_match_errata", ["a,A,over,99,5"]),
    ]:
        (tmp_path / f"{name}.csv").write_text(header + "".join(f"{row}\n" for row in rows), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("argv, code, stderr, env", FAILURES)
def test_cli_failure(capsys, monkeypatch, failure_files, argv, code, stderr, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    before = sorted(failure_files.iterdir())
    tmp = str(failure_files)
    assert run(capsys, *(arg.replace("{tmp}", tmp) for arg in argv)) == (code, "", stderr.replace("{tmp}", tmp))
    assert sorted(failure_files.iterdir()) == before  # a failed command writes no file


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
        (["traverse", "--start", "A", "--role", "under"], {"knot818.traversal"}),
        (["check-fixture"], {"knot818.traversal"}),
        (["invariants"], {"knot818.invariants", "knot818.laurent", "fractions", "decimal"}),
        (["analyze", "--format", "json"], {"knot818.traversal", "knot818.allocation", "fractions", "decimal", "json"}),
    ],
    ids=["build", "embed", "traverse", "check-fixture", "invariants", "analyze"],
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
    assert arithmetic | {cli.FormatError, InvalidBraidError, NotAKnotError} <= classes
    for cls in classes:
        families = [family for family in (UsageError, DomainError) if issubclass(cls, family)]
        if cls in arithmetic:
            assert families == [], cls
        else:
            assert len(families) == 1 and issubclass(cls, ValueError), cls


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


def test_output_is_deterministic(capsys):
    first = run(capsys, "analyze", "--ensemble", "with-mirrors", "--format", "json")
    second = run(capsys, "analyze", "--ensemble", "with-mirrors", "--format", "json")
    assert first == second
    payload = json.loads(first[1])
    assert payload["grand_total"] == 2 * 2100
