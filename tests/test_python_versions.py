"""The command line behaves the same on every installed CPython of the declared range.

``pyproject.toml`` declares ``requires-python = ">=3.10"``, and the code
has a version branch (``errors.too_many_digits``).  Each other CPython
3.10 or newer that is installed runs one stdlib-only child: it calls
``cli.main`` on the golden commands of ``tests/data/cli_golden.json``, on
perfbench's ``CLI_INVOCATIONS`` and on every argv of the failure table,
and must print what the same child prints under the interpreter running
the tests: exit codes, stdout and stderr.  Interpreters are looked for
only under the pyenv versions directory (``$PYENV_ROOT/versions``, else
``~/.pyenv/versions``) and as ``python3.N`` in the directories of
``PATH``; one runs per version.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import FAILURES, write_failure_files
from test_golden_cli import INVOCATIONS, _perfbench_invocations

SRC = Path(__file__).resolve().parent.parent / "src"

# Reads the job from stdin, runs each argv through cli.main in the
# working directory and prints [exit code, stdout, stderr] per argv.
CHILD = """\
import contextlib, io, json, sys
job = json.load(sys.stdin)
sys.path.insert(0, job["src"])
from knot818 import cli
results = []
for argv in job["argvs"]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _probe(exe: str) -> tuple[int, ...] | None:
    """The version of a CPython at ``exe``, or None when it is not one or does not run."""
    probe = "import sys; print(sys.implementation.name, *sys.version_info[:3])"
    try:
        result = subprocess.run([exe, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    match = re.fullmatch(r"cpython (\d+) (\d+) (\d+)\n", result.stdout)
    return tuple(map(int, match.groups())) if result.returncode == 0 and match else None


def other_interpreters() -> list[tuple[str, str]]:
    """``(version, executable)`` for each other installed CPython 3.10 or newer, one per version."""
    found: dict[tuple[int, ...], str] = {tuple(sys.version_info[:3]): ""}
    versions = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    for home in sorted(versions.glob("3.*")):
        match = re.fullmatch(r"(3)\.(\d+)\.(\d+)", home.name)
        if match and (home / "bin" / "python3").is_file():
            found.setdefault(tuple(map(int, match.groups())), str(home / "bin" / "python3"))
    for directory in filter(None, os.environ.get("PATH", "").split(os.pathsep)):
        for exe in sorted(Path(directory).glob("python3.*")):
            match = re.fullmatch(r"python3\.(\d+)", exe.name)
            if match and int(match[1]) >= 10 and (version := _probe(str(exe))):
                found.setdefault(version, str(exe))
    return [(".".join(map(str, version)), exe) for version, exe in sorted(found.items()) if exe and version >= (3, 10)]


def _fill(text: str) -> str:
    return text.replace("{tmp}", "f").replace("{name}", "f")


ARGVS = (
    list(INVOCATIONS)
    + [param.values[0] for param in _perfbench_invocations()]
    + [[_fill(arg) for arg in param.values[0]] for param in FAILURES]
)


def run_child(exe: str, root: Path) -> list:
    """The child's results under ``exe``, run in a fresh ``root`` holding the failure table's files."""
    root.mkdir()
    write_failure_files(root)
    job = json.dumps({"src": str(SRC), "argvs": ARGVS})
    # -I -S: no environment, user site or site-packages; -B: no bytecode in the checkout.
    result = subprocess.run(
        [exe, "-I", "-S", "-B", "-c", CHILD], input=job, capture_output=True, text=True, cwd=root, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> list:
    return run_child(sys.executable, tmp_path_factory.mktemp("reference") / "run")


OTHERS = other_interpreters()


@pytest.mark.parametrize(
    "exe",
    [pytest.param(exe, id=label) for label, exe in OTHERS]
    or [pytest.param(None, marks=pytest.mark.skip(reason="no other CPython 3.10+ is installed"), id="none")],
)
def test_cli_agrees_with_this_interpreter(reference, tmp_path, exe):
    results = run_child(exe, tmp_path / "run")
    assert len(results) == len(reference) == len(ARGVS)
    for argv, got, want in zip(ARGVS, results, reference):
        assert got == want, " ".join(argv)[:200]
