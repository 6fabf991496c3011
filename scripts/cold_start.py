#!/usr/bin/env python3
"""Time each knot818 command's start on a clean interpreter.

Every child is ``python -I -S -c ...``: no environment, user site or
site-packages, so nothing is imported before it that its own code does
not import.  The commands are the benchmark's seven ``CLI_INVOCATIONS``,
read from the source of ``perfbench/workloads.py`` (not imported).  A
command child puts this checkout's ``src`` first on ``sys.path`` and
runs ``knot818.cli.main`` on its argv.  Two floors run next to them: a
bare interpreter (``pass``) and ``import argparse``.

Every child runs in one temporary directory (``embed`` writes its
points there) and keeps its bytecode under it (``-X pycache_prefix``),
so a run leaves none in the checkout.  A first round, not timed, writes
that bytecode, so no timed child pays for compiling.  Each of
``--repeat`` rounds then runs every child once, in the same order, so
that a slow stretch of the machine falls on one round of every child
rather than on all rounds of one.  A child that exits other than the
benchmark expects stops the script.  For each child it prints the
minimum and the quartiles of its wall time, and its margin over the
``import argparse`` floor: the median over rounds of its time less the
floor's time in that round, in ms.  Run from a checkout with
``PYTHONPATH=src``::

    python scripts/cold_start.py [--quick] [--repeat K]
"""

import argparse
import ast
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from knot818.cli import argparse_type, positive_int

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FLOORS = (("bare", "pass"), ("argparse", "import argparse"))
QUICK = ("build", "traverse")


def invocations() -> list[tuple[str, list[str], int]]:
    """``(name, argv, exit code)`` for each row of the benchmark's ``CLI_INVOCATIONS``."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    (table,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CLI_INVOCATIONS"]
    )
    return ast.literal_eval(table)


def children(src: Path, quick: bool = False) -> list[tuple[str, str, int]]:
    """``(name, code, exit code)`` of each child: the two floors, then one per command, run from ``src``."""
    commands = [row for row in invocations() if not quick or row[0] in QUICK]
    run = f"import sys; sys.path.insert(0, {str(src)!r}); from knot818.cli import main; sys.exit(main({{!r}}))"
    return [(name, code, 0) for name, code in FLOORS] + [(name, run.format(argv), code) for name, argv, code in commands]


def run_ms(code: str, want: int, cwd: str) -> float:
    """Wall time in ms of one ``python -I -S -c code`` child in ``cwd``, which keeps its bytecode there
    and must exit with ``want``."""
    start = perf_counter()
    argv = [sys.executable, "-I", "-S", "-X", f"pycache_prefix={cwd}", "-c", code]
    result = subprocess.run(argv, cwd=cwd, capture_output=True)
    elapsed = perf_counter() - start
    if result.returncode != want:
        raise SystemExit(f"child exited {result.returncode}, not {want}: {code}\n{result.stderr.decode(errors='replace')}")
    return elapsed * 1e3


def summary(samples: list[float]) -> list[float]:
    """Minimum, lower quartile, median and upper quartile."""
    if len(samples) == 1:
        return samples * 4
    return [min(samples), *statistics.quantiles(samples, n=4, method="inclusive")]


def margin(samples: list[float], floor: list[float]) -> float:
    """The median over rounds of a child's time less the floor's time in the same round."""
    return statistics.median(t - f for t, f in zip(samples, floor))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help=f"run only the floors and {' and '.join(QUICK)}")
    parser.add_argument(
        "--repeat", type=argparse_type(positive_int), default=20, help="rounds, each running every child once (default 20)"
    )
    args = parser.parse_args(argv)

    kids = children(SRC, args.quick)
    times: dict[str, list[float]] = {name: [] for name, _code, _want in kids}
    with tempfile.TemporaryDirectory() as cwd:
        for _ in range(args.repeat + 1):
            for name, code, want in kids:
                times[name].append(run_ms(code, want, cwd))
    times = {name: samples[1:] for name, samples in times.items()}  # the first round wrote the bytecode
    print(f"{'child':<22} {'min_ms':>8} {'q1_ms':>8} {'median_ms':>10} {'q3_ms':>8} {'margin_ms':>10}")
    for name, samples in times.items():
        low, q1, median, q3 = summary(samples)
        print(f"{name:<22} {low:>8.2f} {q1:>8.2f} {median:>10.2f} {q3:>8.2f} {margin(samples, times['argparse']):>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
