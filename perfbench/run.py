"""Benchmark for knot818: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload paper818 --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``.  Each run is closed-loop with one client in one
process: it sets up, then runs whole passes over its seeded inputs
until the ops have taken ``--seconds``, checking every output against
an exact oracle outside the timed region.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` passes alternate between untraced and traced, and the
metrics are the per-layer ones (see README.md).  Every time is scaled
to a fixed machine speed by a calibration kernel run next to each op
(calibration.py).  The lines before the result give every metric with
its unit and the run's provenance, raw times included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
import inputs
from spans import NO_SPANS, Tracer, self_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("paper818", "invariants_long", "invariants_wide", "cli")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_STAGES = (
    "notation.parse_braid_word", "notation.parse_extended_gauss",
    "notation.emit_extended_gauss", "notation.gauss_to_dt",
    "diagram.cyclic_equivalent", "diagram.validate_word",
    "braid.closure_diagram", "braid.annular_embed", "braid.winding_phase",
    "invariants.alexander_from_braid", "invariants.burau_reduced",
    "invariants.det", "invariants.normalize_alexander",
    "laurent.exact_div", "laurent.evaluate",
    "traversal.enumerate_all", "traversal.enumerate_representatives",
    "traversal.with_mirrors", "traversal.rotation_orbits", "traversal.traverse",
    "traversal.load_table_fixture", "traversal.load_errata", "traversal.check_fixture",
    "allocation.site_totals", "allocation.ensemble_totals", "allocation.defect_report",
)
CLI_STAGES = (
    "cli.build", "cli.invariants", "cli.traverse", "cli.analyze",
    "cli.check_fixture_errata", "cli.check_fixture", "cli.embed",
)
COUNTS = (
    "braid.letters", "braid.points", "invariants.burau_dim",
    "laurent.alexander_degree", "laurent.coeff_bits", "traversal.tables",
    "traversal.cases_matched", "traversal.cases_with_erratum",
    "allocation.mismatch_classes", "cli.unexpected_exits",
)
PER_LAYER = {
    **{f"{stage}.ms": "ms" for stage in LAYER_STAGES},
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"{stage}.ms": "ms" for stage in CLI_STAGES},
    **{name: "count" for name in COUNTS},
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}

SETUP_SAMPLES = 9  # set-ups per run: this process plus eight fresh ones


def timed_setup(workload: str, seed: int):
    """Import knot818, make the inputs, run one op on a seed-independent input.

    Returns (seconds, workload, inputs).
    """
    t0 = perf_counter()
    import workloads

    wl = workloads.make(workload, ROOT)
    xs = wl.inputs(seed)
    try:
        wl.op(wl.warm_up_input, NO_SPANS)
    except Exception:  # a broken op fails every timed op too, which reports it
        pass
    return perf_counter() - t0, wl, xs


def setup_in_fresh_process(workload: str, seed: int) -> tuple[float, float]:
    """(raw seconds, scale factor) of one set-up in a new interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    done, factor = calibration.around(
        lambda: subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    )
    return float(done.stdout.split()[-1]), factor


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, in tenths, with >= 10 samples above it.

    Nearest rank.  Below 20 samples no percentile of 50 or more has ten
    samples above it, and the median is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    pct = math.floor(1000 * (1 - 10 / n)) / 10 if n >= 20 else 50.0
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def measure(wl, xs: list, seconds: float, traced_passes: bool) -> dict:
    """Whole passes over ``xs`` until the ops have taken ``seconds``.

    A calibration kernel runs before every op and once after the last,
    and the ops' time is counted at the reference speed, so the number
    of passes does not depend on the machine's load.  With
    ``traced_passes`` every second pass is traced, and the run ends only
    after at least one traced pass.
    """
    tracer = Tracer()
    kernel: list[float] = []
    ops: list[tuple[float, int]] = []  # (raw seconds, tracer op id or 0)
    failures: list[str] = []
    counts: dict[str, float] = {}
    passes = 0
    elapsed = 0.0
    while True:
        tracing = traced_passes and passes % 2 == 1
        span = tracer if tracing else NO_SPANS
        for i, x in enumerate(xs):
            tracer.op += tracing
            kernel.append(calibration.sample())
            t0 = perf_counter()
            try:
                raw = wl.op(x, span)
            except Exception as exc:  # counted as a failed op; the run goes on
                dt = perf_counter() - t0
                fails = [f"{type(exc).__name__}: {exc}"]
            else:
                dt = perf_counter() - t0
                fails = wl.check(i, x, raw)
                if tracing and passes == 1:
                    for name, value in wl.counts(x, raw).items():
                        counts[name] = counts.get(name, 0) + value / len(xs)
            ops.append((dt, tracer.op if tracing else 0))
            # The stop rule needs a factor now; the reported one also uses
            # the kernel run after the op.
            elapsed += dt * calibration.REFERENCE_S / statistics.median(kernel[-3:])
            if fails:
                failures.append(f"op {len(ops)} ({wl.name} input {i}): {fails[0]}")
        passes += 1
        if elapsed >= seconds and (passes >= 2 or not traced_passes):
            break
    kernel.append(calibration.sample())
    factors = calibration.op_factors(kernel)
    return {
        "plain": [dt * f for (dt, op), f in zip(ops, factors) if not op],
        "traced": [dt * f for (dt, op), f in zip(ops, factors) if op],
        "raw_plain": [dt for dt, op in ops if not op],
        "op_factor": {op: f for (_dt, op), f in zip(ops, factors) if op},
        "kernel": kernel, "attempted": len(ops), "failed": len(failures),
        "failures": failures, "counts": counts, "tracer": tracer, "passes": passes,
    }


def end_to_end(run: dict, setup: list[tuple[float, float]], peak_kb: int) -> tuple[dict, dict]:
    """The end-to-end metrics, scaled; the raw ones go to provenance."""

    def timings(lat: list[float], setup_s: list[float]) -> tuple[dict, float]:
        pct, tail_s = tail(lat)
        return {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": ok / sum(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * tail_s,
        }, pct

    ok = max(0, run["attempted"] - run["failed"])
    values, pct = timings(run["plain"], [s * f for s, f in setup])
    values.update(correct_ratio=ok / run["attempted"], peak_rss_mb=peak_kb / 1024)
    raw, _pct = timings(run["raw_plain"], [s for s, _f in setup])
    return values, {"tail_percentile": pct, "samples": len(run["plain"]), "raw": raw}


def per_layer(wl, run: dict) -> tuple[dict, dict]:
    traced = run["traced"]
    spans = run["tracer"].spans
    self_s = self_seconds(spans, run["op_factor"])
    invocations: dict[str, int] = {}
    for name, *_rest in spans:
        invocations[name] = invocations.get(name, 0) + 1
    values = {name: 0.0 for name in PER_LAYER}
    for stage in LAYER_STAGES:
        values[f"{stage}.ms"] = 1e3 * self_s.get(stage, 0.0) / len(traced)
    for stage in CLI_STAGES:  # per invocation, not per op
        if stage in invocations:
            values[f"{stage}.ms"] = 1e3 * self_s[stage] / invocations[stage]
    values.update(run["counts"])
    values.update(wl.layer_extras())
    traced_rate = len(traced) / sum(traced)
    plain_rate = len(run["plain"]) / sum(run["plain"])
    values["trace.ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = plain_rate
    values["trace.overhead_pct"] = 100 * (plain_rate / traced_rate - 1)
    return values, {"samples": len(traced), "untraced_samples": len(run["plain"])}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "knot818").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(args, wl, xs, nproc: int, extra: dict) -> dict:
    import knot818  # already imported from SRC by the set-up

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "platform": platform.platform(), "nproc": nproc, "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "git_commit": git_commit(), "source_digest": source_digest(),
        "knot818_file": knot818.__file__,
        "child_knot818_file": getattr(wl, "module_file", None),
        "inputs": len(xs), "input_digest": inputs.digest(xs), **extra,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "knot818" / "__init__.py").is_file():
        print(f"error: no knot818 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        seconds, wl, _xs = timed_setup(args.workload, args.seed)
        wl.close()
        print(repr(seconds))
        return 0
    # One vCPU for this process and its children, so the calibration
    # kernel runs where the ops run.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    # Half the fresh set-ups run before the loop and half after, so the
    # median spans the run's whole window of machine load.  A traced run
    # reports no set-up time.
    fresh = 0 if args.trace else SETUP_SAMPLES - 1
    setup = [setup_in_fresh_process(args.workload, args.seed) for _ in range(fresh // 2)]
    (seconds, wl, xs), factor = calibration.around(lambda: timed_setup(args.workload, args.seed))
    setup.append((seconds, factor))
    try:
        run = measure(wl, xs, args.seconds, traced_passes=bool(args.trace))
        peak_kb = wl.peak_rss_kb()
        setup += [setup_in_fresh_process(args.workload, args.seed) for _ in range(fresh - fresh // 2)]
        check_failures = wl.check_pass(xs)
        run["failures"] += check_failures
        run["failed"] += len(check_failures)
        if args.trace:
            metrics, extra = per_layer(wl, run)
            units = PER_LAYER
        else:
            metrics, extra = end_to_end(run, setup, peak_kb)
            units = END_TO_END
        extra.update(passes=run["passes"], setup_samples=setup,
                     kernel_ms=1e3 * statistics.median(run["kernel"]),
                     failed_ratio=run["failed"] / run["attempted"])
        info = provenance(args, wl, xs, len(cpus), extra)
    finally:
        wl.close()

    failures = run["failures"]
    for line in failures[:10]:
        print(f"FAIL {line}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({"provenance": info}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
