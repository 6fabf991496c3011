"""The four workloads: what one op calls, how its output is checked.

Every op calls the library's public functions from here, wrapped in
spans named ``<module>.<function>``; untraced runs pass
:data:`spans.NO_SPANS`, so both runs use the same code and stage
names.  Importing this module imports ``knot818``.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from knot818 import (
    BRAID_818,
    StartSpec,
    StateEnsemble,
    alexander_from_braid,
    annular_embed,
    burau_reduced,
    canonical_818,
    check_fixture,
    closure_diagram,
    cyclic_equivalent,
    defect_report,
    emit_extended_gauss,
    ensemble_totals,
    enumerate_all,
    enumerate_representatives,
    gauss_to_dt,
    load_errata,
    load_table_fixture,
    normalize_alexander,
    parse_braid_word,
    parse_extended_gauss,
    rotation_orbits,
    shipped_errata_path,
    shipped_fixture_path,
    site_totals,
    traverse,
    validate_word,
    winding_phase,
    with_mirrors,
)
from knot818.braid import NotAKnotError
from knot818.diagram import Role
from knot818.invariants import PolyMatrix
from knot818.laurent import ONE, T
from knot818.traversal import Direction, MatchStatus

import calibration
import inputs
import oracles
from spans import NO_SPANS

SLOTS_PER_LETTER = 64  # what `knot818 invariants` samples per letter


def alexander(braid, span):
    """Alexander polynomial and, when traced, det(rho - I).

    Traced, it composes the public calls that ``alexander_from_braid``
    makes so each stage gets its own span; the check pass compares the
    two.  Laurent arithmetic inside the Burau product and the
    determinant stays charged to ``invariants``.
    """
    if span is NO_SPANS:
        return alexander_from_braid(braid), None
    with span("invariants.alexander_from_braid"):
        if not braid.is_knot_closure:
            raise NotAKnotError(f"closure on {braid.strands} strands is not a knot")
        with span("invariants.burau_reduced"):
            rho = burau_reduced(braid)
        mat = rho - PolyMatrix.identity(braid.strands - 1)
        with span("invariants.det"):
            det = mat.det()
        numerator = det * (ONE - T)
        denominator = ONE - T**braid.strands
        with span("laurent.exact_div"):
            quotient = numerator.exact_div(denominator)
        with span("invariants.normalize_alexander"):
            poly = normalize_alexander(quotient)
    return poly, det


def _poly(p) -> tuple[int, tuple[int, ...]]:
    return (p.min_exp, p.coeffs)


def _coeff_bits(det) -> int:
    return max((abs(c).bit_length() for c in det.coeffs), default=0) if det is not None else 0


def _start(spec) -> tuple:
    return (spec.site, str(spec.direction), str(spec.entry_role) if spec.entry_role else None)


def _table(t) -> tuple:
    return (_start(t.start), t.mirrored, {(s, str(r)): v for s, r, v in t.entries})


def _report(report) -> list[tuple]:
    return [
        (str(c.site_class), c.entries, c.mean, c.max_deviation, c.mismatch)
        for c in report.classes
    ]


class _Workload:
    """Defaults; the CLI workload overrides the ones tied to this process."""

    def counts(self, x, raw) -> dict[str, float]:
        return {}

    def check_pass(self, xs: list) -> list[str]:
        return []

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def layer_extras(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class Paper818(_Workload):
    """The paper's whole pipeline on the reference diagram."""

    name = "paper818"
    warm_up_input = {"gauss": inputs.REFERENCE_GAUSS, "start": ("K", "cw", None)}

    def inputs(self, seed: int) -> list[dict]:
        return inputs.paper_inputs(seed)

    def op(self, x: dict, span) -> dict:
        with span("notation.parse_extended_gauss"):
            presented = parse_extended_gauss(x["gauss"])
        with span("diagram.cyclic_equivalent"):
            witness = cyclic_equivalent(presented, canonical_818())
            mapped = witness.apply(presented) if witness is not None else None
        with span("braid.closure_diagram"):
            word, crossings = closure_diagram(BRAID_818)
        with span("notation.emit_extended_gauss"):
            text = emit_extended_gauss(word)
        with span("notation.parse_extended_gauss"):
            reparsed = parse_extended_gauss(text)
        with span("notation.gauss_to_dt"):
            dt = gauss_to_dt(word)
        with span("diagram.validate_word"):
            invalid = validate_word(word)
        with span("traversal.enumerate_all"):
            all40 = enumerate_all()
        with span("traversal.with_mirrors"):
            tables = with_mirrors(all40)
        with span("traversal.rotation_orbits"):
            orbits = rotation_orbits(tables)
        site, direction, role = x["start"]
        spec = StartSpec(site, Direction(direction), Role(role) if role else None)
        with span("traversal.traverse"):
            traversed = traverse(word, spec)
        state_reports = []
        for table in all40.tables:
            with span("allocation.site_totals"):
                allocation = site_totals(table)
            with span("allocation.defect_report"):
                state_reports.append((allocation.grand_total, defect_report(allocation)))
        with span("traversal.enumerate_representatives"):
            reps = enumerate_representatives()
        with span("traversal.with_mirrors"):
            mirrored = StateEnsemble("with-mirrors", tuple(with_mirrors(reps)))
        ensemble_reports = []
        for ensemble in (reps, all40, mirrored):
            with span("allocation.ensemble_totals"):
                allocation = ensemble_totals(ensemble)
            with span("allocation.defect_report"):
                ensemble_reports.append(defect_report(allocation))
        with span("traversal.load_table_fixture"):
            fixture = load_table_fixture(shipped_fixture_path())
        with span("traversal.load_errata"):
            errata = load_errata(shipped_errata_path())
        with span("traversal.check_fixture"):
            fixture_report = check_fixture(all40, fixture, errata)
        poly, det = alexander(BRAID_818, span)
        with span("laurent.evaluate"):
            determinant = abs(poly.evaluate(-1))
        with span("braid.annular_embed"):
            embedding = annular_embed(BRAID_818, (1, 2, 3), SLOTS_PER_LETTER)
        with span("braid.winding_phase"):
            phase = winding_phase(embedding)
        return {
            "mapped": mapped, "word": word, "crossings": crossings, "reparsed": reparsed,
            "dt": dt, "invalid": invalid, "tables": tables, "orbits": orbits,
            "traversed": traversed, "state_reports": state_reports,
            "ensemble_reports": ensemble_reports, "fixture": fixture_report,
            "alexander": poly, "det": det, "determinant": determinant,
            "embedding": embedding, "phase": phase,
        }

    def summary(self, raw: dict) -> dict:
        """Plain data for :func:`oracles.check_paper`."""
        return {
            "mapped": str(raw["mapped"]),
            "closure": str(raw["word"]),
            "reparsed": str(raw["reparsed"]),
            "dt": tuple(raw["dt"]),
            "invalid": list(raw["invalid"]),
            "crossings": len(raw["crossings"]),
            "writhe": sum(c.sign for c in raw["crossings"]),
            "tables": [_table(t) for t in raw["tables"]],
            "orbits": [tuple(o) for o in raw["orbits"]],
            "traversed": _table(raw["traversed"])[2],
            "state_reports": [(total, _report(r)) for total, r in raw["state_reports"]],
            "ensemble_reports": [_report(r) for r in raw["ensemble_reports"]],
            "cases": {
                r.case_id: (str(r.status), r.witness.describe() if r.witness else None, r.erratum_applied)
                for r in raw["fixture"].results
            },
            "alexander": _poly(raw["alexander"]),
            "determinant": raw["determinant"],
            "phase": raw["phase"],
        }

    def check(self, i: int, x: dict, raw: dict) -> list[str]:
        return oracles.check_paper(self.summary(raw), tuple(x["start"]))

    def counts(self, x: dict, raw: dict) -> dict[str, float]:
        reports = [r for _t, r in raw["state_reports"]] + raw["ensemble_reports"]
        results = raw["fixture"].results
        return {
            "braid.letters": len(BRAID_818),
            "braid.points": sum(len(loop) for loop in raw["embedding"].loops),
            "invariants.burau_dim": BRAID_818.strands - 1,
            "laurent.alexander_degree": len(raw["alexander"].coeffs) - 1,
            "laurent.coeff_bits": _coeff_bits(raw["det"]),
            "traversal.tables": len(raw["tables"]),
            "traversal.cases_matched": sum(r.status is not MatchStatus.UNMATCHED for r in results),
            "traversal.cases_with_erratum": sum(r.erratum_applied for r in results),
            "allocation.mismatch_classes": sum(c.mismatch for r in reports for c in r.classes),
        }


class Invariants(_Workload):
    """What `knot818 invariants` computes, on seeded knot-closure braids."""

    warm_up_input = (3, inputs.REFERENCE_BRAID_TEXT)

    def __init__(self, name: str, make_inputs) -> None:
        self.name = name
        self._make_inputs = make_inputs
        self._first: dict[int, tuple] = {}
        self._seed = 0

    def inputs(self, seed: int) -> list[tuple[int, str]]:
        self._seed = seed
        return self._make_inputs(seed)

    def op(self, x: tuple[int, str], span) -> dict:
        strands, text = x
        with span("notation.parse_braid_word"):
            braid = parse_braid_word(text, strands)
        poly, det = alexander(braid, span)
        with span("braid.closure_diagram"):
            _word, crossings = closure_diagram(braid)
        with span("braid.annular_embed"):
            embedding = annular_embed(braid, tuple(range(1, strands + 1)), SLOTS_PER_LETTER)
        with span("braid.winding_phase"):
            phase = winding_phase(embedding)
        with span("laurent.evaluate"):
            determinant = abs(poly.evaluate(-1))
        return {
            "braid": braid, "alexander": poly, "det": det, "crossings": crossings,
            "embedding": embedding, "phase": phase, "determinant": determinant,
        }

    @staticmethod
    def _summary(raw: dict) -> dict:
        return {
            "alexander": _poly(raw["alexander"]),
            "writhe": sum(c.sign for c in raw["crossings"]),
            "phase": raw["phase"],
            "determinant": raw["determinant"],
        }

    def check(self, i: int, x: tuple[int, str], raw: dict) -> list[str]:
        """The oracle, plus: every op on an input repeats its first result.

        Traced and untraced passes alternate, so this also shows the
        composed Alexander stages equal ``alexander_from_braid``.
        """
        summary = self._summary(raw)
        fails = oracles.check_invariants(summary, x[0], [int(t) for t in x[1].split()])
        first = self._first.setdefault(i, summary["alexander"])
        if summary["alexander"] != first:
            fails.append(f"input {i}: alexander differs from its first op")
        return fails

    def counts(self, x: tuple[int, str], raw: dict) -> dict[str, float]:
        return {
            "braid.letters": len(raw["braid"]),
            "braid.points": sum(len(loop) for loop in raw["embedding"].loops),
            "invariants.burau_dim": x[0] - 1,
            "laurent.alexander_degree": len(raw["alexander"].coeffs) - 1,
            "laurent.coeff_bits": _coeff_bits(raw["det"]),
        }

    def check_pass(self, xs: list) -> list[str]:
        """Untimed: the Alexander polynomial is unchanged by conjugation."""
        rng = random.Random(f"{self.name}/conjugate/{self._seed}")
        fails = []
        for i, (strands, text) in enumerate(xs):
            letters = tuple(int(t) for t in text.split())
            conjugate = inputs.conjugate_by_rotation(rng, letters)
            poly = alexander_from_braid(parse_braid_word(inputs.braid_text(conjugate), strands))
            if _poly(poly) != self._first.get(i):
                fails.append(f"input {i}: alexander changes under conjugation")
        return fails


# name, arguments after `python -m knot818`, expected exit code
CLI_INVOCATIONS = (
    ("build", ["build"], 0),
    ("invariants", ["invariants"], 0),
    ("traverse", ["traverse", "--start", "A", "--dir", "ccw", "--role", "under", "--format", "csv"], 0),
    ("analyze", ["analyze", "--ensemble", "all40", "--format", "json"], 0),
    ("check_fixture_errata", ["check-fixture", "--errata"], 0),
    ("check_fixture", ["check-fixture"], 1),
    ("embed", ["embed", "--out", "points.csv"], 0),
)
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
IMPORT_PROBE = "import time; t = time.perf_counter(); import knot818.cli; print(time.perf_counter() - t)"
PROBES = 7


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment with the CLI's own settings pinned.

    No KNOT818_FORMAT, so every command prints its default format; the
    checkout's sources first on the path; UTF-8 stdout, since
    `invariants` and `embed` print the phase with a pi sign.
    """
    env = {k: v for k, v in os.environ.items() if k != "KNOT818_FORMAT" and not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(src), PYTHONIOENCODING="utf-8")
    return env


def run_child(argv: list[str], cwd: Path, env: dict) -> tuple[int, bytes, int]:
    """Run one process to completion: (exit code, stdout, peak RSS in KiB)."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class Cli(_Workload):
    """One `python -m knot818 ...` process per op, from the checkout's src."""

    name = "cli"
    warm_up_input = "build"

    def __init__(self, root: Path) -> None:
        self.src = root / "src"
        self.env = child_env(self.src)
        self.tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
        self.golden = {
            name: (GOLDEN_DIR / f"{name}.stdout").read_bytes() for name, _a, _e in CLI_INVOCATIONS
        }
        self._peak_kb = 0
        self._unexpected_exits = 0
        code, out, _kb = run_child(
            [sys.executable, "-c", "import knot818; print(knot818.__file__)"], self.tmp, self.env
        )
        self.module_file = out.decode().strip()
        if code != 0 or not Path(self.module_file).is_relative_to(self.src):
            raise RuntimeError(f"child imports knot818 from {self.module_file!r}, not {self.src}")

    def inputs(self, seed: int) -> list[str]:
        names = [name for name, _a, _e in CLI_INVOCATIONS]
        random.Random(f"cli/{seed}").shuffle(names)
        return names

    def op(self, name: str, span) -> tuple[int, bytes, int]:
        args = next(a for n, a, _e in CLI_INVOCATIONS if n == name)
        with span(f"cli.{name}"):
            return run_child([sys.executable, "-m", "knot818", *args], self.tmp, self.env)

    def check(self, i: int, name: str, raw) -> list[str]:
        code, out, kb = raw
        self._peak_kb = max(self._peak_kb, kb)
        want_exit = next(e for n, _a, e in CLI_INVOCATIONS if n == name)
        self._unexpected_exits += code != want_exit
        points = None
        if name == "embed":
            path = self.tmp / "points.csv"
            points = path.read_text(encoding="utf-8") if path.exists() else ""
            path.unlink(missing_ok=True)
        return oracles.check_cli(code, out, want_exit, self.golden[name], points)

    def peak_rss_kb(self) -> int:
        return self._peak_kb

    def layer_extras(self) -> dict[str, float]:
        """Median bare-interpreter and `import knot818.cli` times in ms, and
        the run's count of unexpected exit codes."""
        bare, imports = [], []
        for _ in range(PROBES):
            t0 = perf_counter()
            _done, factor = calibration.around(
                lambda: run_child([sys.executable, "-c", "pass"], self.tmp, self.env)
            )
            bare.append((perf_counter() - t0) * factor)
            (code, out, _kb), factor = calibration.around(
                lambda: run_child([sys.executable, "-c", IMPORT_PROBE], self.tmp, self.env)
            )
            if code == 0:
                imports.append(float(out) * factor)
        return {
            "cli.interpreter_ms": 1e3 * statistics.median(bare),
            "cli.import_ms": 1e3 * statistics.median(imports) if imports else 0.0,
            "cli.unexpected_exits": self._unexpected_exits,
        }

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def make(name: str, root: Path):
    if name == "paper818":
        return Paper818()
    if name == "invariants_long":
        return Invariants(name, inputs.long_braids)
    if name == "invariants_wide":
        return Invariants(name, inputs.wide_braids)
    if name == "cli":
        return Cli(root)
    raise ValueError(f"unknown workload {name!r}")
