"""Tests of the benchmark itself: inputs, oracles, names, exit codes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibration  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from knot818 import BraidWord, parse_braid_word  # noqa: E402
from spans import NO_SPANS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- inputs ------------------------------------------------------------


@pytest.mark.parametrize("make", [inputs.long_braids, inputs.wide_braids, inputs.paper_inputs])
def test_inputs_are_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert inputs.digest(make(7)) == inputs.digest(make(7))
    assert inputs.digest(make(7)) != inputs.digest(make(8))


@pytest.mark.parametrize("seed", range(5))
def test_generated_braids_are_knot_closures_of_the_ladder_lengths(seed):
    long_pool, wide_pool = inputs.long_braids(seed), inputs.wide_braids(seed)
    assert sorted(len(t.split()) for _s, t in long_pool) == sorted(inputs.LONG_LENGTHS * 2)
    assert {s for s, _t in wide_pool} == set(inputs.WIDE_STRANDS)
    for strands, text in long_pool + wide_pool:
        braid = parse_braid_word(text, strands)
        assert braid.is_knot_closure
        assert (len(braid) - (strands - 1)) % 2 == 0
        if strands in inputs.WIDE_STRANDS:
            assert 5 * strands <= len(braid) <= 9 * strands + 1


def test_generator_builds_knots_directly_and_rejects_impossible_lengths():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        inputs.knot_closure_letters(rng, 4, 60, alternating=False)  # wrong parity: never a knot
    for strands in range(2, 10):
        for length in range(strands - 1, strands + 40, 2):
            for alternating in (False, True):
                letters = inputs.knot_closure_letters(rng, strands, length, alternating)
                assert len(letters) == length
                assert BraidWord(strands, letters).is_knot_closure


def test_conjugate_by_rotation_keeps_the_letters():
    letters = tuple(range(1, 9))
    conj = inputs.conjugate_by_rotation(random.Random(1), letters)
    assert conj != letters and sorted(conj) == sorted(letters)


def test_presentations_map_back_to_the_reference_word():
    ops = workloads.Paper818()
    for x in inputs.paper_inputs(3):
        summary = ops.summary(ops.op(x, NO_SPANS))
        assert summary["mapped"] == inputs.REFERENCE_GAUSS


# -- oracles -----------------------------------------------------------


@pytest.fixture(scope="module")
def paper():
    ops = workloads.Paper818()
    x = inputs.paper_inputs(1)[0]
    return ops.summary(ops.op(x, NO_SPANS)), tuple(x["start"])


def test_paper_oracle_accepts_the_real_result(paper):
    summary, start = paper
    assert oracles.check_paper(summary, start) == []


def _swap_two_values(table):
    start, mirrored, values = table
    values = dict(values)
    a, b = sorted(values)[:2]
    values[a], values[b] = values[b], values[a]
    return (start, mirrored, values)


PAPER_CORRUPTIONS = {
    "alexander": lambda s: s.update(alexander=(0, (1, -5, 11, -13, 10, -5, 1))),
    "determinant": lambda s: s.update(determinant=44),
    "dt": lambda s: s.update(dt=(-14, -12, -16, -2, -4, -6, -8, -10)),
    "phase": lambda s: s.update(phase=s["phase"] + 1e-6),
    "mapped": lambda s: s.update(mapped=s["mapped"][3:] + " " + s["mapped"][:2]),
    "table": lambda s: s["tables"].__setitem__(5, _swap_two_values(s["tables"][5])),
    "mirror": lambda s: s["tables"].__setitem__(45, _swap_two_values(s["tables"][45])),
    "orbits": lambda s: s.update(orbits=s["orbits"][:-1] + [s["orbits"][-1][::-1]]),
    "traversed": lambda s: s.update(traversed=_swap_two_values((None, False, s["traversed"]))[2]),
    "state report": lambda s: s["state_reports"].__setitem__(0, (209, s["state_reports"][0][1])),
    "ensemble": lambda s: s["ensemble_reports"].reverse(),
    "case h raw": lambda s: s["cases"].__setitem__("h", ("MATCHED", "A,ccw,under", False)),
    "witness": lambda s: s["cases"].__setitem__("a", ("MATCHED", "K,ccw", False)),
    "missing case": lambda s: s["cases"].pop("k"),
}


@pytest.mark.parametrize("name", sorted(PAPER_CORRUPTIONS))
def test_paper_oracle_rejects_a_corrupted_result(paper, name):
    summary, start = paper
    bad = copy.deepcopy(summary)
    PAPER_CORRUPTIONS[name](bad)
    assert oracles.check_paper(bad, start)


@pytest.fixture(scope="module")
def invariants():
    ops = workloads.Invariants("invariants_long", inputs.long_braids)
    strands, text = inputs.long_braids(2)[1]
    summary = ops._summary(ops.op((strands, text), NO_SPANS))
    return summary, strands, tuple(int(t) for t in text.split())


def test_invariants_oracle_accepts_the_real_result(invariants):
    assert oracles.check_invariants(*invariants) == []


def _bump_coefficient(s):
    min_exp, coeffs = s["alexander"]
    s["alexander"] = (min_exp, (coeffs[0] + 1,) + coeffs[1:-1] + (coeffs[-1] + 1,))


INVARIANT_CORRUPTIONS = {
    "middle coefficient": lambda s: s.update(
        alexander=(0, s["alexander"][1][:1] + (s["alexander"][1][1] + 1,) + s["alexander"][1][2:])
    ),
    "palindromic bump": _bump_coefficient,
    "shifted": lambda s: s.update(alexander=(1, s["alexander"][1])),
    "writhe": lambda s: s.update(writhe=s["writhe"] + 1),
    "phase": lambda s: s.update(phase=s["phase"] * (1 + 1e-9)),
    "determinant": lambda s: s.update(determinant=s["determinant"] + 2),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_CORRUPTIONS))
def test_invariants_oracle_rejects_a_corrupted_result(invariants, name):
    summary, strands, letters = invariants
    bad = copy.deepcopy(summary)
    INVARIANT_CORRUPTIONS[name](bad)
    assert oracles.check_invariants(bad, strands, letters)


def test_cli_oracle_compares_bytes_exit_codes_and_points():
    golden = (BENCH / "golden" / "check_fixture.stdout").read_bytes()
    assert oracles.check_cli(1, golden, 1, golden) == []
    assert oracles.check_cli(0, golden, 1, golden)
    assert oracles.check_cli(1, golden[:-2] + b"X\n", 1, golden)
    good_points = "loop,x,y\n" + "0,1.0,0.0\n" * 1537
    assert oracles.check_cli(0, b"", 0, b"", good_points) == []
    assert oracles.check_cli(0, b"", 0, b"", good_points + "0,1.0,0.0\n")
    assert oracles.check_cli(0, b"", 0, b"", good_points.replace("loop,x,y", "x,y"))


def test_golden_files_cover_every_invocation():
    names = {name for name, _a, _e in workloads.CLI_INVOCATIONS}
    assert {p.stem for p in (BENCH / "golden").glob("*.stdout")} == names


# -- metrics and names ---------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(k) for k in range(100)]
    assert run.tail(samples) == (90.0, 89.0)
    pct, value = run.tail([float(k) for k in range(137)])
    assert pct == 92.7 and sum(s > value for s in range(137)) == 10


def test_op_factors_use_the_kernel_runs_around_each_op():
    ref = calibration.REFERENCE_S
    assert calibration.op_factors([ref, ref, ref]) == [1.0, 1.0]
    slow = calibration.op_factors([2 * ref] * 5 + [ref] * 5)
    assert slow[0] == 0.5 and slow[-1] == 1.0 and len(slow) == 9


def test_spec_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def _run(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(tmp_root / "perfbench" / "run.py"), *args],
        cwd=tmp_root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_prints_exactly_the_declared_metrics(trace):
    done = _run(ROOT, "--workload", "paper818", "--seed", "3", "--seconds", "0.3", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "paper818", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
