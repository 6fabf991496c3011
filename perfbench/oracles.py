"""Exact oracles for the outputs of every workload.

Each ``check_*`` function takes plain data (strings, ints, tuples and
dicts built by ``workloads.py`` from the library's results) and returns
a list of failure messages, empty when the output is correct.  The
expected values come from CONVENTIONS.md and from walking the reference
word by hand here, never from the library under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from inputs import QUARTER_TURN, REFERENCE_GAUSS, start_states

REFERENCE_DT = (-12, -14, -16, -2, -4, -6, -8, -10)
REFERENCE_ALEXANDER = (1, -5, 10, -13, 10, -5, 1)
REFERENCE_DETERMINANT = 45
PHASE_TOLERANCE = 1e-9

# Start state of the table matching each shipped reference case.
CASE_WITNESSES = {
    "a": "K,cw", "b": "K,ccw", "c": "F,cw,over", "d": "F,ccw,over",
    "e": "F,cw,under", "f": "F,ccw,under", "g": "mirror(A,cw,under)",
    "h": "A,ccw,under", "i": "A,cw,over", "j": "A,ccw,over",
    "k": "mirror(K,cw)",
}
ERRATUM_CASES = frozenset("h")

# Report order of the defect report: class name and its four sites.
SITE_CLASSES = (
    ("branch-center", "IJKL"),
    ("outer-shoulder", "EFGH"),
    ("inner-shoulder", "ABCD"),
)
REPRESENTATIVE_SITES = "KFA"

_ROLE_OF_PREFIX = {"O": "over", "U": "under", "V": "through"}
_SWAPPED = {"over": "under", "under": "over", "through": "through"}


def reference_visits() -> list[tuple[str, str]]:
    return [(t[1:], _ROLE_OF_PREFIX[t[0]]) for t in REFERENCE_GAUSS.split()]


def expected_table(start) -> dict[tuple[str, str], int]:
    """Values 1..20 walking the reference word from a start state."""
    site, direction, role = start
    visits = reference_visits()
    at = visits.index((site, role or "through"))
    step = 1 if direction == "cw" else -1
    n = len(visits)
    return {visits[(at + step * k) % n]: k + 1 for k in range(n)}


def mirrored(values: dict) -> dict:
    return {(site, _SWAPPED[role]): v for (site, role), v in values.items()}


def relabeled(values: dict, mapping: dict) -> dict:
    return {(mapping[site], role): v for (site, role), v in values.items()}


@lru_cache(maxsize=None)
def expected_tables() -> list[tuple[tuple, bool, dict]]:
    """The 40 direct tables in enumeration order, then their 40 mirrors."""
    direct = [(s, False, expected_table(s)) for s in start_states()]
    return direct + [(s, True, mirrored(v)) for s, _m, v in direct]


def site_totals(tables) -> dict[str, int]:
    totals: dict[str, int] = {}
    for _start, _mirror, values in tables:
        for (site, _role), v in values.items():
            totals[site] = totals.get(site, 0) + v
    return totals


def class_report(totals: dict[str, int]) -> list[tuple]:
    """(class, ((site, total), ...), mean, max deviation, mismatch) per class."""
    out = []
    for name, sites in SITE_CLASSES:
        values = [totals[s] for s in sites]
        mean = Fraction(sum(values), len(values))
        out.append(
            (
                name,
                tuple(zip(sites, values)),
                mean,
                max(abs(v - mean) for v in values),
                len(set(values)) > 1,
            )
        )
    return out


@lru_cache(maxsize=None)
def expected_state_reports() -> list[tuple[int, list[tuple]]]:
    """(grand total, report) for each of the 40 direct tables."""
    return [(210, class_report(site_totals([t]))) for t in expected_tables()[:40]]


@lru_cache(maxsize=None)
def expected_ensemble_reports() -> list[list[tuple]]:
    """Reports of the reps10, all40 and with-mirrors ensembles."""
    tables = expected_tables()
    reps = [t for site in REPRESENTATIVE_SITES for t in tables[:40] if t[0][0] == site]
    with_mirrors = reps + [(s, True, mirrored(v)) for s, _m, v in reps]
    return [class_report(site_totals(e)) for e in (reps, tables[:40], with_mirrors)]


def _values_are_permutation(values: dict) -> bool:
    return sorted(values.values()) == list(range(1, 21))


def check_paper(out: dict, start) -> list[str]:
    """Oracle for one paper818 op; ``start`` is the state it traversed."""
    fails = []
    if out["mapped"] != REFERENCE_GAUSS:
        fails.append("presentation did not map back to the reference word")
    if out["closure"] != REFERENCE_GAUSS:
        fails.append("closure of BRAID_818 is not the reference word")
    if out["reparsed"] != out["closure"]:
        fails.append("gauss text does not round-trip")
    if tuple(out["dt"]) != REFERENCE_DT:
        fails.append(f"DT code {out['dt']}")
    if out["invalid"]:
        fails.append(f"validate_word: {out['invalid']}")
    if out["writhe"] != 0 or out["crossings"] != 8:
        fails.append("closure is not 8 crossings of writhe 0")

    tables = out["tables"]
    want = expected_tables()
    if len(tables) != 80:
        fails.append(f"{len(tables)} tables, expected 80")
    else:
        for got, exp in zip(tables, want):
            if not _values_are_permutation(got[2]) or sum(got[2].values()) != 210:
                fails.append(f"table {got[0]} is not a permutation of 1..20 summing to 210")
            elif got != exp:
                fails.append(f"table {exp[0]} mirrored={exp[1]} differs from the walk")
    orbits = out["orbits"]
    if sorted(i for o in orbits for i in o) != list(range(80)) or len(orbits) != 20:
        fails.append("orbits are not 20 disjoint orbits covering 80 tables")
    elif any(len(o) != 4 for o in orbits):
        fails.append("an orbit does not have 4 tables")
    elif len(tables) == 80:
        for orbit in orbits:
            for a, b in zip(orbit, orbit[1:] + orbit[:1]):
                if relabeled(tables[a][2], QUARTER_TURN) != tables[b][2]:
                    fails.append(f"orbit {orbit} is not closed under the quarter turn")
                    break
    if out["traversed"] != expected_table(start):
        fails.append(f"traverse from {start} differs from the walk")

    if out["state_reports"] != expected_state_reports():
        fails.append("per-state defect reports are wrong")
    if out["ensemble_reports"] != expected_ensemble_reports():
        fails.append("ensemble defect reports are wrong")

    cases = out["cases"]
    if sorted(cases) != sorted(CASE_WITNESSES):
        fails.append(f"fixture cases {sorted(cases)}")
    for case_id, (status, witness, erratum) in sorted(cases.items()):
        need = "MATCHED_WITH_ERRATUM" if case_id in ERRATUM_CASES else "MATCHED"
        if (status, witness, erratum) != (need, CASE_WITNESSES.get(case_id), case_id in ERRATUM_CASES):
            fails.append(f"case {case_id}: {status} {witness} erratum={erratum}")

    if out["alexander"] != (0, REFERENCE_ALEXANDER):
        fails.append(f"alexander {out['alexander']}")
    if out["determinant"] != REFERENCE_DETERMINANT:
        fails.append(f"determinant {out['determinant']}")
    if not abs(out["phase"] - 6 * math.pi) <= PHASE_TOLERANCE:
        fails.append(f"phase {out['phase']!r} is not 6*pi")
    return fails


def check_invariants(out: dict, strands: int, letters) -> list[str]:
    """Oracle for one invariants op on a braid whose closure is a knot."""
    fails = []
    min_exp, coeffs = out["alexander"]
    if min_exp != 0 or not coeffs or coeffs[0] <= 0:
        fails.append("alexander polynomial is not normalized")
    if tuple(coeffs) != tuple(reversed(coeffs)):
        fails.append("alexander polynomial is not palindromic")
    if abs(sum(coeffs)) != 1:
        fails.append(f"|alexander(1)| = {abs(sum(coeffs))}, expected 1")
    at_minus_one = abs(sum(c if k % 2 == 0 else -c for k, c in enumerate(coeffs)))
    if out["determinant"] != at_minus_one or at_minus_one % 2 != 1:
        fails.append(f"determinant {out['determinant']}, alexander(-1) = {at_minus_one}")
    exponent_sum = sum(1 if l > 0 else -1 for l in letters)
    if out["writhe"] != exponent_sum:
        fails.append(f"writhe {out['writhe']} != exponent sum {exponent_sum}")
    if not abs(out["phase"] - 2 * math.pi * strands) <= PHASE_TOLERANCE:
        fails.append(f"phase {out['phase']!r} is not 2*pi*{strands}")
    return fails


def check_cli(exit_code: int, stdout: bytes, want_exit: int, want_stdout: bytes, points_csv=None) -> list[str]:
    """Oracle for one CLI invocation; ``points_csv`` is embed's output file text."""
    fails = []
    if exit_code != want_exit:
        fails.append(f"exit {exit_code}, expected {want_exit}")
    if stdout != want_stdout:
        fails.append("stdout differs from the golden copy")
    if points_csv is not None:
        lines = points_csv.splitlines()
        if not lines or lines[0] != "loop,x,y" or len(lines) != 1 + 1537:
            fails.append(f"points file has {len(lines)} lines, expected header plus 1537")
    return fails
