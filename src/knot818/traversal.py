"""Traversal-order tables and their comparison against the shipped fixture.

Starting from a chosen site (entering on a chosen role at shoulders) and
walking the word in one of the two directions, the twenty visits receive
the values 1..20 in order.  A :class:`TraversalTable` holds one such
assignment as twenty values in :data:`TABLE_KEYS` order.  Ten starts are
enough to represent every table up to the quarter-turn relabeling: both
directions at one branch center and at one shoulder per ring, each
shoulder entered on either role.

The shipped fixture (``data/reference_cases.csv``) lists eleven reference
tables, cases a..k.  ``check_fixture`` matches them against an ensemble
and its mirrors, applying shipped errata rows (:func:`apply_errata`) when
a case cannot be matched raw.
"""

from __future__ import annotations

import csv
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .diagram import (
    BRANCH_SITES,
    LETTER_SITES,
    ROTATION_RELABEL,
    SHOULDER_SITES,
    DiagramWord,
    Role,
    canonical_818,
)
from .errors import DomainError, UsageError


class InvalidStartSpecError(UsageError, ValueError):
    pass


class StartNotFoundError(DomainError, ValueError):
    """Start site does not occur in the word."""


class RoleMissingError(DomainError, ValueError):
    """Start site occurs, but never with the requested entry role."""


class EmptyEnsembleError(DomainError, ValueError):
    pass


class FixtureParseError(UsageError, ValueError):
    pass


class Direction(Enum):
    CW = "cw"
    CCW = "ccw"

    def __str__(self) -> str:
        return self.value


# Clockwise is pinned to the stored visit order of canonical_818(): the
# (K, cw) table reproduces fixture case a.
_FORWARD = Direction.CW

REPRESENTATIVE_SITES = ("K", "F", "A")  # one per class: branch, outer, inner

# The twenty (site, role) keys of a table in storage order: shoulders A..H
# over then under, then branch centers I..L through.
TABLE_KEYS = tuple((s, r) for s in SHOULDER_SITES for r in (Role.OVER, Role.UNDER)) + tuple(
    (s, Role.THROUGH) for s in BRANCH_SITES
)
_SLOT = {key: i for i, key in enumerate(TABLE_KEYS)}


def _labeled(values: tuple[int, ...]) -> tuple[tuple[str, Role, int], ...]:
    return tuple((site, role, value) for (site, role), value in zip(TABLE_KEYS, values))


class StartSpec(NamedTuple("StartSpec", [("site", str), ("direction", Direction), ("entry_role", Optional[Role])])):
    """Where and how a traversal begins.

    Branch centers take no entry role (the single through visit is the
    start); shoulders need one of over/under to pick the occurrence.
    """

    __slots__ = ()

    def __new__(cls, site: str, direction: Direction, entry_role: Optional[Role] = None) -> "StartSpec":
        if site not in LETTER_SITES:
            raise InvalidStartSpecError(f"start site must be one of A..L, got {site!r}")
        if site in BRANCH_SITES:
            if entry_role is not None:
                raise InvalidStartSpecError(f"branch start {site} takes no entry role")
        else:
            if entry_role not in (Role.OVER, Role.UNDER):
                raise InvalidStartSpecError(f"shoulder start {site} needs an over or under entry role")
        return super().__new__(cls, site, direction, entry_role)

    def __str__(self) -> str:
        if self.entry_role is None:
            return f"{self.site},{self.direction}"
        return f"{self.site},{self.direction},{self.entry_role}"


class TraversalTable(NamedTuple):
    """Values 1..20 assigned to the twenty visits, in :data:`TABLE_KEYS` order."""

    start: StartSpec
    values: tuple[int, ...]
    mirrored: bool = False

    @property
    def entries(self) -> tuple[tuple[str, Role, int], ...]:
        """``(site, role, value)`` triples in :data:`TABLE_KEYS` order."""
        return _labeled(self.values)

    def describe(self) -> str:
        return f"mirror({self.start})" if self.mirrored else str(self.start)


def _slots(word: DiagramWord) -> Optional[tuple[int, ...]]:
    """The :data:`TABLE_KEYS` slot of each visit, in word order.

    ``None`` unless the word is a 20-visit word of the 12-site model,
    i.e. every key occurs exactly once.
    """
    if len(word) != len(TABLE_KEYS):
        return None
    slots = tuple(_SLOT.get(v) for v in word)
    if None in slots or len(set(slots)) != len(TABLE_KEYS):
        return None
    return slots


def _traverse(word: DiagramWord, slots: Optional[tuple[int, ...]], start: StartSpec) -> TraversalTable:
    positions = [i for i, v in enumerate(word) if v.site == start.site]
    if not positions:
        raise StartNotFoundError(f"site {start.site} does not occur in the word")
    want = Role.THROUGH if start.entry_role is None else start.entry_role
    at = next((i for i in positions if word[i].role is want), None)
    if at is None:
        raise RoleMissingError(f"site {start.site} has no {want} visit")
    if slots is None:
        raise ValueError(f"table undefined: not a {len(TABLE_KEYS)}-visit word of the 12-site model")
    walk = slots[at:] + slots[:at] if start.direction is _FORWARD else slots[at::-1] + slots[:at:-1]
    values = [0] * len(walk)
    for value, slot in enumerate(walk, 1):
        values[slot] = value
    return TraversalTable(start, tuple(values))


def traverse(word: DiagramWord, start: StartSpec) -> TraversalTable:
    """Assign 1..20 walking from the start occurrence.

    CW walks the stored order forward, CCW backward.  The start visit
    always receives value 1.  Tables exist only for 20-visit words of the
    12-site model: any other word that contains the start raises
    ``ValueError`` before the walk.
    """
    return _traverse(word, _slots(word), start)


def _gather_order(image) -> tuple[int, ...]:
    """Slot i of the result reads slot order[i] when each key k moves to image(k)."""
    source = {image(key): i for i, key in enumerate(TABLE_KEYS)}
    return tuple(source[key] for key in TABLE_KEYS)


_MIRROR_ORDER = _gather_order(lambda key: (key[0], key[1].swapped))


def mirror_table(table: TraversalTable) -> TraversalTable:
    """The same traversal on the mirror diagram: over and under values swap."""
    values = tuple(table.values[i] for i in _MIRROR_ORDER)
    return TraversalTable(table.start, values, mirrored=not table.mirrored)


class StateEnsemble(NamedTuple("StateEnsemble", [("label", str), ("tables", tuple[TraversalTable, ...])])):
    """A labeled collection of tables with pairwise distinct start specs."""

    __slots__ = ()

    def __new__(cls, label: str, tables: tuple[TraversalTable, ...]) -> "StateEnsemble":
        specs = [(t.start, t.mirrored) for t in tables]
        if len(set(specs)) != len(specs):
            raise ValueError("duplicate start specs in ensemble")
        return super().__new__(cls, label, tables)


def _start_specs_for(site: str) -> list[StartSpec]:
    if site in BRANCH_SITES:
        return [StartSpec(site, d) for d in (Direction.CW, Direction.CCW)]
    return [
        StartSpec(site, d, r)
        for d in (Direction.CW, Direction.CCW)
        for r in (Role.OVER, Role.UNDER)
    ]


def _ensemble(label: str, sites: Sequence[str]) -> StateEnsemble:
    word = canonical_818()
    slots = _slots(word)
    tables = tuple(_traverse(word, slots, spec) for site in sites for spec in _start_specs_for(site))
    return StateEnsemble(label, tables)


def enumerate_representatives() -> StateEnsemble:
    """The ten tables that generate all forty under the quarter-turn relabeling.

    One site per class (K, F, A), both directions, shoulders entered on
    both roles; ordered site-major, then direction (cw first), then role
    (over first).
    """
    return _ensemble("reps10", REPRESENTATIVE_SITES)


def enumerate_all() -> StateEnsemble:
    """All forty tables, sites in letter order, then direction, then role."""
    return _ensemble("all40", LETTER_SITES)


def with_mirrors(ensemble: StateEnsemble) -> list[TraversalTable]:
    """Direct tables first, then the mirror of each."""
    return list(ensemble.tables) + [mirror_table(t) for t in ensemble.tables]


def rotation_orbits(tables: Sequence[TraversalTable]) -> tuple[tuple[int, ...], ...]:
    """Group table indices into orbits of the quarter-turn relabeling.

    Also checks equivariance along the way: relabeling a member table
    must reproduce the ensemble's table for the relabeled start spec.
    """
    def key(t: TraversalTable):
        return (t.start.site, t.start.direction, t.start.entry_role, t.mirrored)

    index = {key(t): i for i, t in enumerate(tables)}
    if len(index) != len(tables):
        raise ValueError("duplicate start specs")
    order = _gather_order(lambda k: (ROTATION_RELABEL[k[0]], k[1]))
    seen: set[int] = set()
    orbits: list[tuple[int, ...]] = []
    for i, table in enumerate(tables):
        if i in seen:
            continue
        orbit: list[int] = []
        cur_i, cur = i, table
        while cur_i not in seen:
            seen.add(cur_i)
            orbit.append(cur_i)
            site, direction, role, mirrored = key(cur)
            nxt_i = index.get((ROTATION_RELABEL[site], direction, role, mirrored))
            if nxt_i is None:
                rotated = StartSpec(ROTATION_RELABEL[site], direction, role)
                raise ValueError(f"ensemble not closed under rotation at {rotated}")
            nxt = tables[nxt_i]
            if nxt.values != tuple(cur.values[j] for j in order):
                raise ValueError(f"rotation equivariance violated at {nxt.start}")
            cur_i, cur = nxt_i, nxt
        orbits.append(tuple(orbit))
    return tuple(orbits)


# ---------------------------------------------------------------------------
# Fixture handling


class FixtureCase(NamedTuple):
    """One reference table: values in :data:`TABLE_KEYS` order, like a table's."""

    case_id: str
    values: tuple[int, ...]

    @property
    def entries(self) -> tuple[tuple[str, Role, int], ...]:
        return _labeled(self.values)


# The TABLE_KEYS slot of each (site, role) pair as a fixture row spells it.
_SLOT_BY_TEXT = {(site, role.value): i for (site, role), i in _SLOT.items()}


def _row_slot(lineno: int, site: str, role_name: str) -> int:
    """The :data:`TABLE_KEYS` slot a fixture row names, or why it names none."""
    slot = _SLOT_BY_TEXT.get((site, role_name))
    if slot is not None:
        return slot
    if site not in LETTER_SITES:
        raise FixtureParseError(f"line {lineno}: unknown site {site!r}")
    try:
        Role(role_name)
    except ValueError:
        raise FixtureParseError(f"line {lineno}: unknown role {role_name!r}") from None
    raise FixtureParseError(f"line {lineno}: role {role_name!r} does not fit site {site!r}")


def _parse_int(lineno: int, text: str, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FixtureParseError(f"line {lineno}: {column} {text!r} is not an integer") from None


def _read_rows(path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, row)`` for each CSV row after ``header``, checked to have its width."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError:
        raise FixtureParseError(f"{path}: not UTF-8 text") from None
    if rows[:1] != [header]:
        raise FixtureParseError(f"line 1: expected header {','.join(header)}")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FixtureParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        yield lineno, row


def load_table_fixture(path) -> tuple[FixtureCase, ...]:
    """Read a case table from CSV with header ``case,site,role,value``."""
    cases: dict[str, list[Optional[int]]] = {}  # values by TABLE_KEYS slot
    for lineno, (case_id, site, role_name, value_text) in _read_rows(path, ["case", "site", "role", "value"]):
        if not case_id:
            raise FixtureParseError(f"line {lineno}: empty case id")
        slot = _row_slot(lineno, site, role_name)
        value = _parse_int(lineno, value_text, "value")
        entries = cases.get(case_id)
        if entries is None:
            entries = cases[case_id] = [None] * len(TABLE_KEYS)
        if entries[slot] is not None:
            raise FixtureParseError(f"line {lineno}: duplicate entry {site} {role_name} in case {case_id}")
        entries[slot] = value
    for case_id, entries in cases.items():  # any case means lineno is the last row's
        missing = entries.count(None)
        if missing:
            raise FixtureParseError(
                f"line {lineno}: case {case_id} incomplete"
                f" ({len(TABLE_KEYS) - missing} of {len(TABLE_KEYS)} entries)"
            )
    return tuple(FixtureCase(case_id, tuple(entries)) for case_id, entries in cases.items())


def load_errata(path) -> dict[str, list[tuple[str, Role, int, int]]]:
    """Read correction rows: ``case,site,role,value,corrected_value``."""
    out: dict[str, list[tuple[str, Role, int, int]]] = {}
    rows = _read_rows(path, ["case", "site", "role", "value", "corrected_value"])
    for lineno, (case_id, site, role_name, value_text, corrected_text) in rows:
        site, role = TABLE_KEYS[_row_slot(lineno, site, role_name)]
        original = _parse_int(lineno, value_text, "value")
        corrected = _parse_int(lineno, corrected_text, "corrected_value")
        out.setdefault(case_id, []).append((site, role, original, corrected))
    return out


def shipped_fixture_path() -> Path:
    return Path(__file__).with_name("data") / "reference_cases.csv"


def shipped_errata_path() -> Path:
    return Path(__file__).with_name("data") / "reference_cases_errata.csv"


def apply_errata(case: FixtureCase, rows: Sequence[tuple[str, Role, int, int]]) -> FixtureCase:
    """The case with each ``(site, role, value, corrected_value)`` row applied.

    Every row must agree with the value it corrects.
    """
    values = list(case.values)
    for site, role, original, corrected in rows:
        slot = _SLOT[(site, role)]
        if values[slot] != original:
            raise FixtureParseError(
                f"erratum for case {case.case_id} expects {site} {role} = {original}, fixture has {values[slot]}"
            )
        values[slot] = corrected
    return FixtureCase(case.case_id, tuple(values))


def case_multiset_violations(case: FixtureCase) -> list[str]:
    """Diagnostics for a case whose values are not exactly {1..20}."""
    by_value: dict[int, list[str]] = {}
    for site, role, value in case.entries:
        by_value.setdefault(value, []).append(f"{site} {role}")
    diags = []
    for value in sorted(by_value):
        places = by_value[value]
        if not 1 <= value <= 20:
            diags.append(f"value {value} out of range at {', '.join(places)}")
        elif len(places) > 1:
            diags.append(f"value {value} duplicated at {', '.join(places)}")
    for value in range(1, 21):
        if value not in by_value:
            diags.append(f"value {value} missing")
    return diags


class MatchStatus(Enum):
    MATCHED = "MATCHED"
    MATCHED_WITH_ERRATUM = "MATCHED_WITH_ERRATUM"
    UNMATCHED = "UNMATCHED"

    def __str__(self) -> str:
        return self.value


class CaseResult(NamedTuple):
    case_id: str
    status: MatchStatus
    witness: Optional[TraversalTable]
    violations: tuple[str, ...]
    erratum_applied: bool = False


class FixtureReport(NamedTuple):
    results: tuple[CaseResult, ...]

    @property
    def all_matched(self) -> bool:
        return all(r.status is not MatchStatus.UNMATCHED for r in self.results)


def check_fixture(
    ensemble: StateEnsemble,
    fixture: Sequence[FixtureCase],
    errata: Optional[Mapping[str, list[tuple[str, Role, int, int]]]] = None,
) -> FixtureReport:
    """Match every fixture case against the ensemble and its mirrors.

    Every errata row is checked first: it must name a fixture case and
    agree with the stored value it corrects.  A case that fails to match
    raw is then retried with its rows applied.  Multiset violations are
    reported for the raw case either way.
    """
    if not ensemble.tables:
        raise EmptyEnsembleError("cannot match against an empty ensemble")
    errata = errata or {}
    case_ids = {case.case_id for case in fixture}
    for case_id in errata:
        if case_id not in case_ids:
            raise FixtureParseError(f"erratum for case {case_id}: the fixture has no such case")
    corrected = [apply_errata(case, errata[case.case_id]) if case.case_id in errata else None for case in fixture]
    by_values: dict[tuple[int, ...], TraversalTable] = {}
    for table in with_mirrors(ensemble):
        by_values.setdefault(table.values, table)
    results = []
    for case, fixed in zip(fixture, corrected):
        violations = tuple(case_multiset_violations(case))
        witness = by_values.get(case.values)
        if witness is not None:
            results.append(CaseResult(case.case_id, MatchStatus.MATCHED, witness, violations))
            continue
        if fixed is not None:
            witness = by_values.get(fixed.values)
            if witness is not None:
                results.append(
                    CaseResult(case.case_id, MatchStatus.MATCHED_WITH_ERRATUM, witness, violations, True)
                )
                continue
        results.append(CaseResult(case.case_id, MatchStatus.UNMATCHED, None, violations))
    return FixtureReport(tuple(results))
