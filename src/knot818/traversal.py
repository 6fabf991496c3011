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

import io
import os.path
from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence
from functools import cache, partial
from itertools import islice
from operator import itemgetter

from .diagram import (
    BRANCH_SITES,
    LETTER_SITES,
    ROTATION_RELABEL,
    SHOULDER_SITES,
    DiagramWord,
    Role,
    TextEnum,
    canonical_818,
    validate_word,
)
from .errors import DomainError, Record, UsageError, clip, clip_path, too_many_digits


class InvalidStartSpecError(UsageError, ValueError):
    pass


class TableUndefinedError(DomainError, ValueError):
    """The word is not a 20-visit word of the 12-site model, so it has no tables."""


class EmptyEnsembleError(DomainError, ValueError):
    pass


class DuplicateStartError(DomainError, ValueError):
    """Two tables of an ensemble share a start spec and a mirror flag."""


class UnclosedEnsembleError(DomainError, ValueError):
    """An ensemble lacks the quarter-turn image of one of its tables."""


class FixtureParseError(UsageError, ValueError):
    pass


class Direction(TextEnum):
    CW = "cw"
    CCW = "ccw"


REPRESENTATIVE_SITES = ("K", "F", "A")  # one per class: branch, outer, inner

# The twenty (site, role) keys of a table in storage order: shoulders A..H
# over then under, then branch centers I..L through.
TABLE_KEYS = tuple((s, r) for s in SHOULDER_SITES for r in (Role.OVER, Role.UNDER)) + tuple(
    (s, Role.THROUGH) for s in BRANCH_SITES
)
_SLOT = {key: i for i, key in enumerate(TABLE_KEYS)}


class StartSpec(Record, namedtuple("StartSpec", "site direction entry_role")):
    """Where and how a traversal begins.

    Branch centers take no entry role (the single through visit is the
    start); shoulders need one of over/under to pick the occurrence.
    """

    __slots__ = ()

    def __new__(cls, site: str, direction: Direction, entry_role: Role | None = None) -> "StartSpec":
        site = site.upper() if site.isascii() else site  # no other text (dotless i, sharp s) folds onto a site
        if site not in LETTER_SITES:
            raise InvalidStartSpecError(f"start site must be one of A..L, got {clip(repr(site))}")
        if site in BRANCH_SITES:
            if entry_role is not None:
                raise InvalidStartSpecError(f"branch start {site} takes no entry role")
        else:
            if entry_role not in (Role.OVER, Role.UNDER):
                raise InvalidStartSpecError(f"shoulder start {site} needs an over or under entry role")
        return super().__new__(cls, site, direction, entry_role)

    @classmethod
    def parse(cls, text: str) -> "StartSpec":
        """The spec that ``SITE,DIR[,ROLE]`` text names, as :meth:`__str__` prints it."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) not in (2, 3) or not all(parts):
            raise InvalidStartSpecError(f"state must be SITE,DIR[,ROLE], got {clip(repr(text))}")
        try:
            direction = Direction(parts[1])
        except ValueError:
            raise InvalidStartSpecError(f"direction must be cw or ccw, got {clip(repr(parts[1]))}") from None
        try:
            role = Role(parts[2]) if len(parts) == 3 else None
        except ValueError:
            raise InvalidStartSpecError(f"entry role must be over or under, got {clip(repr(parts[2]))}") from None
        return cls(parts[0], direction, role)

    def __str__(self) -> str:
        if self.entry_role is None:
            return f"{self.site},{self.direction.value}"
        return f"{self.site},{self.direction.value},{self.entry_role.value}"


class TraversalTable(Record, namedtuple("TraversalTable", "start values mirrored", defaults=(False,))):
    """Values 1..20 assigned to the twenty visits, in :data:`TABLE_KEYS` order, from a :class:`StartSpec`."""

    __slots__ = ()

    @property
    def entries(self) -> tuple[tuple[str, Role, int], ...]:
        """``(site, role, value)`` triples in :data:`TABLE_KEYS` order."""
        return tuple((site, role, value) for (site, role), value in zip(TABLE_KEYS, self.values))

    def describe(self) -> str:
        return f"mirror({self.start})" if self.mirrored else str(self.start)


def _slots(word: DiagramWord) -> tuple[int, ...] | None:
    """The :data:`TABLE_KEYS` slot of each visit, in word order, or ``None``
    unless :func:`~knot818.diagram.validate_word` accepts the word."""
    return None if validate_word(word) else tuple(_SLOT[v] for v in word)


# Builds a record that has no __new__ of its own from its fields, without a Python-level call.
_new = tuple.__new__
# Members _traverse compares against: a module global reads faster than an Enum class attribute.
_CW = Direction.CW
_THROUGH = Role.THROUGH


def _traverse(slots: tuple[int, ...] | None, start: StartSpec) -> TraversalTable:
    if slots is None:
        raise TableUndefinedError(f"table undefined: not a {len(TABLE_KEYS)}-visit word of the 12-site model")
    # A model word holds each key once, and StartSpec fits the role to the site.
    at = slots.index(_SLOT[start.site, start.entry_role or _THROUGH])
    # Clockwise is pinned to the stored visit order of canonical_818(): the
    # (K, cw) table reproduces fixture case a.
    walk = slots[at:] + slots[:at] if start.direction is _CW else slots[at::-1] + slots[:at:-1]
    values = [0] * len(walk)
    for value, slot in enumerate(walk, 1):
        values[slot] = value
    return _new(TraversalTable, (start, tuple(values), False))


def traverse(word: DiagramWord, start: StartSpec) -> TraversalTable:
    """Assign 1..20 walking from the start occurrence.

    CW walks the stored order forward, CCW backward.  The start visit
    always receives value 1.  Tables exist only for 20-visit words of the
    12-site model: any other word raises :class:`TableUndefinedError`.
    """
    return _traverse(_slots(word), start)


# Slot i of a mirrored table reads the slot of key i with over and under
# swapped: the swap is an involution, so that slot's key moves to key i.
_MIRROR_ORDER = itemgetter(*(_SLOT[site, role.swapped] for site, role in TABLE_KEYS))


def mirror_table(table: TraversalTable) -> TraversalTable:
    """The same traversal on the mirror diagram: over and under values swap."""
    start, values, mirrored = table
    return _new(TraversalTable, (start, _MIRROR_ORDER(values), not mirrored))


def _spec_index(tables: Sequence[TraversalTable]) -> dict[tuple, int]:
    """Each table's index by ``((site, direction, entry_role), mirrored)``; no key may repeat."""
    index = {(t.start, t.mirrored): i for i, t in enumerate(tables)}
    if len(index) != len(tables):
        raise DuplicateStartError("duplicate start specs in ensemble")
    return index


class StateEnsemble(Record, namedtuple("StateEnsemble", "label tables")):
    """A labeled, nonempty collection of tables with pairwise distinct start specs."""

    __slots__ = ()

    def __new__(cls, label: str, tables: tuple[TraversalTable, ...]) -> "StateEnsemble":
        if not tables:
            raise EmptyEnsembleError(f"ensemble {label!r} has no tables")
        _spec_index(tables)
        return super().__new__(cls, label, tables)


@cache
def _model_starts() -> tuple[tuple[int, ...], dict[str, tuple[StartSpec, ...]]]:
    """Constants of the model, derived once, on first use, so that a command
    that walks no ensemble does not pay for them: the slots of canonical_818(),
    and each site's start specs by direction (cw first), then entry role (over
    first, none at a branch center)."""
    starts = {
        site: tuple(
            StartSpec(site, direction, role)
            for direction in (Direction.CW, Direction.CCW)
            for role in ((None,) if site in BRANCH_SITES else (Role.OVER, Role.UNDER))
        )
        for site in LETTER_SITES
    }
    return _slots(canonical_818()), starts


def _ensemble(label: str, sites: Sequence[str]) -> StateEnsemble:
    """Tables by site, then direction, then entry role, as :func:`_model_starts` orders them."""
    slots, starts = _model_starts()
    return StateEnsemble(label, tuple(_traverse(slots, start) for site in sites for start in starts[site]))


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

    Orbits come by lowest index; each starts there and follows the quarter
    turn, stepping to the relabeled start spec without comparing values:
    on ``canonical_818()`` relabeling a table gives the table of the
    relabeled start (``CONVENTIONS.md``, "Quarter-turn relabeling").
    """
    index = _spec_index(tables)
    seen: set[int] = set()
    orbits: list[tuple[int, ...]] = []
    for first in range(len(tables)):
        orbit, at = [], first
        while at not in seen:
            seen.add(at)
            orbit.append(at)
            (site, direction, role), _, mirrored = tables[at]
            at = index.get(((ROTATION_RELABEL[site], direction, role), mirrored))
            if at is None:
                rotated = StartSpec(ROTATION_RELABEL[site], direction, role)
                raise UnclosedEnsembleError(f"ensemble not closed under rotation at {rotated}")
        if orbit:
            orbits.append(tuple(orbit))
    return tuple(orbits)


# ---------------------------------------------------------------------------
# Fixture handling


# The TABLE_KEYS slot of each (site, role) pair as a fixture row spells it.
_SLOT_BY_TEXT = {(site, role.value): i for (site, role), i in _SLOT.items()}


def _row_slot(lineno: int, site: str, role_name: str) -> int:
    """The :data:`TABLE_KEYS` slot a fixture row names, or why it names none."""
    slot = _SLOT_BY_TEXT.get((site, role_name))
    if slot is not None:
        return slot
    if site not in LETTER_SITES:
        raise FixtureParseError(f"line {lineno}: unknown site {clip(repr(site))}")
    try:
        Role(role_name)
    except ValueError:
        raise FixtureParseError(f"line {lineno}: unknown role {clip(repr(role_name))}") from None
    raise FixtureParseError(f"line {lineno}: role {role_name!r} does not fit site {site!r}")


def _parse_int(lineno: int, text: str, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        why = too_many_digits(text) or f"{clip(repr(text))} is not an integer"
        raise FixtureParseError(f"line {lineno}: {column} {why}") from None


# The most bytes a fixture or errata file may hold (CONVENTIONS.md, "File formats").
MAX_FIXTURE_BYTES = 1 << 20
_READ_CHUNK = 1 << 16  # one read of the whole limit would allocate 1 MiB for every file, however small


def _read_rows(path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, row)`` for each line after ``header``, checked to have its width and a case id.

    A file, pipe or device alike is read in chunks, at most one chunk past
    :data:`MAX_FIXTURE_BYTES`, and rejected if it holds more.  A row is its
    line split at every comma, as the CLI writes CSV: no cell is quoted.
    """
    with open(path, "rb") as fh:
        data = b"".join(islice(iter(partial(fh.read, _READ_CHUNK), b""), MAX_FIXTURE_BYTES // _READ_CHUNK + 1))
    if len(data) > MAX_FIXTURE_BYTES:
        raise FixtureParseError(f"{clip_path(str(path))}: larger than {MAX_FIXTURE_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise FixtureParseError(f"{clip_path(str(path))}: not UTF-8 text") from None
    lines = (line.rstrip("\r\n") for line in io.StringIO(text, newline=""))  # at \n, \r\n or \r
    if next(lines, "") != ",".join(header):
        raise FixtureParseError(f"line 1: expected header {','.join(header)}")
    for lineno, line in enumerate(lines, start=2):
        row = line.split(",") if line else []  # a blank line has no fields
        if len(row) != len(header):
            raise FixtureParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        if not row[0]:
            raise FixtureParseError(f"line {lineno}: empty case id")
        yield lineno, row


def load_table_fixture(path) -> dict[str, tuple[int, ...]]:
    """Each case's values in :data:`TABLE_KEYS` order, from CSV with header ``case,site,role,value``."""
    cases: dict[str, list[int | None]] = {}  # values by TABLE_KEYS slot
    for lineno, (case_id, site, role_name, value_text) in _read_rows(path, ["case", "site", "role", "value"]):
        slot = _row_slot(lineno, site, role_name)
        value = _parse_int(lineno, value_text, "value")
        entries = cases.get(case_id)
        if entries is None:
            entries = cases[case_id] = [None] * len(TABLE_KEYS)
        if entries[slot] is not None:
            raise FixtureParseError(f"line {lineno}: duplicate entry {site} {role_name} in case {clip(case_id)}")
        entries[slot] = value
    if not cases:
        raise FixtureParseError("line 1: no cases")
    for case_id, entries in cases.items():  # any case means lineno is the last row's
        missing = entries.count(None)
        if missing:
            raise FixtureParseError(
                f"line {lineno}: case {clip(case_id)} incomplete"
                f" ({len(TABLE_KEYS) - missing} of {len(TABLE_KEYS)} entries)"
            )
    return {case_id: tuple(entries) for case_id, entries in cases.items()}


def load_errata(path) -> dict[str, dict[int, tuple[int, int]]]:
    """Per case, ``(value, corrected_value)`` by slot, from ``case,site,role,value,corrected_value`` rows."""
    out: dict[str, dict[int, tuple[int, int]]] = {}
    rows = _read_rows(path, ["case", "site", "role", "value", "corrected_value"])
    for lineno, (case_id, site, role_name, value_text, corrected_text) in rows:
        slot = _row_slot(lineno, site, role_name)
        original = _parse_int(lineno, value_text, "value")
        corrected = _parse_int(lineno, corrected_text, "corrected_value")
        case_rows = out.setdefault(case_id, {})
        if slot in case_rows:
            raise FixtureParseError(f"line {lineno}: duplicate erratum {site} {role_name} in case {clip(case_id)}")
        case_rows[slot] = (original, corrected)
    return out


def shipped_fixture_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "reference_cases.csv")


def shipped_errata_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "reference_cases_errata.csv")


def apply_errata(case_id: str, values: tuple[int, ...], rows: Mapping[int, tuple[int, int]]) -> tuple[int, ...]:
    """The case's values with each ``slot: (value, corrected_value)`` row applied.

    Every row must agree with the value it corrects.
    """
    fixed = list(values)
    for slot, (original, corrected) in rows.items():
        if values[slot] != original:
            site, role = TABLE_KEYS[slot]
            raise FixtureParseError(
                f"erratum for case {clip(case_id)} expects {site} {role} = {original}, fixture has {values[slot]}"
            )
        fixed[slot] = corrected
    return tuple(fixed)


_ONE_TO_TWENTY = list(range(1, 21))


def case_multiset_violations(values: tuple[int, ...]) -> list[str]:
    """Diagnostics for a case whose values are not exactly {1..20}.

    In value order, each value out of range or held by more than one
    place, naming its places in :data:`TABLE_KEYS` order; then each
    missing value.  Only those places are spelled out.
    """
    if sorted(values) == _ONE_TO_TWENTY:
        return []
    slots_by_value: dict[int, list[int]] = {}
    for slot, value in enumerate(values):
        slots_by_value.setdefault(value, []).append(slot)
    diags = []
    for value in sorted(slots_by_value):
        slots = slots_by_value[value]
        if not 1 <= value <= 20:
            what = "out of range"
        elif len(slots) > 1:
            what = "duplicated"
        else:
            continue
        places = ", ".join(f"{site} {role}" for site, role in map(TABLE_KEYS.__getitem__, slots))
        diags.append(f"value {value} {what} at {places}")
    for value in _ONE_TO_TWENTY:
        if value not in slots_by_value:
            diags.append(f"value {value} missing")
    return diags


class MatchStatus(TextEnum):
    MATCHED = "MATCHED"
    MATCHED_WITH_ERRATUM = "MATCHED_WITH_ERRATUM"
    UNMATCHED = "UNMATCHED"


class CaseResult(Record, namedtuple("CaseResult", "case_id status witness violations")):
    """A fixture case's :class:`MatchStatus`, the table it matched (or None) and its multiset violations."""

    __slots__ = ()

    @property
    def erratum_applied(self) -> bool:
        return self.status is MatchStatus.MATCHED_WITH_ERRATUM


class FixtureReport(Record, namedtuple("FixtureReport", "results")):
    """A :class:`CaseResult` per fixture case."""

    __slots__ = ()


def check_fixture(
    ensemble: StateEnsemble,
    fixture: Mapping[str, tuple[int, ...]],
    errata: Mapping[str, Mapping[int, tuple[int, int]]] | None = None,
) -> FixtureReport:
    """Match every fixture case against the ensemble and its mirrors.

    Every errata row is checked first: it must name a fixture case and
    agree with the stored value it corrects.  A case that fails to match
    raw is then retried with its rows applied.  Multiset violations are
    reported for the raw case either way.
    """
    errata = errata or {}
    for case_id in errata:
        if case_id not in fixture:
            raise FixtureParseError(f"erratum for case {clip(case_id)}: the fixture has no such case")
    corrected = {
        case_id: apply_errata(case_id, values, errata[case_id])
        for case_id, values in fixture.items()
        if case_id in errata
    }
    by_values: dict[tuple[int, ...], TraversalTable] = {}
    for table in with_mirrors(ensemble):
        by_values.setdefault(table.values, table)
    results = []
    for case_id, values in fixture.items():
        status, witness = MatchStatus.MATCHED, by_values.get(values)
        if witness is None and case_id in corrected:
            status, witness = MatchStatus.MATCHED_WITH_ERRATUM, by_values.get(corrected[case_id])
        if witness is None:
            status = MatchStatus.UNMATCHED
        results.append(CaseResult(case_id, status, witness, tuple(case_multiset_violations(values))))
    return FixtureReport(tuple(results))
