#!/usr/bin/env python3
"""Regenerate the eleven reference cases from the traversal engine alone.

Each case is produced by walking the stored diagram word from its
recorded start state (see CONVENTIONS.md for how the assignment was
fixed), mirroring where recorded.  With --check the output is compared
against the shipped fixture with its errata applied, so a clean run
confirms the shipped data is exactly what the engine computes.
"""

import argparse
import sys

from knot818.diagram import Role, canonical_818
from knot818.traversal import (
    Direction,
    StartSpec,
    apply_errata,
    load_errata,
    load_table_fixture,
    mirror_table,
    shipped_errata_path,
    shipped_fixture_path,
    traverse,
)

CW, CCW = Direction.CW, Direction.CCW

# case id -> (start spec, mirrored)
CASE_STATES = {
    "a": (StartSpec("K", CW), False),
    "b": (StartSpec("K", CCW), False),
    "c": (StartSpec("F", CW, Role.OVER), False),
    "d": (StartSpec("F", CCW, Role.OVER), False),
    "e": (StartSpec("F", CW, Role.UNDER), False),
    "f": (StartSpec("F", CCW, Role.UNDER), False),
    "g": (StartSpec("A", CW, Role.UNDER), True),
    "h": (StartSpec("A", CCW, Role.UNDER), False),
    "i": (StartSpec("A", CW, Role.OVER), False),
    "j": (StartSpec("A", CCW, Role.OVER), False),
    "k": (StartSpec("K", CW), True),
}


def regenerate():
    word = canonical_818()
    for case_id, (spec, mirrored) in CASE_STATES.items():
        table = traverse(word, spec)
        if mirrored:
            table = mirror_table(table)
        yield case_id, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write CSV here instead of stdout")
    parser.add_argument("--check", action="store_true", help="compare against the shipped fixture")
    args = parser.parse_args(argv)

    rows = ["case,site,role,value"]
    regenerated = dict(regenerate())
    for case_id, table in regenerated.items():
        for site, role, value in table.entries:
            rows.append(f"{case_id},{site},{role},{value}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows) - 1} rows to {args.out}")
    else:
        sys.stdout.write(text)

    if not args.check:
        return 0
    fixture = {c.case_id: c for c in load_table_fixture(shipped_fixture_path())}
    errata = load_errata(shipped_errata_path())
    failures = 0
    for case_id, table in regenerated.items():
        agree = table.values == apply_errata(fixture[case_id], errata.get(case_id, ())).values
        print(f"case {case_id}: {'agrees' if agree else 'DISAGREES'} ({table.describe()})", file=sys.stderr)
        failures += not agree
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
