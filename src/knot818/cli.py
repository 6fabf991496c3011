"""Command line front end.

Subcommands: build (walk a braid closure into a word), invariants,
traverse (one table), analyze (allocation defects), check-fixture
(match the shipped reference tables), embed (write sampled coordinates).

Exit codes: 0 success, 1 mismatch or internal error, 2 usage or parse
error (a :class:`~knot818.errors.UsageError` or an unreadable or
unwritable file), 3 domain precondition violated (a
:class:`~knot818.errors.DomainError`).  Output format for tabular
subcommands comes from --format, falling back to the KNOT818_FORMAT
environment variable, then to plain text.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .braid import BRAID_818, AnnularEmbedding, annular_embed, closure_diagram, winding_number, writhe
from .diagram import Role
from .errors import DomainError, UsageError
from .notation import emit_extended_gauss, parse_braid_word

if TYPE_CHECKING:  # each command imports these only when it runs
    from . import allocation as alloc
    from . import traversal as trav


class FormatError(UsageError, ValueError):
    """Output format is not one of text, csv, json."""


def _resolve_format(value: Optional[str]) -> str:
    if value is None:
        value = os.environ.get("KNOT818_FORMAT", "text")
    if value not in ("text", "csv", "json"):
        raise FormatError(f"unknown format {value!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type for options that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def radii_list(text: str) -> tuple[float, ...]:
    """argparse type for a comma separated list of radii."""
    try:
        return tuple(float(r) for r in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad radii list {text!r}") from None


def _parse_state(text: str) -> trav.StartSpec:
    from . import traversal as trav

    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (2, 3) or not all(parts):
        raise trav.InvalidStartSpecError(f"state must be SITE,DIR[,ROLE], got {text!r}")
    site = parts[0].upper()
    try:
        direction = trav.Direction(parts[1].lower())
    except ValueError:
        raise trav.InvalidStartSpecError(f"direction must be cw or ccw, got {parts[1]!r}") from None
    role = None
    if len(parts) == 3:
        name = parts[2].lower()
        if name not in ("over", "under"):
            raise trav.InvalidStartSpecError(f"entry role must be over or under, got {parts[2]!r}")
        role = Role(name)
    return trav.StartSpec(site, direction, role)


def _braid_from_args(args: argparse.Namespace):
    return parse_braid_word(args.braid, args.strands, allow_empty=args.allow_empty)


def _format_phase(turns: int, radians: bool) -> str:
    """The phase 2*pi*turns as a multiple of pi, or as a float under --radians."""
    if radians:
        return repr(2.0 * math.pi * turns)
    return f"{2 * turns}π" if turns else "0"


def _write_json(payload: dict) -> None:
    import json

    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _print_table(table: trav.TraversalTable, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write("site,role,value\n")
        for site, role, value in table.entries:
            sys.stdout.write(f"{site},{role},{value}\n")
    elif fmt == "json":
        payload = {
            "start": str(table.start),
            "mirrored": table.mirrored,
            "entries": [
                {"site": site, "role": str(role), "value": value}
                for site, role, value in table.entries
            ],
        }
        _write_json(payload)
    else:
        print(f"# start {table.describe()}")
        for site, role, value in table.entries:
            print(f"{site} {str(role):<7} {value:>2}")


def _print_report(report: alloc.DefectReport, grand_total: int, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write("class,site,total\n")
        for cls in report.classes:
            for site, total in cls.entries:
                sys.stdout.write(f"{cls.site_class},{site},{total}\n")
    elif fmt == "json":
        payload = {
            "source": report.source,
            "grand_total": grand_total,
            "classes": [
                {
                    "class": str(cls.site_class),
                    "totals": {site: total for site, total in cls.entries},
                    "mean": str(cls.mean),
                    "max_deviation": str(cls.max_deviation),
                    "mismatch": cls.mismatch,
                }
                for cls in report.classes
            ],
        }
        _write_json(payload)
    else:
        print(f"# allocation {report.source}")
        for cls in report.classes:
            cells = " ".join(f"{site}={total}" for site, total in cls.entries)
            flag = "yes" if cls.mismatch else "no"
            print(
                f"{cls.site_class}: {cells} | mean={cls.mean}"
                f" max-dev={cls.max_deviation} mismatch={flag}"
            )
        print(f"total: {grand_total}")


def cmd_build(args: argparse.Namespace) -> int:
    braid = _braid_from_args(args)
    insert = {"auto": None, "on": True, "off": False}[args.vertices]
    word, crossings = closure_diagram(braid, insert_vertices=insert)
    vertex_count = sum(1 for v in word if v.role is Role.THROUGH)
    print(f"crossings: {len(crossings)}")
    print(f"writhe: {writhe(crossings)}")
    print(f"vertices: {vertex_count}")
    print(f"gauss: {emit_extended_gauss(word)}")
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    from .invariants import alexander_from_braid

    braid = _braid_from_args(args)
    poly = alexander_from_braid(braid)
    # The winding count is exact, so the fewest samples annular_embed
    # accepts (three per turn) give the phase of any finer sampling.
    turns = winding_number(annular_embed(braid, slots_per_letter=-(-3 // len(braid.letters))))
    determinant = abs(poly.evaluate(-1))
    print(f"alexander: {poly}")
    print(f"writhe: {braid.exponent_sum}")
    print(f"phase: {_format_phase(turns, args.radians)}")
    print(f"determinant: {determinant}")
    return 0


def cmd_traverse(args: argparse.Namespace) -> int:
    from . import traversal as trav

    fmt = _resolve_format(args.format)
    role = Role(args.role) if args.role else None
    spec = trav.StartSpec(args.start.upper(), trav.Direction(args.dir), role)
    table = trav.traverse(trav.canonical_818(), spec)
    _print_table(table, fmt)
    return 0


def _ensemble_by_name(name: str) -> trav.StateEnsemble:
    from . import traversal as trav

    if name == "reps10":
        return trav.enumerate_representatives()
    if name == "all40":
        return trav.enumerate_all()
    reps = trav.enumerate_representatives()
    return trav.StateEnsemble("with-mirrors", tuple(trav.with_mirrors(reps)))


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import allocation as alloc
    from . import traversal as trav

    fmt = _resolve_format(args.format)
    if args.state:
        spec = _parse_state(args.state)
        table = trav.traverse(trav.canonical_818(), spec)
        allocation = alloc.site_totals(table)
    else:
        allocation = alloc.ensemble_totals(_ensemble_by_name(args.ensemble))
    report = alloc.defect_report(allocation)
    _print_report(report, allocation.grand_total, fmt)
    return 0


def cmd_check_fixture(args: argparse.Namespace) -> int:
    from . import traversal as trav

    fixture_path = args.fixture if args.fixture else trav.shipped_fixture_path()
    fixture = trav.load_table_fixture(fixture_path)
    errata = None
    if args.errata is not None:
        errata_path = args.errata if args.errata != "" else trav.shipped_errata_path()
        errata = trav.load_errata(errata_path)
    report = trav.check_fixture(trav.enumerate_representatives(), fixture, errata)
    for result in report.results:
        if result.witness is not None:
            print(f"case {result.case_id}: {result.status} ({result.witness.describe()})")
        else:
            print(f"case {result.case_id}: {result.status}")
        for violation in result.violations:
            print(f"  inconsistency: {violation}")
    matched = sum(1 for r in report.results if r.status is not trav.MatchStatus.UNMATCHED)
    total = len(report.results)
    if report.all_matched:
        print(f"all {total} cases matched")
        return 0
    print(f"{matched} of {total} cases matched")
    return 1


def write_points_csv(path: str, embedding: AnnularEmbedding) -> None:
    """Write ``loop,x,y`` rows (floats via repr) and report the count on stdout."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("loop,x,y\n")
        for loop_index, loop in enumerate(embedding.loops):
            for x, y in loop:
                fh.write(f"{loop_index},{x!r},{y!r}\n")
    points = sum(len(loop) for loop in embedding.loops)
    print(f"wrote {points} points in {len(embedding.loops)} loop(s) to {path}")


def cmd_embed(args: argparse.Namespace) -> int:
    embedding = annular_embed(_braid_from_args(args), args.radii, slots_per_letter=args.points_per_slot)
    turns = winding_number(embedding)  # before writing, so a failed run leaves no file
    write_points_csv(args.out, embedding)
    print(f"phase: {_format_phase(turns, args.radians)}")
    return 0


def _add_braid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--braid",
        default=" ".join(map(str, BRAID_818.letters)),
        help="braid word, signed generator indices",
    )
    parser.add_argument("--strands", type=int, default=3, help="number of strands")
    parser.add_argument("--allow-empty", action="store_true", help="accept the empty braid word")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="knot818", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="walk a braid closure into a diagram word")
    _add_braid_args(p)
    p.add_argument("--vertices", choices=("auto", "on", "off"), default="auto")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("invariants", help="alexander polynomial, writhe, winding phase")
    _add_braid_args(p)
    p.add_argument("--radians", action="store_true", help="print the phase as a raw float")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("traverse", help="one traversal table of the main diagram")
    p.add_argument("--start", required=True, help="site letter A..L")
    p.add_argument("--dir", choices=("cw", "ccw"), default="cw")
    p.add_argument("--role", choices=("over", "under"), default=None, help="entry role at shoulders")
    p.add_argument("--format", choices=("text", "csv", "json"), default=None)
    p.set_defaults(func=cmd_traverse)

    p = sub.add_parser("analyze", help="allocation totals and defect report")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ensemble", choices=("reps10", "all40", "with-mirrors"), default="reps10")
    group.add_argument("--state", default=None, help="single start spec, e.g. K,cw or A,ccw,under")
    p.add_argument("--format", choices=("text", "csv", "json"), default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check-fixture", help="match the reference tables against the ensemble")
    p.add_argument("fixture", nargs="?", default=None, help="fixture CSV (default: shipped)")
    p.add_argument(
        "--errata",
        nargs="?",
        const="",
        default=None,
        help="errata CSV; bare flag uses the shipped errata",
    )
    p.set_defaults(func=cmd_check_fixture)

    p = sub.add_parser("embed", help="write sampled closure coordinates to CSV")
    _add_braid_args(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--radii", type=radii_list, help="comma separated radii (default 1..strands)")
    p.add_argument("--points-per-slot", type=positive_int, default=64)
    p.add_argument("--radians", action="store_true")
    p.set_defaults(func=cmd_embed)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal error contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
