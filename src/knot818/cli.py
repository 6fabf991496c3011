"""Command line front end.

Subcommands: build (walk a braid closure into a word), invariants,
traverse (one table), analyze (allocation defects), check-fixture
(match the shipped reference tables), embed (write sampled coordinates).

Exit codes: 0 success, 1 mismatch or internal error, 2 usage or parse
error (a :class:`~knot818.errors.UsageError` or an unreadable or
unwritable file), 3 domain precondition violated (a
:class:`~knot818.errors.DomainError`).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Iterator, Sequence

from .errors import DomainError, UsageError, clip, clip_count, clip_path, too_many_digits

TYPE_CHECKING = False
if TYPE_CHECKING:  # each command imports these only when it runs, and build_parser argparse
    import argparse

    from . import allocation as alloc
    from . import traversal as trav

# braid.BRAID_818, the default of --braid and --strands, written out so
# that the option table needs no import of braid; tests pin the two equal.
BRAID_818_TEXT = "1 -2 1 -2 1 -2 1 -2"
BRAID_818_STRANDS = 3


class SamePathError(UsageError, ValueError):
    """--out and --markers name one file, so the markers would overwrite the points."""


class OptionValueError(UsageError, ValueError):
    """An option value its type function rejects; argparse prints the message as that option's error."""


def clipped_int(text: str) -> int:
    """Type function ``int``, with the text its error echoes clipped."""
    try:
        return int(text)
    except ValueError:
        why = too_many_digits(text)
        raise OptionValueError(f"int value {why}" if why else f"invalid int value: {clip(repr(text))}") from None


def positive_int(text: str) -> int:
    """Type function for options that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        why = too_many_digits(text)
        message = f"integer {why}" if why else f"expected a positive integer, got {clip(repr(text))}"
        raise OptionValueError(message) from None
    if value < 1:
        raise OptionValueError(f"must be at least 1, got {clip_count(value)}")
    return value


def file_path(text: str) -> str:
    """Type function for a file path, which the OS cannot take empty or with a NUL byte in it."""
    if not text:
        raise OptionValueError("path is empty")
    if "\0" in text:
        raise OptionValueError(f"path has a NUL byte: {clip(repr(text))}")
    return text


def radii_list(text: str) -> tuple[float, ...]:
    """Type function for a comma separated list of radii."""
    try:
        return tuple(float(r) for r in text.split(","))
    except ValueError:
        raise OptionValueError(f"bad radii list {clip(repr(text))}") from None


def argparse_type(kind):
    """The type function ``kind`` for argparse, which prints its OptionValueError's message as it is."""
    import argparse

    def convert(text: str):
        try:
            return kind(text)
        except OptionValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _json_lines(payload: dict) -> list[str]:
    import json

    return [json.dumps(payload, sort_keys=True)]


def _csv_lines(header: str, rows: Iterable[Iterable]) -> Iterator[str]:
    """The header line, then one comma-joined line per row, made as each row comes."""
    yield header
    for row in rows:
        yield ",".join(map(str, row))


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _table_lines(table: trav.TraversalTable, fmt: str) -> Iterable[str]:
    if fmt == "csv":
        return _csv_lines("site,role,value", table.entries)
    if fmt == "json":
        return _json_lines({
            "start": str(table.start),
            "mirrored": table.mirrored,
            "entries": [
                {"site": site, "role": str(role), "value": value}
                for site, role, value in table.entries
            ],
        })
    return [
        f"# start {table.describe()}",
        *(f"{site} {str(role):<7} {value:>2}" for site, role, value in table.entries),
    ]


def _report_lines(report: alloc.DefectReport, grand_total: int, fmt: str) -> Iterable[str]:
    if fmt == "csv":
        rows = ((cls.site_class, site, total) for cls in report.classes for site, total in cls.entries)
        return _csv_lines("class,site,total", rows)
    if fmt == "json":
        return _json_lines({
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
        })
    lines = [f"# allocation {report.source}"]
    for cls in report.classes:
        cells = " ".join(f"{site}={total}" for site, total in cls.entries)
        flag = "yes" if cls.mismatch else "no"
        lines.append(f"{cls.site_class}: {cells} | mean={cls.mean} max-dev={cls.max_deviation} mismatch={flag}")
    return [*lines, f"total: {grand_total}"]


def cmd_build(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from .braid import closure_diagram
    from .diagram import Role
    from .notation import emit_extended_gauss, parse_braid_word

    braid = parse_braid_word(args.braid, args.strands)
    word, crossings = closure_diagram(braid, insert_vertices=args.vertices == "auto")
    return 0, [
        f"crossings: {len(crossings)}",
        f"writhe: {braid.exponent_sum}",
        f"vertices: {sum(1 for v in word if v.role is Role.THROUGH)}",
        f"gauss: {emit_extended_gauss(word)}",
    ]


def cmd_invariants(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from .invariants import alexander_from_braid
    from .notation import parse_braid_word

    braid = parse_braid_word(args.braid, args.strands)
    poly = alexander_from_braid(braid)
    # The closure winds once around the axis per strand.
    return 0, [
        f"alexander: {poly}",
        f"writhe: {braid.exponent_sum}",
        f"phase: {2 * braid.strands}π",
        f"determinant: {abs(poly.at_unit(-1))}",
    ]


def cmd_traverse(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import traversal as trav
    from .diagram import Role

    role = Role(args.role) if args.role else None
    spec = trav.StartSpec(args.start, trav.Direction(args.dir), role)
    return 0, _table_lines(trav.traverse(trav.canonical_818(), spec), args.format)


def cmd_analyze(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import allocation as alloc
    from . import traversal as trav

    if args.state:
        spec = trav.StartSpec.parse(args.state)
        table = trav.traverse(trav.canonical_818(), spec)
        allocation = alloc.site_totals(table)
    else:
        ensemble = trav.enumerate_all() if args.ensemble == "all40" else trav.enumerate_representatives()
        if args.ensemble == "with-mirrors":
            ensemble = trav.StateEnsemble("with-mirrors", tuple(trav.with_mirrors(ensemble)))
        allocation = alloc.ensemble_totals(ensemble)
    return 0, _report_lines(alloc.defect_report(allocation), allocation.grand_total, args.format)


def cmd_check_fixture(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import traversal as trav

    fixture = trav.load_table_fixture(trav.shipped_fixture_path() if args.fixture is None else args.fixture)
    errata = None
    if args.errata is not None:  # the bare flag gives True
        errata = trav.load_errata(trav.shipped_errata_path() if args.errata is True else args.errata)
    report = trav.check_fixture(trav.enumerate_representatives(), fixture, errata)
    lines = []
    for result in report.results:
        witness = f" ({result.witness.describe()})" if result.witness is not None else ""
        lines.append(f"case {result.case_id}: {result.status}{witness}")
        lines.extend(f"  inconsistency: {violation}" for violation in result.violations)
    matched = sum(1 for r in report.results if r.status is not trav.MatchStatus.UNMATCHED)
    total = len(report.results)
    if matched == total:
        return 0, [*lines, f"all {total} cases matched"]
    return 1, [*lines, f"{matched} of {total} cases matched"]


def cmd_embed(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from .braid import annular_embed, winding_number
    from .notation import parse_braid_word

    if args.markers is not None and os.path.realpath(args.markers) == os.path.realpath(args.out):
        raise SamePathError(f"--out and --markers name one file: {clip_path(args.markers)}")
    braid = parse_braid_word(args.braid, args.strands)
    embedding = annular_embed(braid, args.radii, slots_per_letter=args.points_per_slot)
    turns = winding_number(embedding)  # before writing, so a failed run leaves no file
    rows = ((i, z.real, z.imag) for i, loop in enumerate(embedding.loops) for z in loop)
    _write_lines(args.out, _csv_lines("loop,x,y", rows))
    points = sum(len(loop) for loop in embedding.loops)
    lines = [f"wrote {points} points in {len(embedding.loops)} loop(s) to {args.out}"]
    if args.markers is not None:
        rows = (
            (m.crossing, m.sign, m.point.real, m.point.imag, m.over_direction.real, m.over_direction.imag,
             m.under_direction.real, m.under_direction.imag)
            for m in embedding.markers
        )
        _write_lines(args.markers, _csv_lines("crossing,sign,x,y,over_dx,over_dy,under_dx,under_dy", rows))
        lines.append(f"wrote {len(embedding.markers)} markers to {args.markers}")
    lines.append(f"phase: {2 * turns}π")
    return 0, lines


# Each subcommand's function, help line and options, as add_argument
# keywords: the type function (str when none is named), default, choices,
# required, nargs and help.  build_parser builds argparse from this
# table, and _plain reads a plain command line by it.
_BRAID = {
    "--braid": dict(default=BRAID_818_TEXT, help="braid word, signed generator indices"),
    "--strands": dict(type=clipped_int, default=BRAID_818_STRANDS, help="number of strands"),
}
_FORMAT = {"--format": dict(choices=("text", "csv", "json"), default="text")}
OPTIONS = {
    "build": (cmd_build, "walk a braid closure into a diagram word", {
        **_BRAID,
        "--vertices": dict(choices=("auto", "off"), default="auto", help="auto: where the vertex rule applies"),
    }),
    "invariants": (cmd_invariants, "alexander polynomial, writhe, winding phase", _BRAID),
    "traverse": (cmd_traverse, "one traversal table of the main diagram", {
        "--start": dict(required=True, help="site letter A..L"),
        "--dir": dict(choices=("cw", "ccw"), default="cw"),
        "--role": dict(choices=("over", "under"), default=None, help="entry role at shoulders"),
        **_FORMAT,
    }),
    "analyze": (cmd_analyze, "allocation totals and defect report", {
        "--ensemble": dict(choices=("reps10", "all40", "with-mirrors"), default="reps10"),
        "--state": dict(default=None, help="single start spec, e.g. K,cw or A,ccw,under"),
        **_FORMAT,
    }),
    "check-fixture": (cmd_check_fixture, "match the reference tables against the ensemble", {
        "fixture": dict(nargs="?", type=file_path, default=None, help="fixture CSV (default: shipped)"),
        # The bare flag gives True: argparse would pass a string const to file_path, which refuses "".
        "--errata": dict(
            nargs="?", type=file_path, const=True, default=None, help="errata CSV; bare flag uses the shipped errata"
        ),
    }),
    "embed": (cmd_embed, "write sampled closure coordinates to CSV", {
        **_BRAID,
        "--out": dict(type=file_path, required=True, help="output CSV path"),
        "--markers": dict(type=file_path, default=None, help="crossing marker CSV path (written after --out)"),
        "--radii": dict(type=radii_list, help="comma separated radii (default 1..strands)"),
        "--points-per-slot": dict(type=positive_int, default=64),
    }),
}
EXCLUSIVE = ("--ensemble", "--state")  # analyze takes at most one of them


def _plain(argv: Sequence[str]):
    """The namespace argparse returns for a plain command line, or None to leave ``argv`` to argparse.

    Plain is a command, then exact names from its table as ``--name
    value`` (a value that does not start with ``-``) or ``--name=value``,
    check-fixture's bare ``--errata`` and one fixture path; each value
    passes its type function and choices, every required option is
    given, and not both of EXCLUSIVE.  A repeated option keeps its last
    value, as in argparse.
    """
    if not argv or argv[0] not in OPTIONS:
        return None
    command, *tokens = argv
    func, _summary, options = OPTIONS[command]
    given = {}
    while tokens:
        token = tokens.pop(0)
        name, eq, value = token.partition("=")
        if not token.startswith("-"):  # the fixture path, once
            name, value = "fixture", token
            if name not in options or name in given:
                return None
        elif name not in options:  # -h, --, an abbreviation, an unknown name
            return None
        elif not eq:
            if tokens and not tokens[0].startswith("-"):
                value = tokens.pop(0)
            elif options[name].get("nargs") == "?":  # its const, unconverted as argparse passes a non-string one
                given[name] = options[name]["const"]
                continue
            else:
                return None
        try:
            value = options[name].get("type", str)(value)
        except OptionValueError:
            return None
        if value not in options[name].get("choices", (value,)):
            return None
        given[name] = value
    if all(name in given for name in EXCLUSIVE) or any(
        spec.get("required") and name not in given for name, spec in options.items()
    ):
        return None
    from types import SimpleNamespace

    values = {name.lstrip("-").replace("-", "_"): given.get(name, spec.get("default")) for name, spec in options.items()}
    return SimpleNamespace(command=command, func=func, **values)


def build_parser() -> argparse.ArgumentParser:
    """argparse's parser for :data:`OPTIONS`, which prints help, a usage line or an error."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse's parser, with the outside text its invalid-choice and unrecognized-arguments errors echo clipped.

        Its invalid-choice wording is the same on every CPython release.
        """

        def parse_args(self, args=None, namespace=None):
            args, extras = self.parse_known_args(args, namespace)
            if extras:
                self.error(f"unrecognized arguments: {clip(' '.join(extras))}")
            return args

        def _check_value(self, action, value):
            # The wording of CPython 3.10-3.12, which later releases change
            # (3.13.13 prints the choices through str(), without quotes).
            if action.choices is not None and value not in action.choices:
                choices = ", ".join(map(repr, action.choices))
                raise argparse.ArgumentError(action, f"invalid choice: {clip(repr(value))} (choose from {choices})")

    parser = Parser(prog="knot818", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, options) in OPTIONS.items():
        p = group = sub.add_parser(command, help=summary)
        if command == "analyze":
            # argparse from 3.13 on wraps a usage line inside a mutually exclusive
            # group; this pins the wording of 3.10-3.12 at 80 columns.
            p.usage = (
                "%(prog)s [-h]\n"
                "                       [--ensemble {reps10,all40,with-mirrors} | --state STATE]\n"
                "                       [--format {text,csv,json}]"
            )
            group = p.add_mutually_exclusive_group()
        for name, spec in options.items():
            kind = argparse_type(spec.get("type", str))
            (group if name in EXCLUSIVE else p).add_argument(name, **{**spec, "type": kind})
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain(argv)
    if args is None:  # argparse reads it, and prints help, a usage line or an error
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
    try:
        code, lines = args.func(args)
        # One write, after the command has finished, so a failed run prints nothing.
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # worded as str(exc), with the path it names clipped
        text = exc if exc.filename is None else f"[Errno {exc.errno}] {exc.strerror}: {clip_path(repr(exc.filename))}"
        print(f"error: {text}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal error contract; a message-less one (MemoryError()) is named by class
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
