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

import argparse
import os
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, UsageError, clip, clip_count, clip_path, too_many_digits

TYPE_CHECKING = False
if TYPE_CHECKING:  # each command imports these only when it runs
    from . import allocation as alloc
    from . import traversal as trav

# braid.BRAID_818, the default of --braid and --strands, written out so
# that a parser is built without importing braid; tests pin the two equal.
BRAID_818_TEXT = "1 -2 1 -2 1 -2 1 -2"
BRAID_818_STRANDS = 3


class SamePathError(UsageError, ValueError):
    """--out and --markers name one file, so the markers would overwrite the points."""


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter, which reads the terminal width only when it first formats text.

    argparse makes a formatter for every option it adds, and the base
    class reads the width, importing shutil, as it is made.
    """

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        super().__init__(prog, indent_increment, max_help_position, width=0)
        del self._width, self._max_help_position  # set by __getattr__ on first read
        self._sizes = (max_help_position, width)

    def __getattr__(self, name):
        if name not in ("_width", "_max_help_position"):
            raise AttributeError(name)
        sized = argparse.HelpFormatter(self._prog, self._indent_increment, *self._sizes)  # the base class's rule
        self._width, self._max_help_position = sized._width, sized._max_help_position
        return getattr(self, name)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with the outside text its invalid-choice and unrecognized-arguments errors echo clipped.

    Its invalid-choice wording is the same on every CPython release.
    """

    def __init__(self, prog: str, **kwargs):
        super().__init__(prog, formatter_class=_Formatter, **kwargs)

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


def clipped_int(text: str) -> int:
    """argparse type ``int``, with the text its error echoes clipped."""
    try:
        return int(text)
    except ValueError:
        why = too_many_digits(text)
        raise argparse.ArgumentTypeError(f"int value {why}" if why else f"invalid int value: {clip(repr(text))}") from None


def positive_int(text: str) -> int:
    """argparse type for options that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        why = too_many_digits(text)
        raise argparse.ArgumentTypeError(
            f"integer {why}" if why else f"expected a positive integer, got {clip(repr(text))}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {clip_count(value)}")
    return value


def file_path(text: str) -> str:
    """argparse type for a file path, which the OS cannot take with a NUL byte in it."""
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"path has a NUL byte: {clip(repr(text))}")
    return text


def radii_list(text: str) -> tuple[float, ...]:
    """argparse type for a comma separated list of radii."""
    try:
        return tuple(float(r) for r in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad radii list {clip(repr(text))}") from None


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

    fixture = trav.load_table_fixture(args.fixture or trav.shipped_fixture_path())
    errata = None
    if args.errata is not None:  # the bare flag gives ""
        errata = trav.load_errata(args.errata or trav.shipped_errata_path())
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


def _add_braid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--braid", default=BRAID_818_TEXT, help="braid word, signed generator indices")
    parser.add_argument("--strands", type=clipped_int, default=BRAID_818_STRANDS, help="number of strands")


def _build_args(p: argparse.ArgumentParser) -> None:
    _add_braid_args(p)
    p.add_argument("--vertices", choices=("auto", "off"), default="auto", help="auto: where the vertex rule applies")
    p.set_defaults(func=cmd_build)


def _invariants_args(p: argparse.ArgumentParser) -> None:
    _add_braid_args(p)
    p.set_defaults(func=cmd_invariants)


def _traverse_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start", required=True, help="site letter A..L")
    p.add_argument("--dir", choices=("cw", "ccw"), default="cw")
    p.add_argument("--role", choices=("over", "under"), default=None, help="entry role at shoulders")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_traverse)


def _analyze_args(p: argparse.ArgumentParser) -> None:
    # argparse from 3.13 on wraps a usage line inside a mutually exclusive
    # group; this pins the wording of 3.10-3.12 at 80 columns.
    p.usage = (
        "%(prog)s [-h]\n"
        "                       [--ensemble {reps10,all40,with-mirrors} | --state STATE]\n"
        "                       [--format {text,csv,json}]"
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ensemble", choices=("reps10", "all40", "with-mirrors"), default="reps10")
    group.add_argument("--state", default=None, help="single start spec, e.g. K,cw or A,ccw,under")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_analyze)


def _check_fixture_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("fixture", nargs="?", type=file_path, default=None, help="fixture CSV (default: shipped)")
    p.add_argument(
        "--errata",
        nargs="?",
        type=file_path,
        const="",
        default=None,
        help="errata CSV; bare flag uses the shipped errata",
    )
    p.set_defaults(func=cmd_check_fixture)


def _embed_args(p: argparse.ArgumentParser) -> None:
    _add_braid_args(p)
    p.add_argument("--out", type=file_path, required=True, help="output CSV path")
    p.add_argument("--markers", type=file_path, default=None, help="crossing marker CSV path (written after --out)")
    p.add_argument("--radii", type=radii_list, help="comma separated radii (default 1..strands)")
    p.add_argument("--points-per-slot", type=positive_int, default=64)
    p.set_defaults(func=cmd_embed)


class _Parsers(Mapping):
    """Subcommand name -> parser, each built when it is first read; ``fills[name]`` adds its options."""

    def __init__(self, prog: str):
        self.prog = prog
        self.fills = {}
        self._built = {}

    def __getitem__(self, name: str) -> argparse.ArgumentParser:
        if name not in self._built:
            fill = self.fills[name]
            self._built[name] = parser = _Parser(prog=f"{self.prog} {name}")
            fill(parser)
        return self._built[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.fills)

    def __len__(self) -> int:
        return len(self.fills)


class _Subcommands(argparse._SubParsersAction):
    """argparse's subcommand action over :class:`_Parsers`.

    ``knot818 -h``, the usage line and the invalid-choice error read only
    the names and help lines, so a run builds the parser of its own
    command alone.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.choices = self._name_parser_map = _Parsers(self._prog_prefix)

    def add_command(self, name: str, help: str, fill) -> None:
        """List ``name`` with its ``help`` line; ``fill`` adds its options once its parser is built."""
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self.choices.fills[name] = fill


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="knot818", description=__doc__.splitlines()[0])
    # Without a prog, argparse formats a usage line to make one.
    sub = parser.add_subparsers(dest="command", required=True, prog="knot818", action=_Subcommands)
    sub.add_command("build", "walk a braid closure into a diagram word", _build_args)
    sub.add_command("invariants", "alexander polynomial, writhe, winding phase", _invariants_args)
    sub.add_command("traverse", "one traversal table of the main diagram", _traverse_args)
    sub.add_command("analyze", "allocation totals and defect report", _analyze_args)
    sub.add_command("check-fixture", "match the reference tables against the ensemble", _check_fixture_args)
    sub.add_command("embed", "write sampled closure coordinates to CSV", _embed_args)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
