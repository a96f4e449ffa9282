"""Command-line front end: single-instance invariant reports, closed-form
versus oracle verification, and parameter-grid sweeps.

All emitters are deterministic: stable ordering, no timestamps, run
metadata confined to a header object (JSON) or header line (text).
The three JSON documents (report, verify/sweep rows, error) go through
one writer, `to_json`: two-space indent, ASCII-only with `\\uXXXX`
escapes, and ints beyond 2**53 written as decimal strings.  Verify and
sweep rows, all of one shape, are laid out by a fixed row template built
from the `VerifyOutcome` fields; an int within 2**53 goes in as it is,
and every other value comes from `to_json`, once when both value slots
hold one object.
"""

from __future__ import annotations

import argparse
import sys
try:  # the C escaper that json.encoder re-exports, without the json package
    from _json import encode_basestring_ascii as _escape
except ImportError:
    from json.encoder import encode_basestring_ascii as _escape
from typing import Optional

from . import __version__
from .arith import validate
from .closed_form import InvariantReport, invariant_report
from .errors import CapacityError, InvalidParametersError, RouteDisagreementError
from .oracle import DEFAULT_SIEVE_CAP
from .verify import (
    CHECK_NAMES,
    STATUS_MATCH,
    STATUS_MISMATCH,
    STATUS_ORDER,
    STATUS_SKIPPED_CAPACITY,
    SweepSpec,
    VerifyOutcome,
    oracle_report,
    run_checks,
    summarize,
    sweep,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_IO = 4
EXIT_USAGE = 64

FORMATS = ("json", "csv", "text")
CSV_COLUMNS = ("a", "b", "n", "check", "closed", "oracle", "status")
JSON_SAFE_MAX = 2**53
# One row of the document's "rows" list as `to_json` lays it out, with a
# %s slot for each field's value, in `VerifyOutcome` field order
ROW_TEMPLATE = "{\n" + ",\n".join(f"      {_escape(k)}: %s" for k in VerifyOutcome._fields) + "\n    }"


class JsonUsageError(Exception):
    """A usage error under `--format json`, which `main` writes as a document."""


class Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64, or raise
    JsonUsageError when the arguments it parsed ask for `--format json`."""

    def parse_known_args(self, args=None, namespace=None):
        self.argv = sys.argv[1:] if args is None else list(args)  # a subcommand's own only
        return super().parse_known_args(args, namespace)

    def _print_message(self, message, file=None):
        # argparse drops write errors here; help and version on stdout are exit 4
        if file is sys.stdout:
            emit(message, None)
        else:
            super()._print_message(message, file)

    def error(self, message):
        fmt = None  # as the parse takes it: the last --format, maybe abbreviated or with "="
        for arg, following in zip(self.argv, [*self.argv[1:], None]):
            option, eq, value = arg.partition("=")
            if len(option) > 2 and "--format".startswith(option):
                fmt = value if eq else following
        if fmt == "json":
            raise JsonUsageError(message)
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def to_json(value, indent: str = "") -> str:
    """JSON text of `value`, byte for byte what the standard `json` module
    writes with a two-space indent, except that ints beyond 2**53 become
    decimal strings so consumers that parse numbers as doubles keep full
    precision.

    Strings go through the C escaper, so non-ASCII text is \\u-escaped.
    Dispatch is on the exact type: str-keyed dicts, lists, tuples, str,
    int, bool and None; anything else raises TypeError.
    """
    t = type(value)
    if t is int:
        return f'"{value}"' if abs(value) > JSON_SAFE_MAX else str(value)
    if t is str:
        return _escape(value)
    # in containers an int within 2**53 is written in place, without a call
    if t is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [
            _escape(k) + ": "
            + (str(v) if type(v) is int and abs(v) <= JSON_SAFE_MAX else to_json(v, inner))
            for k, v in value.items()
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if t is list or t is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [
            str(v) if type(v) is int and abs(v) <= JSON_SAFE_MAX else to_json(v, inner)
            for v in value
        ]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"{t.__name__} is not JSON serializable")


def csv_cell(value) -> str:
    """Flatten one value into a CSV field: decimal strings for integers,
    ';'-joined parts for lists and k=v dicts, empty for missing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(csv_cell(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={csv_cell(v)}" for k, v in value.items())
    return str(value)


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive `lo..hi` range; a bare integer means a single value."""
    s = text.strip()
    lo_s, dots, hi_s = s.partition("..")
    if not dots:
        hi_s = lo_s
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed range {text!r}, expected lo..hi")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def parse_checks(text: str) -> tuple[str, ...]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no checks given")
    unknown = sorted(set(names) - set(CHECK_NAMES) - {"all"})
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown checks: {', '.join(unknown)} (known: {', '.join(CHECK_NAMES)})"
        )
    if "all" in names:
        return CHECK_NAMES
    return tuple(c for c in CHECK_NAMES if c in names)


def summary_line(summary: dict) -> str:
    return "summary: " + ", ".join(f"{summary[s]} {s}" for s in STATUS_ORDER)


def render_report(report: InvariantReport, fmt: str) -> str:
    # the record's fields in declaration order; the params, replaced by
    # their own object, keep their place
    doc = {"kind": "report", "version": __version__, **report._asdict()}
    doc["params"] = report.params._asdict()
    if fmt == "json":
        return to_json(doc) + "\n"
    if fmt == "csv":
        # no cell holds a comma, quote or line break, so none is quoted
        columns = [k for k in doc if k not in ("kind", "version", "params")]
        cells = [*map(str, report.params), *(csv_cell(doc[k]) for k in columns)]
        return f"a,b,n,{','.join(columns)}\n{','.join(cells)}\n"
    lines = [f"generalized repunit semigroup  a={report.params.a} b={report.params.b} n={report.params.n}"]
    fields = (
        ("source", report.source),
        ("generators", " ".join(map(str, report.generators))),
        ("frobenius", report.frobenius),
        ("genus", report.genus),
        ("pseudo-frobenius", " ".join(map(str, report.pseudo_frobenius))),
        ("type", report.type),
        ("apery sum", report.apery_sum),
        ("n(S)", report.n_of_s),
        ("wilf", "ok" if report.wilf_ok else "VIOLATED"),
    )
    for name, value in fields:
        lines.append(f"  {name:<17} {value}")
    return "\n".join(lines) + "\n"


def _cell(value):
    """A row value as `to_json` writes it, or an int within 2**53 for %s to write."""
    if type(value) is int and -JSON_SAFE_MAX <= value <= JSON_SAFE_MAX:
        return value
    return to_json(value, "      ")


def render_rows(kind: str, header: dict, rows: list[VerifyOutcome], summary: dict, fmt: str) -> str:
    if fmt == "json":
        # the header's object, left open: its closing "\n}" is cut off
        head = to_json({"kind": kind, "version": __version__, **header})[:-2]
        # one object in both value slots is written once, and each distinct
        # check, status and note string once per document
        escaped = {}
        get, keep = escaped.get, escaped.setdefault
        body = ",\n    ".join([
            ROW_TEMPLATE % (
                _cell(a), _cell(b), _cell(n), get(check) or keep(check, _escape(check)),
                (text := _cell(closed)), text if oracle is closed else _cell(oracle),
                get(status) or keep(status, _escape(status)), get(note) or keep(note, _escape(note)),
            )
            for a, b, n, check, closed, oracle, status, note in rows
        ])
        body = f"[\n    {body}\n  ]" if rows else "[]"
        return f'{head},\n  "rows": {body},\n  "summary": {to_json(summary, "  ")}\n}}\n'
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [
            f"{r.a},{r.b},{r.n},{r.check},{csv_cell(r.closed)},{csv_cell(r.oracle)},{r.status}"
            for r in rows
        ]
        return "\n".join(lines) + "\n"
    lines = []
    for r in rows:
        line = f"a={r.a} b={r.b} n={r.n}  {r.check:<12} {r.status:<20}"
        if r.status in (STATUS_MATCH, STATUS_MISMATCH):
            line += f" closed={csv_cell(r.closed)} oracle={csv_cell(r.oracle)}"
        if r.note:
            line += f"  ({r.note})"
        lines.append(line)
    lines.append(summary_line(summary))
    return "\n".join(lines) + "\n"


def emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # so a write error surfaces here, not at exit


def render_failure(fmt: str, error_kind: str, exc: Exception) -> None:
    """Errors honor --format too: JSON consumers get a structured object,
    unless stdout cannot take it; then `error: ...` goes to stderr, as in the
    other formats, and stdout is closed so the flush at exit skips it."""
    doc = {"kind": "error", "version": __version__, "error": error_kind, "message": str(exc)}
    text = to_json(doc) + "\n" if fmt == "json" else ""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # where stdout is what failed, this fails again
    except OSError:
        text = ""
        try:
            sys.stdout.close()
        except OSError:  # closing flushes first, and closes all the same
            pass
    if not text:
        print(f"error: {exc}", file=sys.stderr)


def cmd_report(args) -> int:
    params = validate(args.a, args.b, args.n)
    if args.source == "oracle":
        report = oracle_report(params, args.cap)
    else:
        report = invariant_report(params)
    emit(render_report(report, args.format), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    params = validate(args.a, args.b, args.n)
    rows = run_checks(params, args.checks, args.cap)
    summary = summarize(rows)
    emit(render_rows("verify", {"params": params._asdict()}, rows, summary, args.format), args.out)
    if summary[STATUS_MISMATCH]:
        return EXIT_MISMATCH
    return EXIT_CAPACITY if summary[STATUS_SKIPPED_CAPACITY] else EXIT_OK


def cmd_sweep(args) -> int:
    try:
        spec = SweepSpec(
            a_range=args.a,
            b_range=args.b,
            n_range=args.n,
            checks=args.checks,
            skip_invalid=not args.no_skip_invalid,
        )
    except ValueError as exc:
        args.parser.error(str(exc))
    rows, summary = sweep(spec, args.cap)
    emit(render_rows("sweep", {"spec": spec._asdict()}, rows, summary, args.format), args.out)
    if args.out or args.format == "csv":
        stream = sys.stdout if args.out else sys.stderr
        print(summary_line(summary), file=stream, flush=True)
    return EXIT_MISMATCH if summary[STATUS_MISMATCH] else EXIT_OK


# each subcommand's help line in the full tree, and the function that runs it
SUBCOMMANDS = {
    "report": ("all invariants of one semigroup", cmd_report),
    "verify": ("closed formulas vs oracle on one semigroup", cmd_verify),
    "sweep": ("verify over an inclusive parameter grid", cmd_sweep),
}


def add_options(p: Parser, command: str) -> Parser:
    """Define `command`'s options on `p`, its parser in the full tree or its lone parser."""
    ranges = command == "sweep"
    for flag in ("--a", "--b", "--n") if ranges else ("-a", "-b", "-n"):
        p.add_argument(flag, type=parse_range if ranges else int, required=True,
                       metavar="LO..HI" if ranges else None)
    if command == "report":
        p.add_argument("--source", choices=("closed", "oracle"), default="closed",
                       help="compute via closed formulas (default) or brute force")
    else:
        p.add_argument("--checks", type=parse_checks, default=CHECK_NAMES,
                       metavar="NAMES", help="comma-separated check names, or 'all'")
    if ranges:
        p.add_argument("--no-skip-invalid", action="store_true",
                       help="fail on invalid triples instead of recording them")
    p.add_argument("--cap", type=int, default=DEFAULT_SIEVE_CAP, metavar="N",
                   help="capacity cap on the oracle's sieve, which bounds every check (default: %(default)s)")
    p.add_argument("--out", default=None, metavar="PATH", help="write output to a file")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=SUBCOMMANDS[command][1], parser=p)  # its parser reports its usage errors
    return p


def build_parser(command: Optional[str] = None) -> Parser:
    """The lone parser of the subcommand that `command` names exactly: its parser
    built on its own, with the prog, options, usage and help it has in the full
    tree.  With no argument, or any other value, the full tree."""
    if command in SUBCOMMANDS:
        return add_options(Parser(prog=f"grepunit {command}"), command)
    parser = Parser(prog="grepunit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in SUBCOMMANDS.items():
        add_options(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv=None) -> int:
    """Run one CLI call on `argv` (any iterable, read once; default sys.argv[1:]); return its exit code.
    A named subcommand is parsed by its lone parser, and only the full tree reports leftovers."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # exact values of any size: lift the int-to-str digit limit for this run only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    args = None  # still None when --help or --version fails to write while parsing
    try:
        if argv and argv[0] in SUBCOMMANDS:  # its lone parser reads the rest, as the tree's would
            args, extras = build_parser(argv[0]).parse_known_args(argv[1:])
        if args is None or extras:  # none named, or leftovers, whose error only the full tree writes
            args = build_parser().parse_args(argv)
        if args.cap < 1:
            args.parser.error(f"argument --cap: must be a positive integer, got {args.cap}")
        return args.func(args)
    except JsonUsageError as exc:
        render_failure("json", "usage", exc)
        return EXIT_USAGE
    except InvalidParametersError as exc:
        render_failure(args.format, "invalid-params", exc)
        return EXIT_INVALID
    except CapacityError as exc:
        render_failure(args.format, "capacity", exc)
        return EXIT_CAPACITY
    except RouteDisagreementError as exc:
        render_failure(args.format, "route-disagreement", exc)
        return EXIT_MISMATCH
    except OSError as exc:
        render_failure(args.format if args else "text", "io", exc)
        return EXIT_IO
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
