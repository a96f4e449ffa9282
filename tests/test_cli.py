"""Command-line surface: formats, schemas, exit codes, determinism."""

import argparse
import ast
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grepunit import __version__, cli, closed_form, oracle
from grepunit.arith import validate
from grepunit.cli import (
    EXIT_CAPACITY,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    FORMATS,
    main,
    render_rows,
    to_json,
)
from grepunit.errors import RouteDisagreementError
from grepunit.verify import CHECK_NAMES, STATUS_ORDER, VerifyOutcome, summarize

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schema"
REPORT_SCHEMA = json.loads((SCHEMA_DIR / "report.json").read_text())
OUTCOMES_SCHEMA = json.loads((SCHEMA_DIR / "outcomes.json").read_text())
ERROR_SCHEMA = json.loads((SCHEMA_DIR / "error.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_json_golden(capsys):
    code, out, _ = run_cli(capsys, "report", "-a", "3", "-b", "3", "-n", "4", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["genus"] == 180
    assert doc["generators"] == [40, 43, 52, 79]
    assert doc["apery_sum"] == 7980
    assert doc["source"] == "closed-form"


def test_report_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "report", "-a", "1", "-b", "2", "-n", "3", "--format", "csv")
    assert code == EXIT_OK
    header, row = out.strip().splitlines()
    columns = dict(zip(header.split(","), row.split(",")))
    assert columns["frobenius"] == "19"
    assert columns["generators"] == "7;8;10"
    assert columns["wilf_ok"] == "true"


def test_report_text_golden(capsys):
    code, out, _ = run_cli(capsys, "report", "-a", "3", "-b", "3", "-n", "4")
    assert code == EXIT_OK
    assert "40 43 52 79" in out
    assert "180" in out


def test_report_oracle_source_agrees(capsys):
    code, out, _ = run_cli(
        capsys, "report", "-a", "1", "-b", "2", "-n", "3", "--source", "oracle",
        "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["source"] == "oracle"
    assert doc["frobenius"] == 19
    assert doc["pseudo_frobenius"] == [13, 19]


def test_report_invalid_params_exit_2(capsys):
    code, out, err = run_cli(capsys, "report", "-a", "5", "-b", "2", "-n", "4")
    assert code == EXIT_INVALID
    assert "5" in err  # diagnostic names the offending gcd


def test_report_invalid_params_json_is_structured(capsys):
    code, out, _ = run_cli(
        capsys, "report", "-a", "5", "-b", "2", "-n", "4", "--format", "json"
    )
    assert code == EXIT_INVALID
    doc = json.loads(out)
    assert doc["kind"] == "error"
    assert doc["error"] == "invalid-params"
    assert "5" in doc["message"]


def test_report_big_integers_become_json_strings(capsys):
    code, out, _ = run_cli(capsys, "report", "-a", "1", "-b", "2", "-n", "60", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert isinstance(doc["frobenius"], str)
    assert int(doc["frobenius"]) > 2**53
    assert doc["params"]["a"] == 1  # small values stay numbers


HUGE_B = str(10**1500)  # (1, 10^1500, 3) has F of 4501 digits, (1, 10^1500, 4) m of 4501


def int_str_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize("fmt", FORMATS)
def test_report_writes_exact_values_past_the_int_str_limit(capsys, fmt):
    limit = int_str_limit()
    code, out, err = run_cli(capsys, "report", "-a", "1", "-b", HUGE_B, "-n", "3", "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert int_str_limit() == limit
    f = closed_form.frobenius(validate(1, 10**1500, 3))
    tail = str(f % 10**18).zfill(18)  # the last digits, read without the limit
    if fmt == "json":
        doc = json.loads(out)
        assert len(doc["frobenius"]) == 4501 and doc["frobenius"].endswith(tail)
    else:
        assert f"{tail}\n" in out or f"{tail}," in out


def test_verify_refusal_notes_write_exact_values_past_the_int_str_limit(capsys):
    limit = int_str_limit()
    code, out, err = run_cli(capsys, "verify", "-a", "1", "-b", HUGE_B, "-n", "4", "--format", "json")
    assert (code, err) == (EXIT_CAPACITY, "")
    assert int_str_limit() == limit
    rows = json.loads(out)["rows"]
    assert [r["check"] for r in rows] == list(CHECK_NAMES)
    assert {r["status"] for r in rows} == {"skipped-capacity"}
    assert len({r["note"] for r in rows}) == 1
    assert rows[0]["note"].startswith("multiplicity 1000")
    assert "needs a sieve bound of at least" in rows[0]["note"]


def json_ready(value):
    """Reference: the writer's predecessor, which copied the document with
    ints beyond 2**53 turned into strings before `json.dumps`."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > 2**53 else value
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    return value


def reference_json(value) -> str:
    return json.dumps(json_ready(value), indent=2)


def test_to_json_thresholds():
    assert to_json(2**53) == str(2**53)
    assert to_json(2**53 + 1) == f'"{2**53 + 1}"'
    assert to_json(-(2**60)) == f'"{-(2**60)}"'
    assert to_json({"x": [True, 7]}) == json.dumps({"x": [True, 7]}, indent=2)
    for bad in (1.5, {1, 2}, {1: "non-str key"}):
        with pytest.raises(TypeError):
            to_json(bad)
        with pytest.raises(TypeError):
            to_json({"x": [7, bad]})


json_ints = st.one_of(
    st.integers(),
    st.sampled_from([2**53, -(2**53), 2**53 + 1, -(2**53 + 1), 2**53 - 1]),
    st.integers(min_value=2**60, max_value=2**300),
    st.integers(min_value=-(2**300), max_value=-(2**60)),
)
# st.text() never draws surrogates, so lone ones are added by hand
json_text = st.one_of(
    st.text(),
    st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "\u2028",
                             "\ud800", "\udfff", "\U0001f600", "a"])),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), json_ints, json_text),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_text, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"": [], "e": {}, "t": (), "n": [None, True, False, [[]], ({},)]})
@example(["Ap\u00e9ry", "\ud800", 2**53 + 1, -(2**53) - 1, 10**400])
def test_to_json_matches_json_dumps_of_json_ready(value):
    assert to_json(value) == reference_json(value)


# one value per VerifyOutcome field, in field order; a field added later
# draws any JSON value, so the row writer must follow it
ROW_FIELDS = {
    "a": json_ints,
    "b": st.integers(2, 10),
    "n": st.integers(2, 10),
    "check": st.sampled_from(CHECK_NAMES + ("validate",)),
    "closed": json_values,
    "oracle": json_values,
    "status": st.sampled_from(STATUS_ORDER),
    "note": json_text,
}
outcome_rows = st.lists(
    st.tuples(*(ROW_FIELDS.get(f, json_values) for f in VerifyOutcome._fields)).map(
        VerifyOutcome._make
    ),
    max_size=3,
)
row_headers = st.dictionaries(
    json_text.filter(lambda k: k not in ("rows", "summary")), json_values, max_size=2
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["verify", "sweep"]), row_headers, outcome_rows)
@example("sweep", {"spec": {"a_range": [1, 2], "checks": ["pf"]}}, [])
@example("verify", {}, [])
@example(
    "verify",
    {"params": {"a": 2**53 + 1, "b": 2, "n": 2}},
    [
        VerifyOutcome(2**53 + 1, 2, 2, "pf", [-(2**60), 2**53], {"x": [2**53 + 1]}, "mismatch"),
        VerifyOutcome(-(2**53) - 1, 3, 4, "apery", {"max": 10**30, "n": [[], {}]}, None,
                      "skipped-capacity", "Ap\u00e9ry"),
    ],
)
# closed and oracle holding one object, whose text is written once
@example("verify", {}, [VerifyOutcome(1, 2, 3, "apery", *[{"size": 2**60, "x": [2**53 + 1]}] * 2, "match")])
# equal dicts in a different key order: equal values, different text
@example("verify", {}, [
    VerifyOutcome(1, 2, 3, "wilf", {"wilf": True, "type_bound": 1}, {"type_bound": True, "wilf": True}, "match"),
])
# "%" in the note and in the check (a status outside STATUS_ORDER has no
# summary count, so the status keeps to the known ones)
@example("sweep", {}, [
    VerifyOutcome(1, 2, 3, "%s 100%", None, None, "mismatch", "Ap\u00e9ry 10% %s %(a)s %d"),
    VerifyOutcome(1, 2, 3, "%s 100%", 5, 5, "match", "%"),
])
# a, b and n each side of 2**53
@example("sweep", {}, [
    VerifyOutcome(-(2**53), 2**53, 2**53 + 1, "frobenius", 2**53, 2**53 + 1, "match"),
    VerifyOutcome(2**53 + 1, -(2**53), 2**53, "frobenius", -(2**53) - 1, -(2**53), "mismatch"),
    VerifyOutcome(True, None, "3", "frobenius", False, True, "match"),
])
def test_row_template_matches_the_generic_writer(kind, header, rows):
    doc = {
        "kind": kind,
        "version": __version__,
        **header,
        "rows": [r._asdict() for r in rows],
        "summary": {s: sum(r.status == s for r in rows) for s in STATUS_ORDER},
    }
    assert render_rows(kind, header, rows, summarize(rows), "json") == reference_json(doc) + "\n"


def test_cli_never_passes_an_indent():
    # json.dumps(..., indent=...) runs the pure-Python encoder; every
    # document goes through to_json instead
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            assert not any(kw.arg == "indent" for kw in node.keywords), ast.unparse(node)


def test_verify_all_match_exit_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "-a", "3", "-b", "3", "-n", "4", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, OUTCOMES_SCHEMA)
    assert doc["kind"] == "verify"
    assert doc["summary"]["match"] == 10
    assert doc["summary"]["mismatch"] == 0


def test_verify_detects_planted_mismatch(capsys, monkeypatch):
    monkeypatch.setattr("grepunit.closed_form.frobenius", lambda p: 0)
    code, out, _ = run_cli(
        capsys, "verify", "-a", "1", "-b", "2", "-n", "3", "--checks", "frobenius"
    )
    assert code == EXIT_MISMATCH
    assert "mismatch" in out
    assert "closed=0" in out and "oracle=19" in out


def test_verify_capacity_exit_3(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "-a", "3", "-b", "3", "-n", "4", "--checks", "apery",
        "--cap", "10",
    )
    assert code == EXIT_CAPACITY
    assert "skipped-capacity" in out


def test_sweep_records_capacity_refusals_and_exits_0(capsys):
    # a sweep goes on past a refused triple, where verify exits 3
    code, out, _ = run_cli(capsys, "sweep", "--a", "1..2", "--b", "2", "--n", "2", "--checks", "pf", "--cap", "1")
    assert code == EXIT_OK
    assert out.count("skipped-capacity  ") == 2
    assert "summary: 0 match, 0 mismatch, 2 skipped-capacity," in out
    code, out, _ = run_cli(capsys, "verify", "-a", "1", "-b", "2", "-n", "2", "--checks", "pf", "--cap", "1")
    assert code == EXIT_CAPACITY
    assert out.count("skipped-capacity  ") == 1


USAGE_ERROR_ARGVS = (
    ["verify", "-a", "1", "-b", "2", "-n", "3", "--checks", "nope"],
    ["verify", "-a", "1", "-b", "2", "-n", "3", "--checks", "all,bogus"],
    ["verify", "-a", "1", "-b", "2", "-n", "3", "--checks", ","],
    ["verify", "-a", "1", "-b", "2", "-n", "3", "--cap", "-1"],
    ["report", "-a", "1", "-b", "2", "-n", "3", "--source", "oracle", "--cap", "0"],
    ["sweep", "--a", "1..1", "--b", "2..2", "--n", "2..2", "--checks", "bogus,all"],
    ["sweep", "--a", "x..y", "--b", "2..2", "--n", "2..2"],
    ["sweep", "--a", "3..1", "--b", "2..2", "--n", "2..2"],
    ["sweep", "--a", "1..1", "--b", "1..2", "--n", "2..2"],
    ["report", "-a", "1", "-b", "2", "-n", "3", "--format", "yaml"],
    ["frobnicate"],
    [],
)


def test_usage_errors_exit_64(capsys):
    for argv in USAGE_ERROR_ARGVS:
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == EXIT_USAGE
        capsys.readouterr()


@pytest.mark.parametrize("argv, error", [
    (["sweep", "--a", "1", "--b", "1..2", "--n", "2"],
     "grepunit sweep: error: b range must start at 2 or above, got 1"),
    (["verify", "-a", "1", "-b", "2", "-n", "3", "--cap", "0"],
     "grepunit verify: error: argument --cap: must be a positive integer, got 0"),
])
def test_usage_errors_found_after_parsing_name_the_subcommand(capsys, argv, error):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage: grepunit {argv[0]} [-h]")
    assert err.endswith(f"\n{error}\n")


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--a", "1", "--b", "2", "--n", "1..2"], "n range must start at 2 or above, got 1"),
    (["verify", "-a", "1", "-b", "2", "-n", "3", "--cap", "-5"],
     "argument --cap: must be a positive integer, got -5"),
])
def test_usage_errors_found_after_parsing_honor_json(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_USAGE
    assert json.loads(out) == {"kind": "error", "version": __version__, "error": "usage", "message": message}
    assert out == to_json(json.loads(out)) + "\n"
    assert err == ""


FOUND_WHILE_PARSING = [
    (["verify", "-a", "1", "-b", "2", "-n", "3", "--checks", "nope", "--format", "json"],
     "argument --checks: unknown checks: nope (known: " + ", ".join(CHECK_NAMES) + ")"),
    (["verify", "-a", "1", "-b", "2", "-n", "3", "--checks", ",", "--format", "json"],
     "argument --checks: no checks given"),
    (["sweep", "--a", "3..1", "--b", "2", "--n", "2", "--format", "json"],
     "argument --a: empty range '3..1'"),
    (["verify", "-a", "1", "-b", "2", "-n", "3", "--format=json", "--cap", "x"],
     "argument --cap: invalid int value: 'x'"),
    # found by the top-level parser, after the subcommand's parse
    (["verify", "-a", "1", "-b", "2", "-n", "3", "--format", "json", "--bogus"],
     "unrecognized arguments: --bogus"),
]


@pytest.mark.parametrize("argv, message", FOUND_WHILE_PARSING)
def test_usage_errors_found_while_parsing_honor_json(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == to_json({"kind": "error", "version": __version__, "error": "usage", "message": message}) + "\n"
    assert err == ""


@pytest.mark.parametrize("cap, message", [
    ("x", "argument --cap: invalid int value: 'x'"),  # found while parsing
    ("0", "argument --cap: must be a positive integer, got 0"),  # found after it
])
@pytest.mark.parametrize("formats, fmt", [
    (["--form", "json"], "json"),  # an abbreviation argparse accepts
    (["--f=text", "--fo=json"], "json"),
    (["--format", "json", "--format", "text"], "text"),  # the parse keeps the last
])
def test_usage_errors_take_the_format_as_the_parse_does(capsys, formats, fmt, cap, message):
    argv = ["verify", "-a", "1", "-b", "2", "-n", "3", *formats, "--cap", cap]
    if fmt == "json":
        code, out, err = run_cli(capsys, *argv)
        assert (code, json.loads(out)["message"], err) == (EXIT_USAGE, message, "")
        return
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"grepunit verify: error: {message}\n")


# the benchmark's seed-0 calls
SEED0_ARGVS = [
    ["sweep", "--a", "1..60", "--b", "2..5", "--n", "2..5", "--checks", "frobenius,genus,pf", "--format", "json"],
    ["verify", "-a", "1", "-b", "7", "-n", "6", "--checks", "frobenius,genus,pf"],
    ["sweep", "--a", "1..60", "--b", "2..4", "--n", "2..4", "--checks", "all", "--format", "json"],
]
# every help text, and calls whose first argument is no subcommand, whose
# usage error names one, or that leave arguments over (which the full tree
# reports); the usage errors include [] and ["frobnicate"]
PARITY_ARGVS = [
    ["--help"], ["--version"], ["report", "--help"], ["verify", "--help"], ["sweep", "--help"],
    ["--", "verify", "-a", "1", "-b", "7", "-n", "6"],
    ["report", "-a", "1", "-b", "2", "-n", "3", "--bogus"],
    ["report", "-a", "1", "-b", "2", "-n", "3", "--bogus", "--format", "json"],
    ["verify", "-a", "1", "-b", "7", "-n", "6", "--bogus"],
    ["verify", "-a", "1", "-b", "7", "-n", "6", "--bogus", "--format", "json"],
    ["sweep", "--a", "1", "--b", "2", "--n", "2", "--bogus"],
    ["sweep", "--a", "1", "--b", "2", "--n", "2", "--bogus", "--format", "json"],
    ["sweep", "--bogus"],
    ["verify", "-a", "1", "-b", "7", "-n", "6", "stray"],
    ["report", "-a", "1", "-b", "2", "-n", "3", "--version"],
    ["verify", "--", "-a", "1"],
    ["verify", "-a", "1", "-b", "7", "-n", "6", "--", "--format", "json"],
    ["verify", "-a", "1", "-b", "7", "-n", "6", "--"],
    *USAGE_ERROR_ARGVS,
    *(argv for argv, _ in FOUND_WHILE_PARSING),
    *SEED0_ARGVS,
]


def cli_outcome(capsys, argv):
    """Exit code, stdout and stderr of `main(argv)`, argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_of_the_invoked_subcommand_writes_what_the_full_one_does(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    outcome = cli_outcome(capsys, argv)
    # the reference: the full tree parses the whole argv, and a named
    # subcommand's parser hands `main` what it parsed, with nothing left over
    tree = cli.build_parser()
    whole = SimpleNamespace(parse_known_args=lambda rest: (tree.parse_args(argv), []))
    monkeypatch.setattr(cli, "build_parser", lambda command=None: whole if command in cli.SUBCOMMANDS else tree)
    assert outcome == cli_outcome(capsys, argv)


def option_strings(parser):
    """A parser's option strings, in definition order."""
    return [s for a in parser._actions for s in a.option_strings]


def subparsers(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_only_the_invoked_subcommand_gets_its_options(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    shared = ["--cap", "--out", "--format"]
    full = {
        "report": ["-h", "--help", "-a", "-b", "-n", "--source", *shared],
        "verify": ["-h", "--help", "-a", "-b", "-n", "--checks", *shared],
        "sweep": ["-h", "--help", "--a", "--b", "--n", "--checks", "--no-skip-invalid", *shared],
    }
    for tree in (cli.build_parser(), cli.build_parser("frobnicate")):
        assert (tree.prog, option_strings(tree)) == ("grepunit", ["-h", "--help", "--version"])
        assert {name: option_strings(p) for name, p in subparsers(tree).items()} == full
    for name, p in subparsers(cli.build_parser()).items():
        lone = cli.build_parser(name)
        assert option_strings(lone) == full[name]
        assert (lone.format_usage(), lone.format_help()) == (p.format_usage(), p.format_help())
    built, asked = [], []
    init, real = cli.Parser.__init__, cli.build_parser
    monkeypatch.setattr(cli.Parser, "__init__", lambda self, **kw: built.append(kw["prog"]) or init(self, **kw))
    monkeypatch.setattr(cli, "build_parser", lambda command=None: asked.append(command) or real(command))
    # a named subcommand's run builds its lone parser alone
    for argv in [["verify", "-a", "1", "-b", "2", "-n", "3", "--checks", "frobenius"], *SEED0_ARGVS]:
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        assert main(iter(argv)) == EXIT_OK  # any iterable, read once
        monkeypatch.setattr(sys, "argv", ["grepunit", *argv])
        assert main() == EXIT_OK
        capsys.readouterr()
        assert (built, asked) == ([f"grepunit {argv[0]}"] * 3, [argv[0]] * 3)
        built.clear()
        asked.clear()
    # leftovers: the lone parser, then the full tree on the whole argv
    assert cli_outcome(capsys, ["verify", "-a", "1", "-b", "2", "-n", "3", "--bogus"])[0] == EXIT_USAGE
    assert built == ["grepunit verify", "grepunit", "grepunit report", "grepunit verify", "grepunit sweep"]
    assert asked == ["verify", None]


def test_sweep_json_validates_and_matches(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--a", "1..1", "--b", "2..2", "--n", "2..2", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, OUTCOMES_SCHEMA)
    assert doc["kind"] == "sweep"
    assert doc["spec"]["a_range"] == [1, 1]
    assert doc["summary"]["mismatch"] == 0


def test_sweep_csv_columns_and_invalid_rows(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--a", "4..6", "--b", "2..2", "--n", "4..4",
        "--checks", "frobenius", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,n,check,closed,oracle,status"
    assert lines[1] == "4,2,4,frobenius,93,93,match"
    assert lines[2] == "5,2,4,validate,,,invalid-params"
    assert lines[3] == "6,2,4,validate,,,invalid-params"
    assert "summary" in err


def test_sweep_output_is_deterministic(capsys):
    argv = ("sweep", "--a", "1..4", "--b", "2..3", "--n", "2..3", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_sweep_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--a", "1..1", "--b", "2..2", "--n", "2..2",
        "--checks", "genus", "--format", "csv", "--out", str(out_path),
    )
    assert code == EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "a,b,n,check,closed,oracle,status"
    assert lines[1] == "1,2,2,genus,3,3,match"
    assert "summary" in out


def test_out_to_missing_directory_exit_4(capsys):
    code, _, err = run_cli(
        capsys, "report", "-a", "1", "-b", "2", "-n", "3",
        "--out", "/nonexistent-dir/report.txt",
    )
    assert code == EXIT_IO
    assert "error" in err


class FullStdout(io.StringIO):
    """A stdout on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", [
    ("report", "-a", "1", "-b", "2", "-n", "3"),
    ("verify", "-a", "1", "-b", "2", "-n", "2"),
    ("sweep", "--a", "1..2", "--b", "2", "--n", "2..3"),
], ids=lambda argv: argv[0])
def test_stdout_write_failure_exits_4_with_the_error_on_stderr(capsys, monkeypatch, argv, fmt):
    # a JSON error document cannot go where the output could not, so in
    # every format the error goes to stderr, with no traceback
    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main([*argv, "--format", fmt])
    assert (code, capsys.readouterr().err) == (EXIT_IO, "error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, unbuffered", [
    *((["verify", "-a", "1", "-b", "2", "-n", "2", "--format", fmt], unbuffered)
      for fmt in FORMATS for unbuffered in ("", "1")),
    (["sweep", "--a", "1", "--b", "2", "--n", "2", "--out", os.devnull], ""),  # the summary goes to stdout
    # argparse writes these itself, and would drop the error
    *((argv, unbuffered) for argv in (["--help"], ["--version"], ["verify", "--help"])
      for unbuffered in ("", "1")),
])
def test_full_device_exits_4_without_traceback(argv, unbuffered):
    # buffered, the write error comes at the flush, and the flush at exit
    # must not fail on the same bytes again; unbuffered, it comes at the write
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "grepunit", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (EXIT_IO, "error: [Errno 28] No space left on device\n")


def test_documents_with_exact_ints_beyond_2_53_validate(capsys):
    b = str(2**60)  # m = 2**60 + 1: the closed-form report is written, the oracle refuses
    for argv, schema, path in [
        (("report", "-a", "1", "-b", b, "-n", "2"), REPORT_SCHEMA, ("params", "b")),
        (("verify", "-a", "1", "-b", b, "-n", "2"), OUTCOMES_SCHEMA, ("params", "b")),
        (("sweep", "--a", "1", "--b", b, "--n", "2"), OUTCOMES_SCHEMA, ("spec", "b_range", 0)),
    ]:
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        value = doc
        for key in path:
            value = value[key]
        assert (code, value) == (EXIT_OK if argv[0] != "verify" else EXIT_CAPACITY, b)
        if argv[0] != "report":
            assert doc["rows"][0]["b"] == b


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "grepunit", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "grepunit" in proc.stdout


def test_module_usage_error_honors_json():
    # main() reads sys.argv itself here, as the installed command does, and
    # the top-level parser, which finds the unrecognized argument, is given none
    argv = ["verify", "-a", "1", "-b", "2", "-n", "3", "--format", "json", "--bogus"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "grepunit", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, json.loads(proc.stdout)["error"], proc.stderr) == (EXIT_USAGE, "usage", "")


def run_fresh(script):
    """Stdout of `script` in a fresh `-S` interpreter, where no site hook
    or test dependency has imported anything first."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_startup_imports_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize: about a third of
    # the CLI's set-up.  hashlib loads OpenSSL, csv is needed by no run, and
    # the json package only by the runs that use it.
    script = (
        "import sys, grepunit.cli; grepunit.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect', 'hashlib', '_hashlib', 'csv', 'json'} & set(sys.modules)))"
    )
    assert run_fresh(script) == "[]\n"


def test_deferred_imports_load_only_in_runs_that_use_them():
    # the acceptance sweep's checks and a JSON report load none of them, nor
    # does an Apéry row's digest, which hashes with CPython's own SHA-256,
    # nor a CSV document, whose cells are joined without the csv module
    script = """
import contextlib, io, sys
from grepunit.cli import main
def loaded(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        main(list(argv))
    print(sorted({'_hashlib', 'hashlib', 'csv', 'json'} & set(sys.modules)))
loaded('verify', '-a', '1', '-b', '7', '-n', '6', '--checks', 'frobenius,genus,pf')
loaded('report', '-a', '1', '-b', '2', '-n', '3', '--format', 'json')
loaded('verify', '-a', '1', '-b', '7', '-n', '6', '--checks', 'apery')
loaded('report', '-a', '1', '-b', '2', '-n', '3', '--format', 'csv')
"""
    assert run_fresh(script).splitlines() == [
        "[]", "[]", "[]", "[]"
    ]


def test_digest_falls_back_to_hashlib():
    # a build without CPython's own SHA-256 module hashes through hashlib,
    # and the document keeps its bytes
    argv = ("verify", "-a", "1", "-b", "10", "-n", "6", "--checks", "all", "--format", "json")
    script = f"""
import contextlib, io, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from grepunit.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main({list(argv)!r})
print(sorted({{'_sha2', '_sha256', 'hashlib'}} & {{k for k, v in sys.modules.items() if v}}), code)
sys.stdout.write(buf.getvalue())
"""
    loaded, out = run_fresh(script).split("\n", 1)
    digest, code = DOCUMENT_PINS[argv]
    assert (loaded, hashlib.sha256(out.encode()).hexdigest()) == (f"['hashlib'] {code}", digest)


def test_escaper_falls_back_to_json_encoder():
    # without the C module, json.encoder's pure-Python escaper must write
    # the same text; with it, cli uses the very function json.encoder does
    assert cli._escape is json.encoder.encode_basestring_ascii
    text = "caf\u00e9 \" \\ \n \x01"
    argv = ("report", "-a", "1", "-b", "2", "-n", "3", "--source", "oracle", "--format", "json")
    script = f"""
import contextlib, hashlib, io, sys
sys.modules["_json"] = None
from grepunit import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main({list(argv)!r})
print(cli._escape.__module__)
print(cli.to_json({text!r}))
print(hashlib.sha256(buf.getvalue().encode()).hexdigest(), code)
"""
    module, escaped, pin = run_fresh(script).splitlines()
    digest, code = DOCUMENT_PINS[argv]
    assert (module, escaped, pin) == ("json.encoder", to_json(text), f"{digest} {code}")


def test_console_reports_branch_example(capsys):
    # a = 5 > b**n - 1 = 3 exercises the second Frobenius branch
    code, out, _ = run_cli(
        capsys, "verify", "-a", "5", "-b", "2", "-n", "2", "--checks", "frobenius"
    )
    assert code == EXIT_OK
    assert "closed=13 oracle=13" in out


def test_route_disagreement_reported_as_mismatch(capsys, monkeypatch):
    def disagree(sg, inv=None):
        raise RouteDisagreementError("pseudo-Frobenius routes disagree: planted")

    monkeypatch.setattr("grepunit.oracle.pseudo_frobenius", disagree)
    code, out, _ = run_cli(capsys, "verify", "-a", "3", "-b", "3", "-n", "4", "--format", "json")
    assert code == EXIT_MISMATCH
    doc = json.loads(out)
    jsonschema.validate(doc, OUTCOMES_SCHEMA)
    assert doc["summary"]["mismatch"] == 10
    for row in doc["rows"]:
        assert (row["closed"], row["oracle"], row["status"]) == (None, None, "mismatch")
        assert row["note"] == "pseudo-Frobenius routes disagree: planted"


def drop_residue_class_one(monkeypatch):
    # an oracle Apéry set that loses the element of class 1
    real = oracle.apery_set
    monkeypatch.setattr(oracle, "apery_set", lambda sg, q: [v for v in real(sg, q) if v % q != 1])


def test_report_route_disagreement_json_is_structured(capsys, monkeypatch):
    drop_residue_class_one(monkeypatch)
    code, out, err = run_cli(
        capsys, "report", "-a", "1", "-b", "3", "-n", "3", "--source", "oracle", "--format", "json"
    )
    assert code == EXIT_MISMATCH
    assert err == ""
    assert out == to_json({
        "kind": "error",
        "version": __version__,
        "error": "route-disagreement",
        "message": "Apéry sum inconsistent with an integer genus",
    }) + "\n"


@pytest.mark.parametrize("argv, error, code", [
    # usage errors found while parsing and after it
    (["verify", "-a", "1", "-b", "2", "-n", "3", "--checks", "nope"], "usage", EXIT_USAGE),
    (["sweep", "--a", "1", "--b", "1..2", "--n", "2"], "usage", EXIT_USAGE),
    (["report", "-a", "5", "-b", "2", "-n", "4"], "invalid-params", EXIT_INVALID),
    (["report", "-a", "3", "-b", "3", "-n", "4", "--source", "oracle", "--cap", "100"],
     "capacity", EXIT_CAPACITY),
    (["report", "-a", "1", "-b", "3", "-n", "3", "--source", "oracle"],
     "route-disagreement", EXIT_MISMATCH),
    (["report", "-a", "1", "-b", "2", "-n", "3", "--out", "/nonexistent-dir/report.txt"],
     "io", EXIT_IO),
])
def test_error_documents_validate(capsys, monkeypatch, argv, error, code):
    if error == "route-disagreement":
        drop_residue_class_one(monkeypatch)
    got, out, err = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert (got, doc["error"], err) == (code, error, "")


def test_report_route_disagreement_text_goes_to_stderr(capsys, monkeypatch):
    drop_residue_class_one(monkeypatch)
    code, out, err = run_cli(capsys, "report", "-a", "1", "-b", "3", "-n", "3", "--source", "oracle")
    assert (code, out) == (EXIT_MISMATCH, "")
    assert err == "error: Apéry sum inconsistent with an integer genus\n"


# sha256 of the stdout of `sweep --a 1..12 --b 2..3 --n 2..4 --checks all`:
# refactors of verify and cli must keep the output byte for byte
SWEEP_DIGESTS = {
    "json": "7ae234dff3edb5e30e9b43035f1005906ac1a1c3286c1f1978ac612863dc50b9",
    "csv": "d4e801d7aea8358441f4faa5441707e089fb93b7ceed797d3755d573b847735d",
    "text": "80a4e27724a9a707896d663c9706cb09325b02e360cb846702a0db91dce9f5f3",
}


@pytest.mark.parametrize("fmt", sorted(SWEEP_DIGESTS))
def test_sweep_output_is_pinned(capsys, fmt):
    code, out, _ = run_cli(
        capsys, "sweep", "--a", "1..12", "--b", "2..3", "--n", "2..4",
        "--checks", "all", "--format", fmt,
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[fmt]


# sha256 of the stdout of `verify -a 59 -b 4 -n 4 --checks all --format json`:
# m = 85 and a largest Apéry element of 5688, whose length mask has bit 10
# set, so the homogeneous check compares masks wider than one byte
WIDE_SLOT_DIGEST = "154c91828a864ab9a3221e97c79cd42e1f0b791b464617481061f09b978c7c2e"


def test_wide_length_slot_output_is_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "-a", "59", "-b", "4", "-n", "4", "--checks", "all", "--format", "json"
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_SLOT_DIGEST


# sha256 and exit code of JSON documents that the sweep pins never reach:
# ints beyond 2**53 (in a report, and in a sweep's spec and rows), the
# oracle report, the error document, null values with notes, and every
# check (homogeneity included) at m = 111111
DOCUMENT_PINS = {
    ("report", "-a", "1", "-b", "2", "-n", "60", "--format", "json"):
        ("c003dbf3d1b1f0621bbeb27aba9683e05ed80d0bbc20a0c547c97733848e29af", EXIT_OK),
    ("report", "-a", "1", "-b", "2", "-n", "3", "--source", "oracle", "--format", "json"):
        ("59a50e090b7b6209bd9396d6d605e4e155d2d82f0065ec368c629474777c5358", EXIT_OK),
    ("report", "-a", "5", "-b", "2", "-n", "4", "--format", "json"):
        ("d8928a18d2066805d524ed9d957da1e7f07f9d86300615c135806bedc6f4fe31", EXIT_INVALID),
    ("verify", "-a", "3", "-b", "3", "-n", "4", "--checks", "apery,homogeneous", "--cap", "10",
     "--format", "json"):
        ("1ec1ab12d9c2e075ffe7596f25ab43cae295bcad72e34b8d1758fa16b517a1be", EXIT_CAPACITY),
    ("verify", "-a", "1", "-b", "10", "-n", "6", "--checks", "all", "--format", "json"):
        ("b78b0747205dbc26100d89c9d24d5361d08d0baebd24e04ae38959b67fcc0a44", EXIT_OK),
    ("sweep", "--a", "9007199254740993..9007199254740994", "--b", "2..2", "--n", "2..2",
     "--checks", "frobenius,pf", "--format", "json"):
        ("ad49511f2009de83b90ce784618746b6ab4a5293bb26faa7574f4e4eb10b3320", EXIT_OK),
}


@pytest.mark.parametrize("argv", list(DOCUMENT_PINS), ids=" ".join)
def test_json_document_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == DOCUMENT_PINS[argv]
