"""Self-test of the benchmark: the recorder must not change what the CLI
prints, its span tree must account for the traced wall time, its counters
must repeat, and the output gate must catch a wrong answer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import workloads

# A seed-0-shaped slice of all-checks, small enough to run in about a second.
SLICE = workloads.Inputs("sweep", (1, 12), (2, 3), (2, 4), workloads.ALL_CHECKS, "json")


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans") / "spans.jsonl"
    argv = SLICE.argv()
    return {
        "plain": run.child(argv),
        "traced": run.child(argv, trace=True, spans=spans),
        "traced_again": run.child(argv, trace=True),
        "spans": [json.loads(line) for line in spans.read_text().splitlines()],
    }


def test_recorder_leaves_stdout_byte_identical(calls):
    plain, traced = calls["plain"], calls["traced"]
    assert "error" not in plain and "error" not in traced
    assert plain["exit_code"] == traced["exit_code"] == 0
    assert plain["stdout"] == traced["stdout"]
    assert "layers" not in plain


def test_span_self_times_add_up_to_traced_wall(calls):
    spans = calls["spans"]
    roots = [s for s in spans if s["parent"] == -1]
    assert [s["name"] for s in roots] == ["cli.main"]
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    self_total = sum(s["end"] - s["start"] - c for s, c in zip(spans, covered))
    # the reference ticks run inside cli.main but are taken out of wall_s
    elapsed = calls["traced"]["wall_s"] + calls["traced"]["tick_s"]
    assert self_total == pytest.approx(calls["traced"]["span_self_sum_s"], rel=1e-9)
    assert abs(self_total - elapsed) <= 0.01 * elapsed + 0.001


def test_counters_repeat_exactly(calls):
    first, second = calls["traced"]["layers"], calls["traced_again"]["layers"]
    exact = [k for k, unit in run.PER_LAYER.items() if unit in run.EXACT_UNITS]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["oracle.length_set.calls"] > 0
    assert first["verify.oracle_bundle.hits"] > 0


def test_gate_accepts_the_real_output(calls):
    verdict = workloads.judge(workloads.WORKLOADS["all-checks"], SLICE, calls["plain"])
    assert verdict.problems == []
    assert verdict.failed == 0 and verdict.attempted == len(SLICE.expected_rows())


def test_gate_fails_a_wrong_value_exit_code_or_digest(calls):
    workload = workloads.WORKLOADS["all-checks"]
    rows = len(SLICE.expected_rows())
    doc = json.loads(calls["plain"]["stdout"])
    doc["rows"][0]["oracle"] = -7
    wrong_value = dict(calls["plain"], stdout=json.dumps(doc))
    assert workloads.judge(workload, SLICE, wrong_value).failed == 1
    wrong_code = dict(calls["plain"], exit_code=1)
    assert workloads.judge(workload, SLICE, wrong_code).failed == rows
    assert workloads.judge(workload, SLICE, None).failed == rows
    pinned = workloads.Workload("slice", "", SLICE, "0" * 64)
    assert workloads.judge(pinned, SLICE, calls["plain"]).failed == rows


def test_seed0_inputs_are_the_documented_ones():
    grid = workloads.WORKLOADS["grid-sweep"].inputs(0)
    assert grid.argv() == "sweep --a 1..60 --b 2..5 --n 2..5 --checks frobenius,genus,pf --format json".split()
    rows = grid.expected_rows()
    assert len(rows) == 2046 + 278
    assert sum(r[4] == workloads.STATUS_INVALID for r in rows) == 278
    assert workloads.WORKLOADS["large-m"].inputs(0).argv() == "verify -a 1 -b 7 -n 6 --checks frobenius,genus,pf".split()
    assert workloads.WORKLOADS["all-checks"].inputs(0).argv() == "sweep --a 1..60 --b 2..4 --n 2..4 --checks all --format json".split()
    large_m = workloads.WORKLOADS["large-m"]
    assert large_m.inputs(5) == large_m.inputs(5)
    assert {large_m.inputs(seed).a for seed in range(1, 20)} == {(5, 5), (7, 7)}


def test_benchmark_json_names_what_run_reports():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
