"""grepunit benchmark: end-to-end and per-layer figures for the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (the package is imported from its `src/`).
Every measured CLI call runs in a fresh child interpreter, one at a
time, so the package's process-wide caches start cold each time.  With
--trace 0 the CLI is timed with nothing wrapped and the end-to-end
metrics are reported; with --trace 1 traced and untraced calls alternate
and the per-layer metrics are reported.  Times are scaled to a nominal
core speed by the reference loop that child.py times around and during
each call.  Every call's output is checked, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with
attempted and failed counted in output rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

SETUP_PROBES = 5  # set-up-only children per run, on top of one per measured call
# Nominal speed of child.reference().  Each time a child measures is
# multiplied by REFERENCE_NS / (reference speed measured next to it), i.e.
# reported in seconds on a core that runs the reference loop at this speed.
REFERENCE_NS = 200.0
MIN_TICKS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "completed_ratio": "ratio",
}

# metric -> unit.  Figures in "count" and "ratio" come from arguments and
# return values, so they must repeat exactly between traced calls.
PER_LAYER = {
    "oracle.pseudo_frobenius.self_s": "s",
    "oracle.length_set.self_s": "s",
    "oracle.length_set.calls": "count",
    "oracle.length_set.target_sum": "count",
    "oracle.sieve.self_s": "s",
    "oracle.sieve.cells": "count",
    "oracle.apery_set.self_s": "s",
    "oracle.apery_set.modulus_sum": "count",
    "oracle.basic_invariants.self_s": "s",
    "oracle.wilf_data.self_s": "s",
    "verify.oracle_bundle.hits": "count",
    "verify.oracle_bundle.misses": "count",
    "verify.oracle_bundle.hit_ratio": "ratio",
    "verify.run_check.self_s": "s",
    "verify.run_checks.p50_ms": "ms",
    "verify.run_checks.p90_ms": "ms",
    "cli.render_rows.self_s": "s",
    "cli.emit.self_s": "s",
    "closed_form.apery_set.self_s": "s",
    "closed_form.apery_set_recursive.self_s": "s",
    "closed_form.coefficient_tuples.self_s": "s",
    "closed_form.maximal_minors.self_s": "s",
    "closed_form.is_homogeneous.self_s": "s",
    "closed_form.affine_closure_ok.self_s": "s",
    "apery.AperyTable.build.self_s": "s",
    "apery.AperyTable.build.elements": "count",
    "arith.validate.calls": "count",
    "trace.overhead_s": "s",
}
EXACT_UNITS = ("count", "ratio")


def child(argv: list[str], trace: bool = False, spans: Path | None = None) -> dict:
    """One fresh interpreter running perfbench/child.py; {"error": ...} if it failed."""
    cmd = [sys.executable, str(HERE / "child.py")]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            cmd + ["--", *argv], capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": (proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"])[-1]}
    result = json.loads(proc.stdout)
    if not Path(result["package"]).resolve().is_relative_to(SRC):
        return {"error": f"grepunit was imported from {result['package']}, not from {SRC}"}
    ref = result["ref_ns"]
    result["setup_scale"] = REFERENCE_NS / statistics.fmean(ref[:2])
    if "wall_s" in result:
        ticks = result["ticks_ns"]
        result["call_scale"] = REFERENCE_NS / statistics.fmean(ticks if len(ticks) >= MIN_TICKS else ref[1:])
    return result


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    argv = inputs.argv()
    print(f"{name} seed={seed}: grepunit {' '.join(argv)}")

    start = time.perf_counter()
    probes = [child([]) for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    verdicts = []
    spans = None
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl"
    # Untraced: repeat.  Traced: alternate T, P, T, ... with at least T, P, T,
    # so the counters can be compared and the overhead taken.
    last = 0.0
    while True:
        use_trace = trace and len(traced) <= len(plain)
        t0 = time.perf_counter()
        run = child(argv, trace=use_trace, spans=spans if use_trace else None)
        took = time.perf_counter() - t0
        (traced if use_trace else plain).append(run)
        verdict = workloads.judge(workload, inputs, None if "error" in run else run)
        verdicts.append(verdict)
        for problem in verdict.problems + ([str(run["error"])] if "error" in run else []):
            print(f"  FAILED ({'traced' if use_trace else 'untraced'} call {len(verdicts)}): {problem}")
        enough = len(plain) >= 1 and (not trace or len(traced) >= 2)
        elapsed = time.perf_counter() - start
        if "error" in run or (enough and elapsed + max(took, last) > seconds):
            break
        last = took

    problems = [p for v in verdicts for p in v.problems]
    problems += [f"set-up probe: {r['error']}" for r in probes if "error" in r]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    skipped = sum(v.skipped for v in verdicts)
    good_plain = [r for r in plain if "error" not in r]
    good_traced = [r for r in traced if "error" not in r]
    finished = [r for r in probes + plain + traced if "error" not in r]

    digests = {hashlib.sha256(r["stdout"].encode()).hexdigest() for r in good_plain + good_traced}
    if len(digests) > 1:
        problems.append(f"stdout differs between calls: {len(digests)} distinct digests")

    walls = [r["wall_s"] * r["call_scale"] for r in good_plain]
    setups = [r["setup_s"] * r["setup_scale"] for r in finished]
    rss = [r["peak_rss_mb"] for r in good_plain]
    report("wall_s", walls, [r["wall_s"] for r in good_plain])
    report("setup_s", setups, [r["setup_s"] for r in finished])
    report("peak_rss_mb", rss)
    print(f"  rows attempted={attempted} failed={failed} skipped-capacity={skipped}")

    if not trace:
        values = {
            "wall_s": median(walls),
            "setup_s": median(setups),
            "peak_rss_mb": median(rss),
            "ok_ratio": 1 - failed / attempted,
            "completed_ratio": 1 - skipped / attempted,
        }
        units = END_TO_END
    else:
        values, layer_problems = layer_values(good_traced, median(walls))
        problems += layer_problems
        units = PER_LAYER
        print(f"  spans of the last traced call: {spans.relative_to(ROOT)}")

    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def report(name: str, values: list[float], raw: list[float] | None = None) -> None:
    line = f"  {name} median={median(values):.6g} {spread(values)}"
    if raw is not None:
        line += f" (unscaled median={median(raw):.6g})"
    print(line)


def layer_values(traced: list[dict], plain_wall_s: float) -> tuple[dict, list[str]]:
    """Median per-layer times over the traced calls, scaled like wall_s;
    counts must agree exactly."""
    problems = []
    if not traced:
        return {k: 0.0 for k in PER_LAYER}, ["no traced call finished"]
    values = {}
    for key, unit in PER_LAYER.items():
        if key == "trace.overhead_s":
            continue
        seen = [r["layers"].get(key, 0) for r in traced]
        if unit in EXACT_UNITS:
            if len(set(seen)) > 1:
                problems.append(f"{key} did not repeat between traced calls: {seen}")
            values[key] = seen[0]
        else:
            values[key] = median([v * r["call_scale"] for v, r in zip(seen, traced)])
    traced_walls = [r["wall_s"] * r["call_scale"] for r in traced]
    values["trace.overhead_s"] = median(traced_walls) - plain_wall_s
    for r in traced:
        # self times partition the root span, which is the timed cli.main call
        # (the reference ticks run inside it and are not in wall_s)
        elapsed = r["wall_s"] + r["tick_s"]
        if abs(r["span_self_sum_s"] - elapsed) > 0.01 * elapsed + 0.001:
            problems.append(f"span self times sum to {r['span_self_sum_s']:.6f} s, traced call took {elapsed:.6f} s")
    report("traced wall_s", traced_walls, [r["wall_s"] for r in traced])
    return values, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "grepunit" / "cli.py").is_file():
        print(f"error: no grepunit sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
