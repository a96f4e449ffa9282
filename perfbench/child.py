"""One measured grepunit CLI call, in the fresh interpreter it runs in.

    python3 perfbench/child.py [--trace] [--spans PATH] [-- ARGV...]

Times the import of `grepunit.cli` plus building its parser (set-up),
then `grepunit.cli.main(ARGV)` with stdout and stderr captured in memory.
Without ARGV only set-up is measured.  With --trace the recorder wraps
the package first and the per-layer figures are reported as well.  The
result is one JSON object on stdout; the CLI's own output travels inside
it, so the caller checks it outside the measured process.

A fixed pure-Python reference loop is timed before set-up, between
set-up and the call, and after the call, and a short run of it is timed
from a SIGALRM handler every TICK_INTERVAL_S during the call (its time
is taken out of the call's).  The caller divides by these times to take
out the core's speed, which on a shared host drifts by tens of per cent
within seconds.  They are reported in nanoseconds per loop iteration.
"""

from __future__ import annotations

# Only what the interpreter has loaded anyway comes before the set-up
# timing, so the CLI's own imports (argparse, json, csv) are counted in it.
import signal
import sys
import time

REFERENCE_ITERATIONS = 800_000
TICK_ITERATIONS = 10_000
TICK_INTERVAL_S = 0.1


def reference(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Nanoseconds per iteration of a fixed mix of integer, dict and call bytecode."""
    t0 = time.perf_counter_ns()
    table: dict[int, int] = {}
    get = table.get
    for i in range(iterations):
        key = i & 1023
        table[key] = get(key, 0) + i % 7
    return (time.perf_counter_ns() - t0) / iterations


def run(argv: list[str], trace: bool, spans_path: str | None) -> dict:
    ref_before = reference()
    t0 = time.perf_counter()
    import grepunit.cli

    grepunit.cli.build_parser()
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "package": grepunit.cli.__file__, "ref_ns": [ref_before, reference()]}
    if not argv:
        return result

    import contextlib
    import io
    import resource

    rec = None
    if trace:
        import recorder  # beside this script, so on sys.path

        info = recorder.cache_info()
        if info is not None and info.currsize != 0:
            raise RuntimeError(f"oracle bundle cache is warm before the run: {info}")
        rec = recorder.Recorder()
        rec.install()

    ticks_ns: list[float] = []
    tick_s = 0.0

    def tick(signum, frame):
        nonlocal tick_s
        t = time.perf_counter()
        ticks_ns.append(reference(TICK_ITERATIONS))
        tick_s += time.perf_counter() - t

    if rec is not None:  # a span of its own, so no layer's self time includes it
        tick = rec.wrap("reference.tick", tick)

    out, err = io.StringIO(), io.StringIO()
    result["ref_ns"][1] = reference()
    signal.signal(signal.SIGALRM, tick)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = grepunit.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["ref_ns"].append(reference())

    result.update(
        ticks_ns=ticks_ns,
        wall_s=elapsed_s - tick_s,
        tick_s=tick_s,
        peak_rss_mb=peak_kb / 1024,
        exit_code=code,
        stdout=out.getvalue(),
        stderr=err.getvalue(),
    )
    if rec is not None:
        result["layers"] = recorder.layer_metrics(rec, recorder.cache_info())
        result["span_self_sum_s"] = sum(rec.self_times().values())
        if spans_path:
            rec.dump(spans_path)
    return result


def main(args: list[str]) -> int:
    trace = spans_path = None
    while args and args[0] != "--":
        flag = args.pop(0)
        if flag == "--trace":
            trace = True
        elif flag == "--spans" and args:
            spans_path = args.pop(0)
        else:
            print(__doc__, file=sys.stderr)
            return 64
    result = run(args[1:], bool(trace), spans_path)

    import json

    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
