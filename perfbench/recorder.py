"""Outside-in span recorder for the grepunit package.

The recorder never edits grepunit: it replaces module attributes with
timing wrappers, so every call that goes through a module global (or a
name another module copied with `from ... import`) opens a span.  Spans
live in memory as [name, start, end, parent] and are summarised, or
written out as JSON lines, when the run ends.

Counters are taken at the same boundaries, from arguments and return
values only, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

PACKAGE = "grepunit"

# Public functions wrapped, by "<module>.<attribute>" under the package.
TARGETS = (
    "cli.main",
    "cli.render_rows",
    "cli.emit",
    "verify.sweep",
    "verify.run_checks",
    "verify.run_check",
    "verify.oracle_bundle",
    "verify.oracle_report",
    "arith.validate",
    "oracle.basic_invariants",
    "oracle.apery_set",
    "oracle.sieve",
    "oracle.pseudo_frobenius",
    "oracle.wilf_data",
    "oracle.length_set",
    "closed_form.coefficient_tuples",
    "closed_form.apery_set",
    "closed_form.apery_set_recursive",
    "closed_form.maximal_minors",
    "closed_form.is_homogeneous",
    "closed_form.affine_closure_ok",
    "closed_form.invariant_report",
    "apery.AperyTable.build",
)

# Modules searched for copies of a wrapped function (`from .arith import
# validate` binds a second name that must be re-patched too).
MODULES = ("", "cli", "verify", "arith", "oracle", "closed_form", "apery")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# counter name -> (wrapped target, f(args, kwargs, result) -> increment).
# A counter whose argument or attribute a later signature no longer has
# stays at 0 instead of failing the run.
COUNTERS = {
    "oracle.sieve.cells": ("oracle.sieve", lambda args, kw, res: _arg(args, kw, 1, "bound") + 1),
    "oracle.apery_set.modulus_sum": ("oracle.apery_set", lambda args, kw, res: _arg(args, kw, 1, "q")),
    "oracle.length_set.target_sum": ("oracle.length_set", lambda args, kw, res: _arg(args, kw, 1, "x")),
    "apery.AperyTable.build.elements": ("apery.AperyTable.build", lambda args, kw, res: len(res)),
}


def _module(dotted: str):
    """The package or one of its modules; None once a refactor removed it."""
    try:
        return importlib.import_module(f"{PACKAGE}.{dotted}" if dotted else PACKAGE)
    except ModuleNotFoundError:
        return None


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        count = [(key, f) for key, (target, f) in COUNTERS.items() if target == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for key, f in count:
                try:
                    counts[key] += f(args, kwargs, result)
                except (LookupError, AttributeError, TypeError):
                    pass
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a target a refactor removed is skipped."""
        modules = [m for m in map(_module, MODULES) if m is not None]
        for target in TARGETS:
            module_name, _, attr = target.rpartition(".")
            owner_path = module_name.split(".")
            owner = _module(owner_path[0])
            for part in owner_path[1:]:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(target, raw.__func__)))
            else:
                wrapper = self.wrap(target, raw)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapper)

    def self_times(self) -> dict[str, float]:
        """Per-name sum of span duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def cache_info():
    """cache_info() of the lru_cache behind verify.oracle_bundle, read
    through the recorder's wrapper if any; None once the cache is gone."""
    fn = getattr(_module("verify"), "oracle_bundle", None)
    fn = getattr(fn, "__wrapped__", fn)
    info = getattr(fn, "cache_info", None)
    return info() if info is not None else None


def layer_metrics(rec: Recorder, bundle_info) -> dict[str, float]:
    """Per-layer figures of one traced run, keyed by metric name."""
    self_s = rec.self_times()
    calls = rec.calls()
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in TARGETS}
    out.update({f"{name}.calls": calls.get(name, 0) for name in TARGETS})
    out.update({key: rec.counts[key] for key in COUNTERS})
    hits, misses = (bundle_info.hits, bundle_info.misses) if bundle_info else (0, calls["verify.oracle_bundle"])
    out["verify.oracle_bundle.hits"] = hits
    out["verify.oracle_bundle.misses"] = misses
    out["verify.oracle_bundle.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    per_triple = sorted(d * 1000 for d in rec.durations("verify.run_checks"))
    if len(per_triple) >= 2:
        deciles = statistics.quantiles(per_triple, n=10, method="inclusive")
        out["verify.run_checks.p50_ms"] = deciles[4]
        out["verify.run_checks.p90_ms"] = deciles[8]
    else:
        out["verify.run_checks.p50_ms"] = out["verify.run_checks.p90_ms"] = sum(per_triple)
    return out
