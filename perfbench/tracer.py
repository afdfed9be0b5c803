"""Span tracing from outside the library.

The tracer replaces each traced public function of `snpl` at every module
attribute that binds it (for example `snpl.algorithm.policy_scores`, the
name `_candidate_stats` looks up, as well as `snpl.estimators.policy_scores`),
so calls are seen at the layer boundary without editing the package. Spans
stay in memory as (name, start, end, parent, op) tuples and are written out
when the run ends.

Self time is a span's duration minus the duration of its direct children;
calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# Public functions wrapped, by defining module. The class-statistics loop
# (`algorithm._candidate_stats`) is private and is not wrapped: its cost
# shows as `estimators.policy_scores` time plus its caller's self time.
TRACED = {
    "core": ("validate_dataset",),
    "synthetic": ("generate", "build_class", "truth_table"),
    "estimators": ("fit_nuisance", "arm_scores", "policy_scores", "influence_table"),
    "bounds": ("supt_quantile", "asymptotic_bounds", "bonferroni_normal_bounds"),
    "stability": ("delta_star", "laplace"),
    "algorithm": ("snpl_run", "final_certify"),
    "baselines": ("hcpi_run", "bonferroni_run"),
    "harness": (
        "run_benchmark",
        "run_single",
        "emit_bounds_scatter",
        "read_dataset_csv",
        "write_json",
    ),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_policy_scores(args, kwargs, result):
    return {"bytes": _arg(args, kwargs, 0, "scores").nbytes}


def _count_supt(args, kwargs, result):
    return {"dim": len(_arg(args, kwargs, 0, "cov"))}


def _count_influence(args, kwargs, result):
    return {"cols": result.values.shape[1]}


def _count_write_json(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _count_snpl_run(args, kwargs, result):
    return {"scanned": len(result.scan), "evaluated": result.class_size}


# Counts taken at the boundary from a call's arguments or result.
COUNTERS = {
    "estimators.policy_scores": _count_policy_scores,
    "bounds.supt_quantile": _count_supt,
    "estimators.influence_table": _count_influence,
    "harness.write_json": _count_write_json,
    "algorithm.snpl_run": _count_snpl_run,
}


class Tracer:
    """Holds the spans and counters of one run; `installed()` patches the
    package for the duration of a `with` block and restores it after."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = None
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[(name, self.op)][key] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        # cli binds harness functions when first imported; import it before
        # patching so it never captures a wrapper.
        importlib.import_module("snpl.cli")
        originals = {}
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"snpl.{layer}")
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        modules = [m for name, m in sys.modules.items()
                   if name == "snpl" or name.startswith("snpl.")]
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def summary(self, ops) -> dict:
        """Per-name totals over spans whose op id is in `ops`:
        {name: {"calls", "ms", "self_ms", <counters>}}."""
        ops = set(ops)
        child_ms = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_ms[span[3]] += (span[2] - span[1]) * 1e3
        out: dict = defaultdict(lambda: defaultdict(float))
        for idx, span in enumerate(self.spans):
            if span[4] not in ops:
                continue
            name, start, end = span[0], span[1], span[2]
            ms = (end - start) * 1e3
            row = out[name]
            row["calls"] += 1
            row["ms"] += ms
            row["self_ms"] += ms - child_ms[idx]
        for (name, op), counts in self.counts.items():
            if op in ops:
                for key, value in counts.items():
                    out[name][key] += value
        return out

    def write(self, path: str) -> None:
        """Writes the spans as CSV: name,start_us,end_us,parent,op, with
        times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_us,end_us,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},{parent},{op}\n")
