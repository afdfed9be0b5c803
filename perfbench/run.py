"""The snpl benchmark.

    python3 perfbench/run.py --workload paper|large-n|cli|all [--seed N]
        [--seconds S] [--trace 0|1]

Runs one workload as a closed loop with one client (the next op starts only
after the previous one ends) in this process, with the harness pool off
(workers=1) and BLAS pinned to one thread. It checks every op's output and
prints each metric by name with its unit; the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 runs each op twice,
untraced and traced, alternating which goes first, and reports the per-layer
metrics from spans recorded around the library's public functions; the
spans are written to .perfbench_out/<workload>/spans.csv. The library's own
stage timers are not used. Run from the root of a checkout; the package is
imported from ./src.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper", "large-n", "cli")
DEFAULT_SEED = 0
SETUP_PROBES = 3  # fresh processes timed per run for setup_s
SHA_OPS = 3  # decisions_sha covers the first SHA_OPS ops of every run
TAIL_BEYOND = 10  # op_ms.tail has at least this many samples above it
MIN_OPS = 16  # untraced runs go on to this many ops, so op_ms.tail exists

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (traced function, field or derived quantity, unit).
# Values are per traced op, except the two setup timings (one traced
# set-up) and the derived ratios.
PER_LAYER = {
    "estimators.policy_scores.calls": ("estimators.policy_scores", "calls", "count"),
    "estimators.policy_scores.ms": ("estimators.policy_scores", "ms", "ms"),
    "estimators.policy_scores.bytes": ("estimators.policy_scores", "bytes", "bytes"),
    "algorithm.snpl_run.self_ms": ("algorithm.snpl_run", "self_ms", "ms"),
    "algorithm.scan.len": (None, "scan_len", "count"),
    "algorithm.scan.useful_ratio": (None, "useful_ratio", "ratio"),
    "estimators.fit_nuisance.calls": ("estimators.fit_nuisance", "calls", "count"),
    "estimators.fit_nuisance.ms": ("estimators.fit_nuisance", "ms", "ms"),
    "estimators.arm_scores.calls": ("estimators.arm_scores", "calls", "count"),
    "estimators.arm_scores.ms": ("estimators.arm_scores", "ms", "ms"),
    "core.validate_dataset.calls": ("core.validate_dataset", "calls", "count"),
    "core.validate_dataset.ms": ("core.validate_dataset", "ms", "ms"),
    "bounds.supt_quantile.calls": ("bounds.supt_quantile", "calls", "count"),
    "bounds.supt_quantile.ms": ("bounds.supt_quantile", "ms", "ms"),
    "bounds.supt_quantile.dim": (None, "supt_dim", "count"),
    "bounds.asymptotic_bounds.self_ms": ("bounds.asymptotic_bounds", "self_ms", "ms"),
    "algorithm.final_certify.self_ms": ("algorithm.final_certify", "self_ms", "ms"),
    "stability.delta_star.ms": ("stability.delta_star", "ms", "ms"),
    "estimators.influence_table.calls": ("estimators.influence_table", "calls", "count"),
    "estimators.influence_table.ms": ("estimators.influence_table", "ms", "ms"),
    "estimators.influence_table.cols": ("estimators.influence_table", "cols", "count"),
    "harness.write_json.ms": ("harness.write_json", "ms", "ms"),
    "harness.write_json.bytes": ("harness.write_json", "bytes", "bytes"),
    "synthetic.build_class.ms": (None, "setup_build_class_ms", "ms"),
    "synthetic.truth_table.ms": (None, "setup_truth_table_ms", "ms"),
    "trace.overhead_frac": (None, "overhead_frac", "ratio"),
}

# ROADMAP item 1's stages as sums of self time of the traced functions.
# The scan loop itself runs in snpl_run's self time, which is counted under
# class statistics because _candidate_stats is not traced.
STAGES = {
    "data generation": ("synthetic.generate", "harness.read_dataset_csv"),
    "nuisance fit": ("estimators.fit_nuisance",),
    "arm scores": ("estimators.arm_scores",),
    "class statistics": (
        "estimators.policy_scores",
        "estimators.influence_table",
        "algorithm.snpl_run",
        "baselines.hcpi_run",
        "baselines.bonferroni_run",
        "harness.emit_bounds_scatter",
    ),
    "scan": ("stability.laplace",),
    "final bounds": (
        "algorithm.final_certify",
        "bounds.asymptotic_bounds",
        "bounds.bonferroni_normal_bounds",
    ),
    "sup-t draws": ("bounds.supt_quantile",),
    "serialization": ("harness.write_json",),
    "other": (
        "core.validate_dataset",
        "stability.delta_star",
        "synthetic.build_class",
        "synthetic.truth_table",
        "harness.run_benchmark",
        "harness.run_single",
    ),
}


def _pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_snpl() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "snpl", "__init__.py")):
        raise SystemExit(f"error: no snpl package under {src}; run from a checkout")
    sys.path.insert(0, src)
    import snpl

    if not os.path.abspath(snpl.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported snpl from {snpl.__file__}, not from {src}")


def _out_dir(workload: str) -> str:
    return os.path.join(ROOT, ".perfbench_out", workload)


def _probe_setup(args) -> float:
    """Seconds from spawning a fresh process to its set-up being done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed (exit {code})")
    return elapsed


def _loop(wl, seconds: float, min_ops: int, tracer=None):
    """Closed loop over op indices 0, 1, ... until `seconds` have passed and
    at least `min_ops` ops are done. With a tracer every op runs untraced and
    traced; returns (untraced, traced)."""
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < min_ops:
        if tracer is None:
            plain.append(wl.op(i))
        else:
            for with_trace in (i % 2 == 1, i % 2 == 0):
                if with_trace:
                    tracer.op = i
                    with tracer.installed():
                        traced.append(wl.op(i))
                else:
                    plain.append(wl.op(i))
            if traced[-1].decision != plain[-1].decision:
                traced[-1].errors.append(
                    f"traced decision {traced[-1].decision} != untraced {plain[-1].decision}"
                )
        i += 1
    return plain, traced


def _sha(ops) -> str:
    text = "\n".join(f"{i}:{op.decision}" for i, op in enumerate(ops[:SHA_OPS]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _end_to_end(ops, probes) -> dict:
    op_ms = [op.ms for op in ops]
    tail, pct = _tail(op_ms)
    values = {
        "setup_s": statistics.median(probes),
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"  op_ms.tail is p{pct:.1f} of {len(op_ms)} ops ({TAIL_BEYOND} above it)")
    print(f"  setup_s probes: {', '.join(f'{p:.4f}' for p in probes)} s")
    parts: dict = {}
    for op in ops:
        for name, samples in op.parts.items():
            parts.setdefault(name, []).extend(samples)
    for name, samples in parts.items():
        print(f"  {name}_ms.p50 = {statistics.median(samples):.3f} ms ({len(samples)} calls)")
    return values


def _per_layer(tracer, plain, traced) -> dict:
    per_op = 1.0 / len(traced)
    s = tracer.summary(range(len(traced)))
    setup = tracer.summary(["setup"])
    runs = s["algorithm.snpl_run"]
    derived = {
        "scan_len": (s["stability.laplace"]["calls"] - runs["calls"]) / runs["calls"],
        "useful_ratio": runs["scanned"] / runs["evaluated"],
        "supt_dim": s["bounds.supt_quantile"]["dim"] / max(s["bounds.supt_quantile"]["calls"], 1),
        "setup_build_class_ms": setup["synthetic.build_class"]["ms"],
        "setup_truth_table_ms": setup["synthetic.truth_table"]["ms"],
        "overhead_frac": statistics.median(op.ms for op in traced)
        / statistics.median(op.ms for op in plain) - 1.0,
    }
    values = {}
    for metric, (name, key, _unit) in PER_LAYER.items():
        values[metric] = derived[key] if name is None else s[name][key] * per_op
    print(f"  per traced op ({len(traced)} ops); calls, ms and self_ms of every traced function:")
    for name in sorted(s):
        row = s[name]
        print(f"    {name}: {row['calls'] * per_op:.1f} calls, {row['ms'] * per_op:.3f} ms,"
              f" self {row['self_ms'] * per_op:.3f} ms")
    print("  stage split (self ms per op):")
    for stage, names in STAGES.items():
        total = sum(s[name]["self_ms"] for name in names if name in s) * per_op
        print(f"    {stage}: {total:.3f} ms")
    print("  note: the class-statistics loop (algorithm._candidate_stats) is private and"
          " untraced; it shows as estimators.policy_scores time plus its caller's self time")
    return values


def _run(args) -> int:
    if args.trace == 0:
        probes = [_probe_setup(args) for _ in range(SETUP_PROBES)]
    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    if tracer:
        tracer.op = "setup"
    with tracer.installed() if tracer else contextlib.nullcontext():
        wl = workloads.make(args.workload, args.size, args.seed, _out_dir(args.workload))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}:"
          f" in-process set-up {time.perf_counter() - start:.3f} s")
    wl.op(-1)  # warm-up op on its own seed, not measured

    plain, traced = _loop(wl, args.seconds, SHA_OPS if tracer else MIN_OPS, tracer)
    ops = plain + traced
    failed = sum(1 for op in ops if op.errors)
    for op in ops:
        for err in op.errors:
            print(f"  FAILED: {err}")
    print(f"  decisions_sha = {_sha(plain)}" + (f" (traced {_sha(traced)})" if tracer else ""))
    print(f"  ops_failed_frac = {failed / len(ops)} ({failed} of {len(ops)} ops)")
    if tracer is None:
        values = _end_to_end(plain, probes)
        units = END_TO_END
    else:
        values = _per_layer(tracer, plain, traced)
        units = {metric: spec[2] for metric, spec in PER_LAYER.items()}
        tracer.write(os.path.join(_out_dir(args.workload), "spans.csv"))
    for metric, value in values.items():
        print(f"  {metric} = {value:.6g} {units[metric]}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="snpl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke inputs for the benchmark's tests")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_blas()
    _import_snpl()
    if args.workload == "all":
        return _run_all(args)
    if args.probe_setup:
        import workloads

        workloads.make(args.workload, args.size, args.seed, _out_dir(args.workload))
        print("ready", flush=True)
        return 0
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
