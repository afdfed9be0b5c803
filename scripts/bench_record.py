"""Records the benchmark of a change and of its parent as a committed pair,
``BENCH_<label>.json`` and ``BENCH_<label>_parent.json``.

    python scripts/bench_record.py --label NAME --parent CHECKOUT
        [--root CHECKOUT] [--seed 0] [--seconds S] [--out-dir DIR]

``--root`` (default: the checkout holding this script) is the change,
``--parent`` the checkout it is compared with. For each workload
``BENCHMARK.json`` gates, it runs ``perfbench/run.py --trace 0`` of both
checkouts ``PAIRS`` (10) times, each in its own checkout, swapping which
goes first in every pair, so drift of the host lands on both sides alike; then
``TRACED`` (3) ``--trace 1`` runs of each, alternating the same way, for the
per-layer metrics. ``--seconds`` defaults to the benchmark's
``run_seconds``. Each file holds, per workload:

- ``end_to_end``: the median of each gated metric over the untraced runs;
- ``end_to_end_spread``: per gated metric, its ``median``, the quartiles
  ``q1`` and ``q3`` (inclusive method) and the ``runs`` in run order;
- ``method_ms_p50``: the median over the untraced runs of the per-method
  call times they print (``snpl``, ``bonferroni``, ``ds``);
- ``stages_self_ms``: the median over the traced runs of each stage's self
  ms per op;
- ``per_layer``: the median over the traced runs of each per-layer metric;
- ``decisions_sha`` (the distinct values of the untraced runs and of the
  traced ones), ops attempted and failed, summed over the untraced runs and
  over the traced ones;

and the change's file has, per workload, ``vs_parent``: per gated metric,
in how many pairs the change was better (``better_pairs`` of ``pairs``);
``resolved``, true when it was better in at least 9 of 10 pairs and its
median is better than the parent's by more than the parent's
interquartile range; and ``regressed``, true when its median is worse than
the parent's by more than the metric's ``bound`` (a fraction of the
parent's median) in ``BENCHMARK.json``. Each file also
holds, once, the git sha of its checkout, whether its tracked files
differed from that commit, a SHA-256 of its ``src/snpl/*.py`` and their
total line count (``src_lines``, as ``wc -l`` counts), the seed, the run
length, the pair count, the core count and the Python and numpy versions.

``--out-dir`` is created if missing and checked before the first run; the
script exits 2 with one ``error:`` line if no file can be written there.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The two checkouts of a record; the first goes first in even pairs.
SIDES = ("parent", "change")

# Untraced runs of each side per workload; a claimed gain must win at
# least 9 of 10 such pairs.
PAIRS = 10

# Traced runs of each side per workload. A single one would put a drift of
# the host into one side's stage split only.
TRACED = 3


def _git(root: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", root, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def _src_files(root: str) -> dict[str, bytes]:
    out = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "snpl", "*.py"))):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def _src_sha256(root: str) -> str:
    digest = hashlib.sha256()
    for name, text in _src_files(root).items():
        digest.update(name.encode())
        digest.update(text)
    return digest.hexdigest()


def _src_lines(root: str) -> int:
    return sum(text.count(b"\n") for text in _src_files(root).values())


def _perfbench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its final JSON line plus the values it prints
    only as text (decisions_sha, per-method p50s, the stage split)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    text = "\n".join(lines[:-1])
    stages, in_stages = {}, False
    for line in lines:
        if line.strip() == "stage split (self ms per op):":
            in_stages = True
        elif in_stages and line.startswith("    "):
            name, value = line.strip().rsplit(": ", 1)
            stages[name] = float(value.split()[0])
        else:
            in_stages = False
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "decisions_sha": re.search(r"decisions_sha = (\w+)", text).group(1),
        "method_ms_p50": {
            m.group(1): float(m.group(2))
            for m in re.finditer(r"^  (\w+)_ms\.p50 = ([\d.]+) ms \(\d+ calls\)", text, re.M)
        },
        "stages": stages,
    }


def spread(values: list[float]) -> dict:
    """Median, inclusive quartiles and the values themselves."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": list(values)}


def compare(parent: dict, change: dict, metric: dict) -> dict:
    """One gated metric (its ``BENCHMARK.json`` entry) of the change against
    the parent, from their ``spread`` entries whose runs are paired by
    index."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent["runs"], change["runs"]))
    pairs = len(change["runs"])
    gain = sign * (change["median"] - parent["median"])
    return {
        "better_pairs": wins,
        "pairs": pairs,
        "resolved": wins >= 0.9 * pairs and gain > parent["q3"] - parent["q1"],
        "regressed": -gain > metric["bound"] * abs(parent["median"]),
    }


def _checkout(root: str) -> dict:
    return {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "src_sha256": _src_sha256(root),
        "src_lines": _src_lines(root),
    }


def _medians(runs: list[dict]) -> dict:
    """Per key, the median of the runs' values."""
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def _workload(plain: list[dict], traced: list[dict], bench: dict) -> dict:
    """One side's record of one workload from its untraced and its traced
    runs, each in run order."""
    kinds = (("untraced", plain), ("traced", traced))
    e2e = {
        m["name"]: spread([run["metrics"][m["name"]] for run in plain])
        for m in bench["end_to_end"]
    }
    return {
        "end_to_end": {name: s["median"] for name, s in e2e.items()},
        "end_to_end_spread": e2e,
        "method_ms_p50": _medians([run["method_ms_p50"] for run in plain]),
        "stages_self_ms": _medians([run["stages"] for run in traced]),
        "per_layer": _medians([run["metrics"] for run in traced]),
        "decisions_sha": {
            kind: sorted({run["decisions_sha"] for run in runs}) for kind, runs in kinds
        },
        "ops": {kind: sum(run["attempted"] for run in runs) for kind, runs in kinds},
        "failed": {kind: sum(run["failed"] for run in runs) for kind, runs in kinds},
    }


def record(roots: dict, seed: int, seconds: float | None) -> dict:
    """The records of both sides, keyed by ``SIDES``; ``roots`` maps each
    side to its checkout. ``BENCHMARK.json`` is read from the change."""
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if seconds is None else seconds
    shared = {
        "seed": seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    out = {side: {**_checkout(roots[side]), **shared, "workloads": {}} for side in SIDES}
    for wl in bench["workloads"]:
        name = wl["name"]
        plain = {side: [] for side in SIDES}
        for i in range(PAIRS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                print(f"{name}: pair {i + 1}/{PAIRS}, {side} untraced", flush=True)
                plain[side].append(_perfbench(roots[side], name, seed, seconds, 0))
        traced = {side: [] for side in SIDES}
        for i in range(PAIRS, PAIRS + TRACED):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                print(f"{name}: traced {i - PAIRS + 1}/{TRACED}, {side}", flush=True)
                traced[side].append(_perfbench(roots[side], name, seed, seconds, 1))
        for side in SIDES:
            out[side]["workloads"][name] = _workload(plain[side], traced[side], bench)
        parent, change = (out[side]["workloads"][name]["end_to_end_spread"] for side in SIDES)
        out["change"]["workloads"][name]["vs_parent"] = {
            m["name"]: compare(parent[m["name"]], change[m["name"]], m)
            for m in bench["end_to_end"]
        }
    return out


def _check_out_dir(path: str) -> str | None:
    """Creates ``path`` if it is missing; the reason no file can be written
    in it, or None when one can."""
    try:
        os.makedirs(path, exist_ok=True)
        with tempfile.TemporaryFile(dir=path):
            pass
    except OSError as err:
        return f"cannot write to --out-dir {path}: {err}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the files are BENCH_<label>[_parent].json")
    parser.add_argument("--parent", required=True, help="checkout of the parent")
    parser.add_argument("--root", default=HERE, help="checkout of the change")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per perfbench run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--out-dir", default=HERE, help="directory the files are written to")
    args = parser.parse_args(argv)
    problem = _check_out_dir(args.out_dir)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.root)}
    records = record(roots, args.seed, args.seconds)
    for side, suffix in (("change", ""), ("parent", "_parent")):
        path = os.path.join(args.out_dir, f"BENCH_{args.label}{suffix}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"label": args.label + suffix, **records[side]}, fh, indent=2)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
