"""Records the benchmark of one checkout as a committed ``BENCH_<label>.json``.

    python scripts/bench_record.py --label NAME [--root CHECKOUT] [--seed 0]
        [--seconds S] [--out-dir DIR]

For each workload ``BENCHMARK.json`` gates, it runs ``perfbench/run.py`` of
``--root`` (default: the checkout holding this script) twice, in that
checkout, one run after the other: ``--trace 0`` for the end-to-end metrics
and ``--trace 1`` for the per-layer ones. ``--seconds`` defaults to the
benchmark's ``run_seconds``. The file holds, per workload:

- ``end_to_end``: the five gated metrics of the untraced run;
- ``method_ms_p50``: the per-method call times it prints (``snpl``,
  ``bonferroni``, ``ds``);
- ``stages_self_ms``: the traced run's stage split, self ms per op;
- ``per_layer``: the traced run's per-layer metrics;
- ``decisions_sha``, ops attempted and failed, for both runs;

and, once, the git sha of ``--root``, whether its tracked files differed
from that commit, a SHA-256 of its ``src/snpl/*.py`` and their total line
count (``src_lines``, as ``wc -l`` counts), the seed, the run
length, the core count and the Python and numpy versions. Two records made
on one host in one session compare a change with its parent.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def record(root: str, seed: int, seconds: float | None) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if seconds is None else seconds
    out = {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "src_sha256": _src_sha256(root),
        "src_lines": _src_lines(root),
        "seed": seed,
        "seconds": seconds,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {},
    }
    for wl in bench["workloads"]:
        name = wl["name"]
        print(f"{name}: untraced run", flush=True)
        plain = _perfbench(root, name, seed, seconds, 0)
        print(f"{name}: traced run", flush=True)
        traced = _perfbench(root, name, seed, seconds, 1)
        out["workloads"][name] = {
            "end_to_end": {m["name"]: plain["metrics"][m["name"]] for m in bench["end_to_end"]},
            "method_ms_p50": plain["method_ms_p50"],
            "stages_self_ms": traced["stages"],
            "per_layer": traced["metrics"],
            "decisions_sha": {"untraced": plain["decisions_sha"], "traced": traced["decisions_sha"]},
            "ops": {"untraced": plain["attempted"], "traced": traced["attempted"]},
            "failed": {"untraced": plain["failed"], "traced": traced["failed"]},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--root", default=HERE, help="checkout to benchmark")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per perfbench run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--out-dir", default=HERE, help="directory the file is written to")
    args = parser.parse_args(argv)
    result = {"label": args.label, **record(os.path.abspath(args.root), args.seed, args.seconds)}
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
