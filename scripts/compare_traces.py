"""Dumps every method's trace JSON for fixed benchmark shapes, and the
bounds-scatter CSV for fixed cases, from a given source tree, and diffs two
such dumps. Used to show that a change to the library leaves seeded
decisions as they were and to bound how far its floats moved.

    python scripts/compare_traces.py dump --src OLD/src --out /tmp/old
    python scripts/compare_traces.py dump --src src --out /tmp/new
    python scripts/compare_traces.py diff /tmp/old /tmp/new [--tol 1e-12]

``dump`` imports ``snpl`` from ``--src`` and runs ``run_benchmark`` with
saved traces, one worker, all five methods, for each shape in ``SHAPES``
(name: mode, grid size, n, replications, master seed); the
traces land in ``OUT/<shape>/traces/`` and each shape's wall time is
printed. It then writes ``emit_bounds_scatter`` for each case in
``SCATTERS`` (name: mode, grid size, n, seed of the data and the run,
senses, weights, eta) to ``OUT/scatter/<case>.csv``. Last, it saves the
``run_single`` trace of each method on two data files, so the CSV path of
``snpl run`` is covered too: ``generate(CSV_N, default_rng(0))`` written
with ``write_dataset_csv`` (to ``OUT/csv/<method>.json``), and a
tabular-propensity file whose text this script writes itself, so it reads
the same in every tree (to ``OUT/csv-tabular/<method>.json``).

``diff`` pairs the files of two dumps by path and reports, per pair, a
decision mismatch (a trace's ``decision`` or ``is_baseline``, or a
scatter's selected row, differ), a structural difference (keys, list
lengths, types or any non-float value differ; in a scatter, the header or
any id or flag cell) or float-only differences, plus the largest absolute
float difference and where it is; then one line per (top directory,
method) group with its identical and float-only counts and its largest
float difference. The exit code is 1 when the dumps share
no file (a wrong or empty path), a decision or the structure differs, a
file is missing on one side, or the largest float difference exceeds
``--tol``; else 0. A reader that closes the output early (``| head``)
cuts the report short, not the run: the exit code stays the same.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
import time

METHODS = ("snpl", "bonferroni", "ds-25", "ds-50", "ds-75")

# name: (mode, grid_size, n, replications, master_seed)
SHAPES = {
    "paper": ("asymptotic", 500, 1000, 20, 0),
    "mid": ("asymptotic", 100, 500, 40, 1),
    "finite": ("finite", 100, 2000, 20, 2),
    "large-n": ("asymptotic", 2, 50_000, 5, 4),
}

# name: (mode, grid_size, n, seed, senses, weights, eta); "finite-empty"
# prunes nothing, so its widths are the in-loop ones at |Pi~| = eta.
SCATTERS = {
    "finite": ("finite", 100, 2000, 2, None, (0.0, -0.1), None),
    "asymptotic": ("asymptotic", 500, 1000, 0, None, (0.0, -0.1), None),
    "upper": ("asymptotic", 100, 1000, 1, ("lower", "upper"), (0.0, 0.0), None),
    "finite-empty": ("finite", 20, 300, 28, None, (0.0, -0.1), 3),
}

# Rows of the CSV case's dataset and the grid size of its configs.
CSV_N, CSV_GRID = 1000, 100

# Seed of the tabular-propensity CSV case's data.
TABULAR_SEED = 5

# Scatter columns holding floats; every other column must match exactly.
_SCATTER_FLOATS = ("estimate_", "bound_", "threshold_")


def _say(line: str) -> None:
    """Prints one line. Once the reader has closed stdout (``... | head``),
    the rest of the output goes to the null device, so the run still ends
    with its own exit code and no traceback."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def dump(src: str, out: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np
    from snpl.harness import (
        BenchmarkConfig,
        emit_bounds_scatter,
        run_benchmark,
        run_single,
        write_dataset_csv,
        write_json,
    )
    from snpl.synthetic import build_class, generate

    for name, (mode, grid, n, reps, seed) in SHAPES.items():
        config = BenchmarkConfig(
            methods=METHODS,
            mode=mode,
            grid_size=grid,
            n=n,
            replications=reps,
            master_seed=seed,
            n_sim=20_000,
            save_traces=True,
        )
        start = time.perf_counter()
        run_benchmark(config, workers=1, out_dir=os.path.join(out, name))
        elapsed = time.perf_counter() - start
        _say(f"{name}: {reps * len(METHODS)} traces in {elapsed:.2f} s")

    os.makedirs(os.path.join(out, "scatter"), exist_ok=True)
    for name, (mode, grid, n, seed, senses, weights, eta) in SCATTERS.items():
        config = BenchmarkConfig(
            methods=("snpl",),
            mode=mode,
            grid_size=grid,
            n=n,
            master_seed=seed,
            senses=senses,
            weights=weights,
            eta=eta,
            n_sim=20_000,
        )
        dataset = generate(n, np.random.default_rng(seed))
        path = os.path.join(out, "scatter", f"{name}.csv")
        emit_bounds_scatter(dataset, build_class(grid), config, path)
        _say(f"scatter {name}: {path}")

    # The data files and configs sit outside OUT: ``diff`` reads every CSV
    # there as a scatter and every JSON as a trace.
    with tempfile.TemporaryDirectory() as tmp:
        data = {"csv": os.path.join(tmp, "data.csv"), "csv-tabular": os.path.join(tmp, "tab.csv")}
        write_dataset_csv(generate(CSV_N, np.random.default_rng(0)), data["csv"])
        _write_tabular_csv(data["csv-tabular"], np.random.default_rng(TABULAR_SEED))
        for method in METHODS:
            write_json(
                BenchmarkConfig(methods=(method,), grid_size=CSV_GRID, n_sim=20_000).to_json_dict(),
                os.path.join(tmp, f"{method}.json"),
            )
        for case, data_path in data.items():
            os.makedirs(os.path.join(out, case), exist_ok=True)
            for method in METHODS:
                path = os.path.join(out, case, f"{method}.json")
                code = run_single(data_path, os.path.join(tmp, f"{method}.json"), path)
                _say(f"{case} {method}: {path} (exit {code})")


def _write_tabular_csv(path: str, rng) -> None:
    """CSV_N rows of the synthetic outcome model under covariate-dependent
    logging, P(A = 1 | x) = e1 = 0.3 + 0.4 x1, with columns e1, e2 = 1 - e1
    at full precision."""
    X = rng.random((CSV_N, 3))
    e1 = 0.3 + 0.4 * X[:, 0]
    treated = rng.random(CSV_N) < e1
    y1 = rng.random(CSV_N) < 0.5 * (1.0 - treated * X[:, 1])
    y2 = rng.random(CSV_N) < 0.5 * (1.0 + treated * X[:, 0] * X[:, 2])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "a", "y1", "y2", "e1", "e2"])
        for i in range(CSV_N):
            writer.writerow(
                [f"{v:.6f}" for v in X[i]]
                + [1 if treated[i] else 2, int(y1[i]), int(y2[i])]
                + [repr(float(e1[i])), repr(float(1.0 - e1[i]))]
            )


def _load(path: str) -> dict:
    """A trace as parsed; a scatter as its header
    and rows, float columns parsed, with the selected row's id as its
    decision."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".json"):
            return json.load(fh)
        reader = csv.DictReader(fh)
        rows = list(reader)
    for row in rows:
        for key in row:
            if key.startswith(_SCATTER_FLOATS):
                row[key] = float(row[key])
    selected = [r["policy_id"] for r in rows if r["selected"] == "1"]
    return {
        "header": reader.fieldnames,
        "rows": rows,
        "decision": selected,
        "is_baseline": selected == [rows[0]["policy_id"]],
    }


def _walk(a, b, path: str, found: dict) -> None:
    """Records in ``found`` the first structural difference under ``path``
    and the largest float difference."""
    if isinstance(a, float) and isinstance(b, float):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            found["floats"] = True
            gap = abs(a - b)
            if gap > found["max"][0]:
                found["max"] = (gap, path)
    elif type(a) is not type(b):
        found.setdefault("struct", f"{path}: {type(a).__name__} vs {type(b).__name__}")
    elif isinstance(a, dict):
        if a.keys() != b.keys():
            found.setdefault("struct", f"{path}: keys {sorted(a.keys() ^ b.keys())}")
        for key in a.keys() & b.keys():
            _walk(a[key], b[key], f"{path}.{key}", found)
    elif isinstance(a, list):
        if len(a) != len(b):
            found.setdefault("struct", f"{path}: length {len(a)} vs {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", found)
    elif a != b:
        found.setdefault("struct", f"{path}: {a!r} vs {b!r}")


def _dump_files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, f), root)
        for d, _, files in os.walk(root)
        for f in files
        if f.endswith((".json", ".csv"))
    }


def _group(rel: str) -> tuple[str, str]:
    """(top directory, method) of a dump file: the method is the file name
    up to its first underscore (``snpl_r00003.json``, ``csv/snpl.json``),
    a scatter's is its case (``scatter/finite-empty.csv``)."""
    top = rel.split(os.sep, 1)[0]
    return top, os.path.basename(rel).split(".", 1)[0].split("_", 1)[0]


def diff(left: str, right: str, tol: float) -> int:
    files_l, files_r = _dump_files(left), _dump_files(right)
    shared = files_l & files_r
    missing = sorted(files_l ^ files_r)
    decisions, structure = [], []
    groups: dict[tuple[str, str], list] = {}
    for rel in sorted(shared):
        a, b = _load(os.path.join(left, rel)), _load(os.path.join(right, rel))
        if (a["decision"], a["is_baseline"]) != (b["decision"], b["is_baseline"]):
            decisions.append(f"{rel}: {a['decision']} vs {b['decision']}")
        found = {"max": (0.0, "")}
        _walk(a, b, "", found)
        group = groups.setdefault(_group(rel), [0, 0, (0.0, "")])
        if "struct" in found:
            structure.append(f"{rel}{found['struct']}")
        elif found.get("floats"):
            group[1] += 1
        else:
            group[0] += 1
        if found["max"][0] > group[2][0]:
            group[2] = (found["max"][0], rel + found["max"][1])

    identical, float_only = (sum(g[i] for g in groups.values()) for i in (0, 1))
    worst = max((g[2] for g in groups.values()), key=lambda m: m[0], default=(0.0, ""))
    _say(f"files compared: {len(shared)}; only on one side: {len(missing)}")
    for rel in missing:
        _say(f"  missing: {rel}")
    _say(f"decision mismatches: {len(decisions)}")
    for line in decisions:
        _say(f"  {line}")
    _say(f"structural differences: {len(structure)}")
    for line in structure:
        _say(f"  {line}")
    _say(f"identical: {identical}; float-only differences: {float_only}")
    _say(f"max float difference: {worst[0]:.3g}" + (f" at {worst[1]}" if worst[1] else ""))
    _say("per (top directory, method):")
    for (top, method), (same, moved, (gap, where)) in sorted(groups.items()):
        line = f"  {top} {method}: identical {same}; float-only {moved}; max {gap:.3g}"
        _say(line + (f" at {where}" if where else ""))
    return int(not shared or bool(missing or decisions or structure) or worst[0] > tol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="write every shape's traces and scatters from one tree")
    d.add_argument("--src", required=True, help="directory holding the snpl package")
    d.add_argument("--out", required=True, help="output directory")
    c = sub.add_parser("diff", help="compare two dumps")
    c.add_argument("left")
    c.add_argument("right")
    c.add_argument("--tol", type=float, default=1e-12, help="largest float difference allowed")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.src, args.out)
        return 0
    return diff(args.left, args.right, args.tol)


if __name__ == "__main__":
    sys.exit(main())
