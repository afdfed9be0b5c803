"""The benchmark's workloads: inputs made from the workload seed, one op
each, and the checks on every op's output.

`paper` and `large-n` run one replication of the synthetic benchmark per op
through `snpl.harness.run_benchmark` (all five methods, traces saved). `cli`
writes one logged CSV at set-up; each op then runs the two practitioner
commands, `snpl run` and `snpl bounds-scatter`, through `snpl.cli.main`.
The library is always called through its module attributes, so the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

ALL_METHODS = ("snpl", "bonferroni", "ds-25", "ds-50", "ds-75")


@dataclass(frozen=True)
class Shape:
    n: int
    grid_size: int  # |Pi| = 5 * grid_size threshold policies


SHAPES = {
    "full": {
        "paper": Shape(1_000, 500),
        "large-n": Shape(50_000, 2),
        "cli": Shape(50_000, 100),
    },
    # Seconds-long smoke size for the benchmark's own tests.
    "tiny": {
        "paper": Shape(300, 20),
        "large-n": Shape(3_000, 2),
        "cli": Shape(2_000, 10),
    },
}


@dataclass
class OpResult:
    ms: float
    decision: str
    errors: list = field(default_factory=list)
    parts: dict = field(default_factory=dict)  # part name -> list of ms


def op_seed(workload: str, seed: int, i: int) -> int:
    """The master_seed of op i, a pure function of the workload seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def check_trace(trace: dict, known: set, baseline_id: str) -> list[str]:
    """Errors in one method trace: the decision must be the baseline or a
    class member, and a non-baseline decision's own final margins must all
    be strictly positive."""
    method, decision = trace["method"], trace["decision"]
    errors = []
    if decision not in known:
        errors.append(f"{method}: decision {decision} is neither the baseline nor a class member")
    if trace["is_baseline"] != (decision == baseline_id):
        errors.append(f"{method}: is_baseline disagrees with decision {decision}")
    if decision != baseline_id:
        margins = [e["margin"] for e in trace["final_bounds"]["entries"] if e["policy"] == decision]
        if not margins or min(margins) <= 0.0:
            errors.append(f"{method}: decision {decision} lacks strictly positive final margins")
    return errors


class _Workload:
    """Common set-up: the policy class, its truth table (which also serves as
    the set of valid decisions) and the output directory."""

    def __init__(self, name: str, shape: Shape, seed: int, out_dir: str):
        from snpl import harness, synthetic

        self.name, self.shape, self.seed, self.out_dir = name, shape, seed, out_dir
        os.makedirs(out_dir, exist_ok=True)
        config = harness.BenchmarkConfig()
        self.baseline_id = config.baseline().policy_id
        self.policies = synthetic.build_class(shape.grid_size)
        self.truth = synthetic.truth_table(self.policies, config.baseline(), config.spec())
        self.known = set(self.truth.values)


class Replication(_Workload):
    """One op = one replication of all five methods via run_benchmark."""

    def op(self, i: int) -> OpResult:
        from snpl import harness

        config = harness.BenchmarkConfig(
            methods=ALL_METHODS,
            n=self.shape.n,
            grid_size=self.shape.grid_size,
            replications=1,
            master_seed=op_seed(self.name, self.seed, i),
            save_traces=True,
        )
        start = time.perf_counter()
        report = harness.run_benchmark(config, workers=1, out_dir=self.out_dir)
        ms = (time.perf_counter() - start) * 1e3

        errors, decisions = [], []
        parts: dict = {"snpl": [], "bonferroni": [], "ds": []}
        for method in ALL_METHODS:
            path = os.path.join(self.out_dir, "traces", f"{method}_r00000.json")
            with open(path, encoding="utf-8") as fh:
                trace = json.load(fh)
            errors += check_trace(trace, self.known, self.baseline_id)
            errors += self._check_scores(report.result(method), trace["decision"])
            decisions.append(trace["decision"])
            parts["ds" if method.startswith("ds-") else method].append(
                report.result(method).wall_time * 1e3
            )
        return OpResult(ms, ",".join(decisions), errors, parts)

    def _check_scores(self, result, decision: str) -> list[str]:
        """With one replication the report's detection, EI and Type I are
        the decision's own indicator, true gain and unsafety."""
        base = decision == self.baseline_id
        gain = self.truth.value(decision, 1) - self.truth.value(self.baseline_id, 1)
        type1 = None if base else float(not self.truth.safe[decision])
        if (
            result.detection != float(not base)
            or not math.isclose(result.ei, gain, rel_tol=0.0, abs_tol=1e-12)
            or result.type1 != type1
        ):
            return [f"{result.method}: report row disagrees with decision {decision}"]
        return []


class Cli(_Workload):
    """One op = one round of the two practitioner commands on the CSV written
    at set-up: `snpl run`, then `snpl bounds-scatter` with the same config,
    so the scatter's selected row must be the run's decision. A round is the
    op because the two commands differ 1.7x in cost: the median of single
    commands would fall between them, set by the slowest run and the
    fastest scatter."""

    def __init__(self, name: str, shape: Shape, seed: int, out_dir: str):
        import numpy as np
        from snpl import harness, synthetic

        super().__init__(name, shape, seed, out_dir)
        self.data = os.path.join(out_dir, "data.csv")
        dataset = synthetic.generate(shape.n, np.random.default_rng(seed))
        harness.write_dataset_csv(dataset, self.data)
        self.config = os.path.join(out_dir, "config.json")
        self.trace = os.path.join(out_dir, "trace.json")
        self.scatter = os.path.join(out_dir, "scatter.csv")

    def op(self, i: int) -> OpResult:
        from snpl import cli

        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "methods": ["snpl"],
                    "grid_size": self.shape.grid_size,
                    "master_seed": op_seed(self.name, self.seed, i),
                },
                fh,
            )
        io = ["--data", self.data, "--config", self.config, "--out"]
        start = time.perf_counter()
        run_code = cli.main(["run", *io, self.trace])
        run_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        scatter_code = cli.main(["bounds-scatter", *io, self.scatter])
        scatter_ms = (time.perf_counter() - start) * 1e3

        parts = {"run": [run_ms], "scatter": [scatter_ms]}
        if run_code not in (0, 3) or scatter_code != 0:
            errors = [f"snpl run exited {run_code}, snpl bounds-scatter exited {scatter_code}"]
            return OpResult(run_ms + scatter_ms, "", errors, parts)
        with open(self.trace, encoding="utf-8") as fh:
            trace = json.load(fh)
        errors = check_trace(trace, self.known, self.baseline_id)
        if (run_code == 3) != trace["is_baseline"]:
            errors.append(f"snpl run exited {run_code} but is_baseline is {trace['is_baseline']}")
        errors += self._check_scatter(trace["decision"])
        return OpResult(run_ms + scatter_ms, trace["decision"], errors, parts)

    def _check_scatter(self, decision: str) -> list[str]:
        with open(self.scatter, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = []
        ids = [row["policy_id"] for row in rows]
        if len(ids) != len(self.known) or set(ids) != self.known:
            errors.append(f"scatter has {len(ids)} rows, not one per policy ({len(self.known)})")
        selected = [row["policy_id"] for row in rows if row["selected"] == "1"]
        if len(selected) > 1:
            errors.append(f"scatter selects {len(selected)} policies")
        if selected and selected[0] != decision:
            errors.append(f"scatter selects {selected[0]}, snpl run decided {decision}")
        pruned = sum(row["pruned"] == "1" for row in rows)
        if any(int(row["pruned_size"]) != pruned for row in rows):
            errors.append("scatter pruned flags disagree with pruned_size")
        return errors


WORKLOADS = {"paper": Replication, "large-n": Replication, "cli": Cli}


def make(name: str, size: str, seed: int, out_dir: str) -> _Workload:
    return WORKLOADS[name](name, SHAPES[size][name], seed, out_dir)
