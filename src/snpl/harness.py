"""Benchmark harness: configuration, the replicated-simulation runner,
decision scoring against the exact truth oracle, and all file I/O (dataset
CSV, config JSON, trace JSON, report CSV, gamma-grid CSV, bounds scatter).

Seeding is splittable and documented: replication r of a benchmark derives
stream (master_seed, r, k) where k = 0 feeds data generation and k >= 1 is
a fixed per-method registry slot, so reports are invariant to replication
execution order and to the configured method order.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import json
import math
import os
import time
import types
import typing
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .algorithm import snpl_run
from .baselines import bonferroni_run, hcpi_run
from .bounds import check_mode, margins, supt_widths, union_table
from .core import Dataset, Hyperparams, SafetySpec, ThresholdPolicy
from .estimators import class_stats, influence_table, policy_scores
from .stability import check_alpha_prime, delta_star, gamma_grid
from .synthetic import N_OUTCOMES, build_class, generate, truth_table

__all__ = [
    "METHOD_STREAMS",
    "BenchmarkConfig",
    "MethodResult",
    "BenchmarkReport",
    "run_benchmark",
    "run_single",
    "load_csv_inputs",
    "emit_bounds_scatter",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_report_csv",
    "write_gamma_grid_csv",
    "worker_count",
]

# Fixed seed-stream registry: slot 0 generates data, the rest key methods,
# so results do not depend on the order methods are listed or executed.
METHOD_STREAMS = {"snpl": 1, "ds-25": 2, "ds-50": 3, "ds-75": 4, "bonferroni": 5}
_DATA_STREAM = 0

# The learning fraction rho of each data-splitting method.
_SPLIT_RHO = {"ds-25": 0.25, "ds-50": 0.50, "ds-75": 0.75}

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchmarkConfig:
    """One JSON document drives both the benchmark and single runs.

    Defaults mirror the synthetic benchmark: alpha = 0.1, gamma = 0.1,
    p = 0.5, folds = 5, final n_sim = 1e5, w = [0, -0.1], goal outcome 1;
    the six hyperparameter defaults are read from ``Hyperparams``.
    eta = null (the default) re-derives eta per class size from the
    width-ratio heuristic.

    The safety spec, hyperparameters and baseline policy are built, and so
    checked, once when the config is; ``spec()``, ``hyper()`` and
    ``baseline()`` return them. ``methods`` lists distinct method tags, at
    least one. Only ``run_benchmark`` reads ``n``; a CSV run takes its rows
    from the file, and ``propensity`` (one entry per action) applies only
    to a file without e-columns.
    """

    methods: tuple[str, ...] = ("snpl",)
    mode: str = "asymptotic"
    n: int = 1000
    replications: int = 300
    grid_size: int = 500
    goal: int = 1
    guardrails: tuple[int, ...] = (1, 2)
    weights: tuple[float, ...] = (0.0, -0.1)
    senses: tuple[str, ...] | None = None
    alpha: float = 0.1
    gamma: float = Hyperparams.gamma
    p: float = Hyperparams.p
    eta: int | None = Hyperparams.eta
    B: float | None = Hyperparams.B
    n_sim: int = Hyperparams.n_sim
    folds: int = Hyperparams.folds
    master_seed: int = 0
    save_traces: bool = False
    baseline_feature: str = "g1"
    baseline_cutoff: float = 0.5
    propensity: tuple[float, ...] = (0.5, 0.5)

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.methods:
            raise ValueError("methods must list at least one method")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must not repeat: {list(self.methods)}")
        for m in self.methods:
            if m not in METHOD_STREAMS:
                raise ValueError(f"unrecognized method tag '{m}'")
        check_mode(self.mode)
        spec = SafetySpec(self.goal, self.guardrails, self.weights, self.alpha, self.senses)
        hyper = Hyperparams(
            gamma=self.gamma,
            eta=self.eta,
            B=self.B,
            p=self.p,
            n_sim=self.n_sim,
            folds=self.folds,
        )
        baseline = ThresholdPolicy(self.baseline_feature, self.baseline_cutoff)
        # a null eta is the heuristic's, which is 1 wherever alpha' nears the limit
        check_alpha_prime(delta_star(self.alpha, 1, self.gamma)[1], self.eta or 1, spec.s_count)
        object.__setattr__(self, "_spec", spec)
        object.__setattr__(self, "_hyper", hyper)
        object.__setattr__(self, "_baseline", baseline)

    def spec(self) -> SafetySpec:
        return self._spec

    def hyper(self) -> Hyperparams:
        return self._hyper

    def baseline(self) -> ThresholdPolicy:
        return self._baseline

    def to_json_dict(self) -> dict:
        """Every field by name, tuples as lists."""
        out = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @staticmethod
    def from_json_dict(obj: dict) -> "BenchmarkConfig":
        """A config from parsed JSON, each field checked against its JSON
        type (an array for a tuple field, schema_version 1); null means the default."""
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        hints = typing.get_type_hints(BenchmarkConfig)
        unknown = set(obj) - set(hints) - {"schema_version"}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        version = obj.get("schema_version")
        if version is not None and _json_field("schema_version", version, int) != SCHEMA_VERSION:
            raise ValueError(f"config field 'schema_version' must be {SCHEMA_VERSION}: {version}")
        return BenchmarkConfig(**{
            name: _json_field(name, obj[name], hints[name])
            for name in hints
            if obj.get(name) is not None
        })


# The JSON values a config field of each Python type accepts, and their name.
_JSON_TYPES = {
    bool: (bool, "a boolean"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
}


def _json_field(name: str, value, hint):
    """``value`` as config field ``name`` of type ``hint``, an optional field
    checked as its non-null type; raises ValueError naming the field unless
    the JSON type matches (a boolean is no number)."""
    if typing.get_origin(hint) is types.UnionType:
        hint = typing.get_args(hint)[0]
    array = typing.get_origin(hint) is tuple
    kind = typing.get_args(hint)[0] if array else hint
    accepted, what = _JSON_TYPES[kind]
    entries = value if array else [value]
    if (array and not isinstance(value, list)) or not all(
        isinstance(v, accepted) and (kind is bool or not isinstance(v, bool)) for v in entries
    ):
        shape = "an array, each entry " if array else ""
        raise ValueError(f"config field '{name}' must be {shape}{what}: {json.dumps(value)}")
    return tuple(value) if array else value


def load_config(path: str) -> BenchmarkConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"cannot read config: {err}") from err
    return BenchmarkConfig.from_json_dict(obj)


@dataclass(frozen=True)
class MethodResult:
    method: str
    detection: float
    detection_se: float
    type1: float | None
    type1_se: float | None
    ei: float
    ei_se: float
    reps: int
    wall_time: float


@dataclass(frozen=True)
class BenchmarkReport:
    results: tuple[MethodResult, ...]
    config: BenchmarkConfig

    def result(self, method: str) -> MethodResult:
        for r in self.results:
            if r.method == method:
                return r
        raise KeyError(method)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_json_dict(),
            "results": [asdict(r) for r in self.results],
        }


def worker_count(replications: int, workers: int | None = None) -> int:
    """Resolves the pool size: explicit argument, else SNPL_THREADS, else
    the hardware count, always capped at the replication count."""
    if workers is None:
        env = os.environ.get("SNPL_THREADS")
        if env is not None:
            try:
                workers = int(env)
            except ValueError as err:
                raise ValueError(f"SNPL_THREADS must be an integer: {env!r}") from err
        else:
            workers = os.cpu_count() or 1
    return max(1, min(workers, replications))


def _dispatch(method: str, dataset, policies, config: BenchmarkConfig, seed):
    # Built per call, so it holds the run functions this module binds at
    # call time (perfbench's tracer rebinds them).
    runs = {"snpl": snpl_run, "bonferroni": bonferroni_run}
    runs.update({m: functools.partial(hcpi_run, rho=rho) for m, rho in _SPLIT_RHO.items()})
    spec, baseline, hyper = config.spec(), config.baseline(), config.hyper()
    return runs[method](dataset, policies, spec, baseline, config.mode, hyper, seed)


def _execute_replication(state: dict, r: int) -> dict:
    config: BenchmarkConfig = state["config"]
    dataset = generate(config.n, np.random.default_rng((config.master_seed, r, _DATA_STREAM)))
    out = {}
    for method in config.methods:
        seed = (config.master_seed, r, METHOD_STREAMS[method])
        start = time.perf_counter()
        try:
            trace = _dispatch(method, dataset, state["policies"], config, seed)
        except Exception as err:
            raise RuntimeError(
                f"method '{method}' failed in replication {r} (seed {seed}): {err}"
            ) from err
        elapsed = time.perf_counter() - start
        out[method] = (trace.decision, elapsed)
        if state["trace_dir"] is not None:
            path = os.path.join(state["trace_dir"], f"{method}_r{r:05d}.json")
            write_json(trace.to_json_dict(), path)
        # Free the trace's arrays (snpl's arm scores, a split's row indices)
        # before the next method runs; the loop variable would hold them
        # until then.
        del trace
    return out


# The run state of a multi-worker benchmark: filled before the fork pool
# starts, so every worker inherits it, and cleared when the pool is done.
_POOL_STATE: dict = {}


def _pool_job(r: int) -> tuple[int, dict]:
    return r, _execute_replication(_POOL_STATE, r)


# glibc's mallopt parameters, and the value both are set to: 32 MiB, the
# ceiling glibc's own dynamic mmap threshold may reach on 64-bit hosts.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_KEEP = 32 << 20


def _keep_heap_mapped() -> None:
    """Keeps up to 32 MiB of freed memory in the process heap, and serves
    blocks up to 32 MiB from it. A replication allocates and frees
    blocks of the same sizes for every method; by default glibc trims the
    free heap top and maps large blocks anew each time, and the process
    then page-faults the same memory in again. The setting is
    process-wide. No-op where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP)
    mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP)


def run_benchmark(
    config: BenchmarkConfig, workers: int | None = None, out_dir: str | None = None
) -> BenchmarkReport:
    """Runs every configured method on `replications` fresh synthetic
    datasets and scores decisions against the exact truth oracle. An n too
    small for a method, or a goal or guardrail index beyond the synthetic
    outcomes, raises ValueError before any data is generated. Traces are
    written to ``out_dir/traces/`` only when ``save_traces`` is set; that
    directory is made after those checks, so a rejected config writes nothing.

    Detection is the fraction of non-baseline returns; Type I the fraction
    of truly unsafe policies among those (null on a zero denominator); EI
    the unconditional mean true goal gain, zero when the baseline comes
    back. Truth is taken for the decided policies and the baseline only,
    not for the whole class. Aggregation iterates replications in index
    order, so reports do not depend on completion order.
    """
    # Cross-fitting needs at least one row per fold in every sample it
    # fits on; a finite-mode split needs one row on each side, and snpl's
    # sensitivity t(n, xi) two rows.
    n, folds = config.n, config.folds
    if config.mode == "asymptotic" and n < folds:
        raise ValueError(f"more folds than observations: n = {n}, folds = {folds}")
    if "snpl" in config.methods and n < 2:
        raise ValueError(f"method 'snpl' needs n >= 2 rows, got n = {n}")
    least = folds if config.mode == "asymptotic" else 1
    for m in config.methods:
        if m in _SPLIT_RHO:
            n_learn = int(math.floor(_SPLIT_RHO[m] * n))
            if min(n_learn, n - n_learn) < least:
                raise ValueError(
                    f"method '{m}' splits n = {n} rows into {n_learn} and "
                    f"{n - n_learn}; each side needs at least {least}"
                )
    config.spec().check_outcome_count(N_OUTCOMES)
    trace_dir = None
    if out_dir is not None and config.save_traces:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
    _keep_heap_mapped()  # before the fork pool, so every worker inherits it
    state = {"config": config, "policies": build_class(config.grid_size), "trace_dir": trace_dir}
    M = config.replications
    nworkers = worker_count(M, workers)
    per_rep: dict[int, dict] = {}
    if nworkers == 1:
        for r in range(M):
            per_rep[r] = _execute_replication(state, r)
    else:
        import multiprocessing as mp

        _POOL_STATE.update(state)
        try:
            with mp.get_context("fork").Pool(nworkers) as pool:
                for r, result in pool.imap_unordered(_pool_job, range(M)):
                    per_rep[r] = result
        finally:
            _POOL_STATE.clear()

    # Truth only for the policies some method decided on: at most one per
    # method and replication, where the class may hold thousands.
    baseline = config.baseline()
    decided = {out[0] for rep in per_rep.values() for out in rep.values()}
    chosen = [p for p in state["policies"] if p.policy_id in decided]
    truth = truth_table(chosen, baseline, config.spec())
    base_id = baseline.policy_id
    goal = config.goal
    results = []
    for method in config.methods:
        decisions = [per_rep[r][method][0] for r in range(M)]
        wall = sum(per_rep[r][method][1] for r in range(M))
        nonbase = [d for d in decisions if d != base_id]
        detection = len(nonbase) / M
        det_se = math.sqrt(detection * (1.0 - detection) / M)
        gains = np.array(
            [truth.value(d, goal) - truth.value(base_id, goal) for d in decisions]
        )
        ei = float(gains.mean())
        ei_se = float(gains.std(ddof=1) / math.sqrt(M)) if M > 1 else 0.0
        if nonbase:
            viol = sum(1 for d in nonbase if not truth.safe[d])
            type1 = viol / len(nonbase)
            type1_se = math.sqrt(type1 * (1.0 - type1) / len(nonbase))
        else:
            type1 = None
            type1_se = None
        results.append(
            MethodResult(
                method=method,
                detection=detection,
                detection_se=det_se,
                type1=type1,
                type1_se=type1_se,
                ei=ei,
                ei_se=ei_se,
                reps=M,
                wall_time=wall,
            )
        )
    return BenchmarkReport(results=tuple(results), config=config)


# ---------------------------------------------------------------------------
# File I/O


def write_json(obj: dict, path: str) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline;
    byte-identical for identical content."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_report_csv(report: BenchmarkReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "detection", "detection_se", "type1", "type1_se", "ei", "ei_se", "reps"]
        )
        for r in report.results:
            writer.writerow(
                [
                    r.method,
                    repr(r.detection),
                    repr(r.detection_se),
                    "" if r.type1 is None else repr(r.type1),
                    "" if r.type1_se is None else repr(r.type1_se),
                    repr(r.ei),
                    repr(r.ei_se),
                    r.reps,
                ]
            )


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    """Header x1..xd,a,y1..yd_Y,e1..eK; actions as integers, covariates and
    outcomes to 6 decimals, propensities at full precision (they enter the
    scores as 1/e), so reading the file back keeps them and c."""
    d_x = dataset.covariates.shape[1]
    d_y = dataset.outcomes.shape[1]
    e_cols = [f"e{k+1}" for k in range(dataset.n_actions)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{i+1}" for i in range(d_x)] + ["a"] + [f"y{j+1}" for j in range(d_y)] + e_cols
        )
        for i in range(dataset.n):
            row = [f"{v:.6f}" for v in dataset.covariates[i]]
            row.append(str(int(dataset.actions[i])))
            row.extend(f"{v:.6f}" for v in dataset.outcomes[i])
            row.extend(repr(float(v)) for v in dataset.propensities[i])
            writer.writerow(row)


def read_dataset_csv(path: str, config: BenchmarkConfig) -> Dataset:
    """Reads `x1..xd,a,y1..yd_Y[,e1..eK]`. With e-columns present the
    propensities ride along row-wise; otherwise the config's constant
    propensity vector applies."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError("empty data file") from None
            rows = list(reader)
    except OSError as err:
        raise ValueError(f"cannot read data: {err}") from err

    header = [h.strip() for h in header]
    x_cols = [h for h in header if h.startswith("x")]
    y_cols = [h for h in header if h.startswith("y")]
    e_cols = [h for h in header if h.startswith("e")]
    expect_x = [f"x{i+1}" for i in range(len(x_cols))]
    expect_y = [f"y{j+1}" for j in range(len(y_cols))]
    expect_e = [f"e{k+1}" for k in range(len(e_cols))]
    expected = expect_x + ["a"] + expect_y + expect_e
    if header != expected or not x_cols or not y_cols:
        raise ValueError(
            f"data header mismatch: expected x1..xd,a,y1..yd[,e1..eK], got {header}"
        )
    if not rows:
        raise ValueError("data file has no rows")

    nx, ny, ne = len(x_cols), len(y_cols), len(e_cols)
    X = np.empty((len(rows), nx))
    A = np.empty(len(rows), dtype=np.int64)
    Y = np.empty((len(rows), ny))
    E = np.empty((len(rows), ne)) if ne else None
    for i, row in enumerate(rows):
        if len(row) != len(expected):
            raise ValueError(f"wrong field count at data row {i + 1}")
        try:
            X[i] = [float(v) for v in row[:nx]]
            A[i] = int(row[nx])
            Y[i] = [float(v) for v in row[nx + 1 : nx + 1 + ny]]
            if ne:
                E[i] = [float(v) for v in row[nx + 1 + ny :]]
        except ValueError as err:
            raise ValueError(f"unparseable value at data row {i + 1}: {err}") from err

    if not ne:
        probs = config.propensity
        E = np.broadcast_to(np.asarray(probs, dtype=float), (len(rows), len(probs)))
    return Dataset(X, A, Y, E)


def write_gamma_grid_csv(path: str, alpha_steps: int = 50, gamma_steps: int = 80) -> None:
    """f(gamma, alpha) over the standard ranges, 6 significant digits.
    Raises ValueError, before the file is opened, unless both step counts
    are at least 1."""
    for name, count in (("alpha_steps", alpha_steps), ("gamma_steps", gamma_steps)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    alphas = np.linspace(0.01, 0.5, alpha_steps)
    gammas = np.linspace(0.01, 0.8, gamma_steps)
    ratios = gamma_grid(alphas, gammas)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "gamma", "ratio"])
        for i, a in enumerate(alphas):
            for j, g in enumerate(gammas):
                writer.writerow([f"{a:.6g}", f"{g:.6g}", f"{ratios[i, j]:.6g}"])


def check_threshold_class_fits(dataset: Dataset) -> None:
    """Raises ValueError unless the built-in threshold class can act on the
    dataset: it reads columns x1..x3 and chooses between two actions."""
    if dataset.covariates.shape[1] < 3:
        raise ValueError("the built-in threshold policy class needs columns x1..x3")
    if dataset.n_actions != 2:
        raise ValueError(
            f"the built-in threshold policy class is two-action; the data has "
            f"{dataset.n_actions} actions"
        )


def load_csv_inputs(data_path: str, config_path: str) -> tuple[BenchmarkConfig, Dataset]:
    """The config and CSV dataset of ``run`` and ``bounds-scatter``; raises
    ValueError unless the threshold class and the spec fit the data."""
    config = load_config(config_path)
    dataset = read_dataset_csv(data_path, config)
    check_threshold_class_fits(dataset)
    config.spec().check_outcome_count(dataset.n_outcomes)
    return config, dataset


def run_single(data_path: str, config_path: str, out_path: str) -> int:
    """Applies the configured method (the first entry of `methods`) to a
    CSV dataset and writes the trace JSON. Returns 0 when the decision is
    non-baseline, 3 on baseline fallback; a ValueError for bad input
    propagates for the CLI to map to exit code 2."""
    config, dataset = load_csv_inputs(data_path, config_path)
    method = config.methods[0]
    seed = (config.master_seed, 0, METHOD_STREAMS[method])
    trace = _dispatch(method, dataset, build_class(config.grid_size), config, seed)
    write_json(trace.to_json_dict(), out_path)
    return 0 if not trace.is_baseline else 3


def emit_bounds_scatter(dataset: Dataset, policies, config: BenchmarkConfig, out_path: str) -> None:
    """Runs the pruning pipeline and writes the per-policy scatter data
    behind the bound-visualization figure: estimate and bound coordinates
    per guardrail, both centered at the baseline estimate, the certification
    thresholds w_j * V_j(pi0), and pruned/selected flags.

    A lower-sense coordinate certifies iff bound > threshold (upper sense:
    bound < threshold). Statistics come from ``class_stats`` on the run's
    own arm scores; the estimate of guardrail j is mean(d_j) + w_j V_j(pi0).
    Widths use the run's final-certification critical value, so pruned rows
    reproduce the trace's final margins up to rounding; when nothing was
    pruned they use the in-loop one, at |Pi~| = eta.
    """
    spec = config.spec()
    baseline = config.baseline()
    seed = (config.master_seed, 0, METHOD_STREAMS["snpl"])
    trace = _dispatch("snpl", dataset, policies, config, seed)
    jdx = np.asarray(spec.guardrails, dtype=np.int64) - 1
    n = dataset.n

    # The candidates as snpl_run lists them, so class_stats finds the
    # grouping the run left on the dataset; the baseline's row comes apart.
    candidates = [p for p in policies if p.policy_id != baseline.policy_id]
    rows = [baseline] + candidates
    own = influence_table(dataset, trace.scores, [baseline], spec, baseline)
    stats = class_stats(dataset, candidates, spec, baseline, trace.scores)
    stats = replace(
        stats,
        policy_ids=own.policy_ids + stats.policy_ids,
        means=np.vstack([own.means, stats.means]),
        variances=np.vstack([own.variances, stats.variances]),
        goal=np.concatenate([own.goal, stats.goal]),
    )
    v0 = policy_scores(trace.scores, baseline, dataset.covariates)[:, jdx].mean(axis=0)
    thresholds = np.asarray(spec.weights) * v0
    estimates = stats.means + thresholds
    if config.mode == "asymptotic" and trace.pruned_ids:
        widths = supt_widths(stats.variances, trace.final.meta["z_star"], n)
    else:  # |Pi~|: the pruned count (finite mode), or eta when nothing was pruned
        size = len(trace.pruned_ids) or trace.svt.eta
        widths = union_table(stats, config.mode, trace.svt.alpha_prime, size).widths
    bounds = spec.signs * margins(estimates, widths, spec)  # estimate -/+ width

    pruned = set(trace.pruned_ids)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        cols = ["policy_id"]
        for s in range(spec.s_count):
            cols += [f"estimate_{s+1}", f"bound_{s+1}", f"threshold_{s+1}"]
        cols += ["pruned", "selected", "pruned_size"]
        writer.writerow(cols)
        for i, pol in enumerate(rows):
            row = [pol.policy_id]
            for s in range(spec.s_count):
                row += [
                    repr(float(estimates[i, s])),
                    repr(float(bounds[i, s])),
                    repr(float(thresholds[s])),
                ]
            row += [
                int(pol.policy_id in pruned),
                int(pol.policy_id == trace.decision),
                len(trace.pruned_ids),
            ]
            writer.writerow(row)
