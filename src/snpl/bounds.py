"""Joint confidence bounds for weighted policy-value differences, and the
one home of every width and margin formula.

Two constructions: finite-sample empirical-Bernstein bounds (population
variance, union-corrected over |Pi~| x |S| tests) and asymptotic sup-t
bounds whose critical value is a simulated quantile of the minimum of
standardized correlated Gaussians. A Bonferroni-normal variant serves as
the union-bound comparator and the cheap in-loop bound.

The width functions (``bernstein_widths``, ``normal_widths``,
``supt_widths``) and ``margins`` work on arrays of (1/n)-normalized
variances and means shaped (..., |S|): the table functions below apply them
to influence tables, and the scan, the baselines and the bounds scatter
apply them to class statistics.

This module also owns the pairing of a guarantee mode with its bounds:
``finite`` takes the empirical-Bernstein widths and tables, ``asymptotic``
the Bonferroni-normal union widths and the sup-t joint tables.
``check_mode`` is the one check of a mode name; ``union_widths``,
``union_bounds`` and ``joint_bounds`` make the choice for the methods.

Upper-sense guardrails are handled by negating into the lower-sense form:
every entry carries both the sense-correct ``bound`` and the flipped
``margin`` (lower bound on the certified quantity; certify iff margin > 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .core import MIN_N_SIM, SafetySpec
from .estimators import InfluenceTable, empirical_covariance

__all__ = [
    "LowerBoundEntry",
    "LowerBoundTable",
    "SupTQuantile",
    "finite_bounds",
    "supt_quantile",
    "asymptotic_bounds",
    "bonferroni_normal_bounds",
    "normal_quantile",
    "bernstein_widths",
    "normal_widths",
    "supt_widths",
    "margins",
    "check_mode",
    "union_widths",
    "union_bounds",
    "joint_bounds",
]

# Floats per block of sup-t draws (256 KB): one block of normals and one of
# draws stay in cache while they are reduced.
_BLOCK = 1 << 15

# Diagonal entries at or below this relative floor count as zero-variance:
# excluded from the min statistic, given width 0.
_VAR_FLOOR = 1e-12


def _active(variances: np.ndarray) -> np.ndarray:
    """Entries above the relative zero-variance floor."""
    return variances > _VAR_FLOOR * max(1.0, float(variances.max(initial=0.0)))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (machine precision)."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must lie in (0, 1)")
    return float(ndtri(p))


def _log_term(spec: SafetySpec, level: float, class_size: int) -> float:
    """L = log(3 |Pi~| |S| / (2 level)) of the Bernstein width."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if class_size < 1:
        raise ValueError("class size must be positive")
    arg = 3.0 * class_size * spec.s_count / (2.0 * level)
    if not math.isfinite(arg):
        raise ValueError("level too small: log argument overflows")
    return math.log(arg)


def _bonferroni_z(spec: SafetySpec, level: float, class_size: int) -> float:
    """z = Phi^{-1}(1 - level / (|Pi~| |S|)) of the Bonferroni-normal width."""
    if class_size < 1:
        raise ValueError("class size must be positive")
    per_test = level / (class_size * spec.s_count)
    if not 0.0 < per_test < 0.5:
        raise ValueError("per-test level must lie in (0, 0.5)")
    return normal_quantile(1.0 - per_test)


def bernstein_widths(
    variances: np.ndarray, spec: SafetySpec, level: float, class_size: int, n: int, c: float
) -> np.ndarray:
    """Empirical-Bernstein widths sigma_j sqrt(2L/n) + 3 R_j L / n with
    L = log(3 |Pi~| |S| / (2 level)), R_j = (2 + w_j) / c and |Pi~| =
    class_size, for variances shaped (..., |S|)."""
    L = _log_term(spec, level, class_size)
    R = (2.0 + np.asarray(spec.weights)) / c
    return np.sqrt(variances) * math.sqrt(2.0 * L / n) + 3.0 * R * L / n


def normal_widths(
    variances: np.ndarray, spec: SafetySpec, level: float, class_size: int, n: int
) -> np.ndarray:
    """Bonferroni-normal widths z sqrt(var / n) with z = Phi^{-1}(1 - level /
    (|Pi~| |S|)) and |Pi~| = class_size; the per-test level must lie in
    (0, 0.5), so widths are never negative."""
    return _bonferroni_z(spec, level, class_size) * np.sqrt(variances) / math.sqrt(n)


def supt_widths(variances: np.ndarray, z_star: float, n: int) -> np.ndarray:
    """Sup-t widths -z* sqrt(var / n); variances at or below the relative
    zero-variance floor (relative to the largest one passed) get width 0."""
    return np.where(_active(variances), -z_star * np.sqrt(np.maximum(variances, 0.0) / n), 0.0)


def margins(means: np.ndarray, widths: np.ndarray, spec: SafetySpec) -> np.ndarray:
    """Per-entry margins, the sense-flipped estimate minus the width, for
    arrays shaped (..., |S|); the sense-correct bound is ``spec.signs *
    margin``."""
    return spec.signs * means - widths


@dataclass(frozen=True)
class LowerBoundEntry:
    policy_id: str
    guardrail: int
    sense: str
    estimate: float
    width: float
    bound: float
    margin: float
    level: float
    method: str


@dataclass(frozen=True)
class LowerBoundTable:
    """Per-(policy, guardrail) bounds plus correction metadata."""

    entries: tuple[LowerBoundEntry, ...]
    method: str
    level: float
    meta: dict = field(default_factory=dict)

    def for_policy(self, policy_id: str) -> list[LowerBoundEntry]:
        return [e for e in self.entries if e.policy_id == policy_id]

    def min_margin(self, policy_id: str) -> float:
        return min(e.margin for e in self.for_policy(policy_id))

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "level": self.level,
            "meta": dict(self.meta),
            "entries": [
                {
                    "policy": e.policy_id,
                    "guardrail": e.guardrail,
                    "sense": e.sense,
                    "estimate": e.estimate,
                    "width": e.width,
                    "bound": e.bound,
                    "margin": e.margin,
                }
                for e in self.entries
            ],
        }

    def certified_ids(self) -> list[str]:
        """Policies whose every guardrail margin is strictly positive,
        in first-appearance order."""
        seen: dict[str, bool] = {}
        for e in self.entries:
            seen[e.policy_id] = seen.get(e.policy_id, True) and e.margin > 0.0
        return [pid for pid, ok in seen.items() if ok]


@dataclass(frozen=True)
class SupTQuantile:
    z_star: float
    n_sim: int
    seed: int | None = None


def _entries(
    table: InfluenceTable, widths: np.ndarray, level: float, method: str
) -> tuple[LowerBoundEntry, ...]:
    spec = table.spec
    shape = (table.policy_count, spec.s_count)
    est = table.estimates.reshape(shape)
    width = widths.reshape(shape)
    margin = margins(est, width, spec)
    bound = spec.signs * margin
    rows = zip(table.policy_ids, est.tolist(), width.tolist(), bound.tolist(), margin.tolist())
    return tuple(
        LowerBoundEntry(
            policy_id=pid,
            guardrail=spec.guardrails[s],
            sense=spec.senses[s],
            estimate=e[s],
            width=w[s],
            bound=b[s],
            margin=m[s],
            level=level,
            method=method,
        )
        for pid, e, w, b, m in rows
        for s in range(spec.s_count)
    )


def _class_size(table: InfluenceTable, assumed_class_size: int | None) -> int:
    return assumed_class_size if assumed_class_size is not None else table.policy_count


def _variances(table: InfluenceTable) -> np.ndarray:
    """(1/n)-normalized column variances, shaped (|Pi|, |S|)."""
    if table.n < 2:
        raise ValueError("bounds require n >= 2")
    centered = table.values - table.estimates
    return np.mean(centered**2, axis=0).reshape(table.policy_count, table.spec.s_count)


def finite_bounds(
    table: InfluenceTable,
    spec: SafetySpec,
    level: float,
    assumed_class_size: int | None = None,
) -> LowerBoundTable:
    """Empirical-Bernstein joint bounds at level ``level``:

        C_j(pi) = D_j(pi) -/+ [ sigma_j(pi) sqrt(2L/n) + 3 R_j L / n ],
        L = log(3 |Pi~| |S| / (2 level)),  R_j = (2 + w_j) / c,

    with |Pi~| = assumed_class_size (defaults to the table's policy count).
    """
    m = _class_size(table, assumed_class_size)
    widths = bernstein_widths(_variances(table), spec, level, m, table.n, table.c)
    return LowerBoundTable(
        entries=_entries(table, widths, level, "finite"),
        method="finite",
        level=level,
        meta={
            "class_size": m,
            "s_count": spec.s_count,
            "log_term": _log_term(spec, level, m),
            "n": table.n,
        },
    )


def _as_rng(rng) -> tuple[np.random.Generator, int | None]:
    """The generator ``np.random.default_rng(rng)`` (a Generator passes
    through) and the seed to record: ``rng`` itself when it is an integer,
    else None."""
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    return np.random.default_rng(rng), seed


def supt_quantile(cov: np.ndarray, level: float, n_sim: int, rng) -> SupTQuantile:
    """Empirical lower ``level``-quantile of min_j cov_jj^{-1/2} rho_j over
    n_sim draws rho ~ N(0, cov), via symmetric eigendecomposition with a
    relative eigenvalue floor: lambda <= d eps lambda_max counts as 0 (eps
    the float64 machine epsilon, d the active dimension), so the rounding
    noise of a singular covariance (duplicate columns) cannot move z*.

    Zero-variance coordinates are dropped from the min; an all-zero
    covariance is degenerate. Quantile convention: order statistic at index
    ceil(level * n_sim). ``rng`` is anything ``np.random.default_rng``
    accepts; the result records it as ``seed`` only when it is an integer.

    The draws are taken and reduced in blocks of rows = max(1, _BLOCK // d)
    rows for d active coordinates, so memory is O(rows d + n_sim). Each
    block is the next slice of the one ``standard_normal((n_sim, d))``
    stream with the same per-element arithmetic, so z* and the generator's
    state afterwards do not depend on the block size.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if n_sim < MIN_N_SIM:
        raise ValueError(f"n_sim must be >= {MIN_N_SIM}")
    gen, seed = _as_rng(rng)
    diag = np.diag(cov)
    active = _active(diag)
    if not active.any():
        raise ValueError("degenerate covariance")
    sub = cov[np.ix_(active, active)]
    lam, vec = np.linalg.eigh(sub)
    scale = np.sqrt(diag[active])
    d = scale.size
    lam = np.where(lam > d * np.finfo(float).eps * lam.max(), lam, 0.0)
    root_t = (vec * np.sqrt(lam)).T
    rows = max(1, _BLOCK // d)
    normals = np.empty((rows, d))
    draws = np.empty((rows, d))
    stats = np.empty(n_sim)
    for start in range(0, n_sim, rows):
        m = min(rows, n_sim - start)
        z, block = normals[:m], draws[:m]
        gen.standard_normal(out=z)
        np.matmul(z, root_t, out=block)
        block /= scale
        out = stats[start : start + m]
        np.copyto(out, block[:, 0])
        for j in range(1, d):
            np.minimum(out, block[:, j], out=out)
    k = math.ceil(level * n_sim)
    z_star = float(np.partition(stats, k - 1)[k - 1])
    return SupTQuantile(z_star=z_star, n_sim=n_sim, seed=seed)


def asymptotic_bounds(
    table: InfluenceTable,
    spec: SafetySpec,
    level: float,
    n_sim: int,
    rng,
) -> LowerBoundTable:
    """Sup-t joint bounds: C_j(pi) = D_j(pi) + z* sqrt(Sigma_jj / n) in the
    lower-sense form (z* <= 0 for level < 0.5), upper-sense entries via the
    symmetric construction. Zero-variance columns get width 0.
    """
    n = table.n
    if n < 2:
        raise ValueError("bounds require n >= 2")
    cov = empirical_covariance(table)
    signs = np.tile(spec.signs, table.policy_count)
    q = supt_quantile(cov * np.outer(signs, signs), level, n_sim, rng)
    widths = supt_widths(np.diag(cov), q.z_star, n)
    return LowerBoundTable(
        entries=_entries(table, widths, level, "supt"),
        method="supt",
        level=level,
        meta={
            "z_star": q.z_star,
            "n_sim": n_sim,
            "seed": q.seed,
            "class_size": table.policy_count,
            "s_count": spec.s_count,
            "n": n,
        },
    )


def bonferroni_normal_bounds(
    table: InfluenceTable,
    spec: SafetySpec,
    level: float,
    assumed_class_size: int | None = None,
) -> LowerBoundTable:
    """Normal-approximation bounds with a union correction: per (pi, j),

        C_j(pi) = D_j(pi) -/+ z sqrt(Sigma_jj / n),
        z = Phi^{-1}(1 - level / (|Pi~| |S|)).
    """
    m = _class_size(table, assumed_class_size)
    widths = normal_widths(_variances(table), spec, level, m, table.n)
    return LowerBoundTable(
        entries=_entries(table, widths, level, "bonferroni-normal"),
        method="bonferroni-normal",
        level=level,
        meta={
            "z": _bonferroni_z(spec, level, m),
            "class_size": m,
            "s_count": spec.s_count,
            "n": table.n,
        },
    )


def check_mode(mode: str) -> None:
    """Raises ValueError unless ``mode`` is ``finite`` or ``asymptotic``."""
    if mode not in ("finite", "asymptotic"):
        raise ValueError("mode must be 'finite' or 'asymptotic'")


def union_widths(
    variances: np.ndarray,
    spec: SafetySpec,
    mode: str,
    level: float,
    class_size: int,
    n: int,
    c: float,
) -> np.ndarray:
    """The mode's union-corrected widths over |Pi~| = class_size:
    ``bernstein_widths`` in finite mode (``c`` sets its range term),
    ``normal_widths`` in asymptotic mode."""
    if mode == "finite":
        return bernstein_widths(variances, spec, level, class_size, n, c)
    return normal_widths(variances, spec, level, class_size, n)


def union_bounds(
    table: InfluenceTable, mode: str, level: float, class_size: int
) -> LowerBoundTable:
    """The bound table of ``union_widths``: ``finite_bounds`` or
    ``bonferroni_normal_bounds`` with |Pi~| = class_size."""
    build = finite_bounds if mode == "finite" else bonferroni_normal_bounds
    return build(table, table.spec, level, class_size)


def joint_bounds(
    table: InfluenceTable, mode: str, level: float, n_sim: int, rng
) -> LowerBoundTable:
    """The mode's joint bounds over exactly the table's columns:
    ``finite_bounds`` in finite mode, ``asymptotic_bounds`` (n_sim sup-t
    draws from rng) in asymptotic mode."""
    if mode == "finite":
        return finite_bounds(table, table.spec, level)
    return asymptotic_bounds(table, table.spec, level, n_sim, rng)
