"""Joint confidence bounds for weighted policy-value differences.

Two constructions: finite-sample empirical-Bernstein bounds (population
variance, union-corrected over |Pi~| x |S| tests) and asymptotic sup-t
bounds whose critical value is a simulated quantile of the minimum of
standardized correlated Gaussians. A Bonferroni-normal variant serves as
the union-bound comparator and the cheap in-loop bound.

Upper-sense guardrails are handled by negating into the lower-sense form:
every entry carries both the sense-correct ``bound`` and the flipped
``margin`` (lower bound on the certified quantity; certify iff margin > 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .core import SafetySpec
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
]

# Diagonal entries at or below this relative floor count as zero-variance:
# excluded from the min statistic, given width 0.
_VAR_FLOOR = 1e-12


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (machine precision)."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must lie in (0, 1)")
    return float(ndtri(p))


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
    S = spec.s_count
    out = []
    for p, pid in enumerate(table.policy_ids):
        for s in range(S):
            col = p * S + s
            est = float(table.estimates[col])
            width = float(widths[col])
            sign = spec.sign(s)
            margin = sign * est - width
            out.append(
                LowerBoundEntry(
                    policy_id=pid,
                    guardrail=spec.guardrails[s],
                    sense=spec.senses[s],
                    estimate=est,
                    width=width,
                    bound=sign * margin,
                    margin=margin,
                    level=level,
                    method=method,
                )
            )
    return tuple(out)


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
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    n = table.n
    if n < 2:
        raise ValueError("bounds require n >= 2")
    S = spec.s_count
    m = (assumed_class_size if assumed_class_size is not None else table.policy_count) * S
    if m < 1:
        raise ValueError("class size must be positive")
    arg = 3.0 * m / (2.0 * level)
    if not math.isfinite(arg):
        raise ValueError("level too small: log argument overflows")
    L = math.log(arg)

    centered = table.values - table.estimates
    sigma = np.sqrt(np.mean(centered**2, axis=0))
    R = (2.0 + np.asarray(spec.weights)) / table.c
    widths = sigma * math.sqrt(2.0 * L / n) + 3.0 * np.tile(R, table.policy_count) * L / n
    return LowerBoundTable(
        entries=_entries(table, widths, level, "finite"),
        method="finite",
        level=level,
        meta={"class_size": m // S, "s_count": S, "log_term": L, "n": n},
    )


def _as_rng(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, np.random.Generator):
        return rng, None
    return np.random.default_rng(rng), int(rng)


def supt_quantile(cov: np.ndarray, level: float, n_sim: int, rng) -> SupTQuantile:
    """Empirical lower ``level``-quantile of min_j cov_jj^{-1/2} rho_j over
    n_sim draws rho ~ N(0, cov), via symmetric eigendecomposition with
    eigenvalue floor max(lambda, 0).

    Zero-variance coordinates are dropped from the min; an all-zero
    covariance is degenerate. Quantile convention: order statistic at index
    ceil(level * n_sim).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if n_sim < 100:
        raise ValueError("n_sim must be >= 100")
    gen, seed = _as_rng(rng)
    diag = np.diag(cov)
    active = diag > _VAR_FLOOR * max(1.0, float(diag.max(initial=0.0)))
    if not active.any():
        raise ValueError("degenerate covariance")
    sub = cov[np.ix_(active, active)]
    lam, vec = np.linalg.eigh(sub)
    root = vec * np.sqrt(np.maximum(lam, 0.0))
    draws = gen.standard_normal((n_sim, root.shape[0])) @ root.T
    stats = (draws / np.sqrt(diag[active])).min(axis=1)
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
    signs = np.tile([spec.sign(s) for s in range(spec.s_count)], table.policy_count)
    flipped = cov * np.outer(signs, signs)
    q = supt_quantile(flipped, level, n_sim, rng)
    diag = np.diag(cov)
    active = diag > _VAR_FLOOR * max(1.0, float(diag.max(initial=0.0)))
    widths = np.where(active, -q.z_star * np.sqrt(np.maximum(diag, 0.0) / n), 0.0)
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
    n = table.n
    if n < 2:
        raise ValueError("bounds require n >= 2")
    S = spec.s_count
    m = (assumed_class_size if assumed_class_size is not None else table.policy_count) * S
    per_test = level / m
    if not 0.0 < per_test < 0.5:
        raise ValueError("per-test level must lie in (0, 0.5)")
    z = normal_quantile(1.0 - per_test)
    centered = table.values - table.estimates
    sigma = np.sqrt(np.mean(centered**2, axis=0))
    widths = z * sigma / math.sqrt(n)
    return LowerBoundTable(
        entries=_entries(table, widths, level, "bonferroni-normal"),
        method="bonferroni-normal",
        level=level,
        meta={"z": z, "class_size": m // S, "s_count": S, "n": n},
    )
