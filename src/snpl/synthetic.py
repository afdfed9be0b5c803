"""Synthetic experiment: uniform covariates, a randomized binary treatment,
two Bernoulli outcomes, threshold policy classes, and the exact true-value
oracle used to score decisions.

Data-generating process (action 1 = treated):
    X1, X2, X3 ~ Unif(0,1),  A ~ Bern(0.5),
    Y1 ~ Bern(0.5 (1 - 1[A=1] X2)),  Y2 ~ Bern(0.5 (1 + 1[A=1] X1 X3)).

Treating therefore lowers outcome 1 through X2 and raises outcome 2 through
X1 X3. Policies are deterministic thresholds pi(x) = 1[g_i(x) < c] with
g1 = x1, g2 = x2, g3 = x1 x2, g4 = x1 x2 x3, g5 = -x1 x2 x3. Since g5 <= 0,
the rule -x1 x2 x3 < c treats every row for any cutoff c in (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Policy, SafetySpec

__all__ = [
    "ThresholdPolicy",
    "TruthTable",
    "FEATURES",
    "generate",
    "build_class",
    "true_values",
    "oracle_safe",
    "truth_table",
    "default_baseline",
]

FEATURES = ("g1", "g2", "g3", "g4", "g5")


def _feature(name: str, X: np.ndarray) -> np.ndarray:
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    if name == "g1":
        return x1
    if name == "g2":
        return x2
    if name == "g3":
        return x1 * x2
    if name == "g4":
        return x1 * x2 * x3
    if name == "g5":
        return -x1 * x2 * x3
    raise ValueError(f"unknown feature function '{name}'")


class ThresholdPolicy(Policy):
    """Deterministic rule: treat (action 1) iff g(x) < c, strict inequality."""

    n_actions = 2

    def __init__(self, feature: str, cutoff: float):
        if feature not in FEATURES:
            raise ValueError(f"unknown feature function '{feature}'")
        if not 0.0 <= cutoff <= 1.0:
            raise ValueError("cutoff must lie in [0, 1]")
        self.feature = feature
        self.cutoff = float(cutoff)
        self.policy_id = f"{feature}@{self.cutoff:.10g}"

    def feature_values(self, covariates: np.ndarray) -> np.ndarray:
        """g(x) per row; shared by every policy of the same family."""
        return _feature(self.feature, np.asarray(covariates, dtype=float))

    def treat_mask(self, covariates: np.ndarray) -> np.ndarray:
        return self.feature_values(covariates) < self.cutoff

    def distribution(self, x: np.ndarray) -> np.ndarray:
        treat = bool(self.treat_mask(np.asarray(x, dtype=float).reshape(1, -1))[0])
        return np.array([1.0, 0.0]) if treat else np.array([0.0, 1.0])

    def prob_matrix(self, covariates: np.ndarray) -> np.ndarray:
        m = self.treat_mask(covariates).astype(float)
        return np.column_stack([m, 1.0 - m])


def default_baseline() -> ThresholdPolicy:
    """pi0(x) = 1[x1 < 0.5]."""
    return ThresholdPolicy("g1", 0.5)


def generate(n: int, rng: np.random.Generator) -> Dataset:
    """Draws a dataset of size n; draw order is covariates, treatment,
    Y1 uniforms, Y2 uniforms, so results are reproducible from the seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    X = rng.random((n, 3))
    treated = rng.random(n) < 0.5
    A = np.where(treated, 1, 2).astype(np.int64)
    f1 = 0.5 * (1.0 - treated * X[:, 1])
    f2 = 0.5 * (1.0 + treated * X[:, 0] * X[:, 2])
    y1 = (rng.random(n) < f1).astype(float)
    y2 = (rng.random(n) < f2).astype(float)
    return Dataset(X, A, np.column_stack([y1, y2]), np.broadcast_to([0.5, 0.5], (n, 2)))


def build_class(grid_size: int) -> list[ThresholdPolicy]:
    """5 * grid_size threshold policies; cutoffs evenly spaced over [0, 1]
    inclusive of both endpoints, ascending, with the five families cycling
    inside each cutoff. Declared order matters downstream: the pruning scan
    walks it as-is, so a prefix holds every family at small cutoffs rather
    than a single family."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    cutoffs = np.linspace(0.0, 1.0, grid_size)
    return [ThresholdPolicy(f, float(c)) for c in cutoffs for f in FEATURES]


def _g4_single(c: float) -> float:
    """E[x2 * 1[x1 x2 x3 < c]]: single-factor expectation, c in [0, 1]."""
    if c <= 0.0:
        return 0.0
    return c * c / 2.0 - c * math.log(c)


def _g4_pair(c: float) -> float:
    """E[x1 x3 * 1[x1 x2 x3 < c]]: two-factor expectation, c in [0, 1]."""
    if c <= 0.0:
        return 0.0
    return c - 0.75 * c * c + (c * c / 2.0) * math.log(c)


def true_values(policy: ThresholdPolicy) -> tuple[float, float]:
    """Exact (V1, V2) by closed-form integration over the DGP.

    With m(x) the treat indicator, V1 = 0.5 (1 - E[m X2]) and
    V2 = 0.5 (1 + E[m X1 X3]); E[X1 X3] = 1/4 and each E[X_i] = 1/2.
    """
    c = policy.cutoff
    f = policy.feature
    if f == "g1":
        t1, t2 = c / 2.0, c * c / 4.0
    elif f == "g2":
        t1, t2 = c * c / 2.0, c / 4.0
    elif f == "g3":
        # E[x2 1[x1 x2 < c]] = c - c^2/2, and by symmetry in (x1, x2) the
        # same form holds for E[x1 1[x1 x2 < c]].
        t1 = c - c * c / 2.0
        t2 = (c - c * c / 2.0) / 2.0
    elif f == "g4":
        t1, t2 = _g4_single(c), _g4_pair(c)
    elif f == "g5":
        # -x1 x2 x3 < c holds a.s. for every c >= 0: always treat.
        t1, t2 = 0.5, 0.25
    else:
        raise ValueError(f"unknown feature function '{f}'")
    return 0.5 * (1.0 - t1), 0.5 * (1.0 + t2)


def oracle_safe(policy: ThresholdPolicy, baseline: ThresholdPolicy, spec: SafetySpec) -> bool:
    """True iff every guardrail holds with exact values, boundary inclusive:
    V_j(pi) - (1+w_j) V_j(pi0) >= 0 (lower sense) or <= 0 (upper)."""
    return _guardrails_hold(true_values(policy), true_values(baseline), spec)


def _guardrails_hold(v: tuple[float, float], v0: tuple[float, float], spec: SafetySpec) -> bool:
    """``oracle_safe`` on the exact values v of a policy and v0 of the
    baseline."""
    for s, j in enumerate(spec.guardrails):
        diff = v[j - 1] - (1.0 + spec.weights[s]) * v0[j - 1]
        if spec.sign(s) * diff < 0.0:
            return False
    return True


@dataclass(frozen=True)
class TruthTable:
    """Exact (V1, V2) and the safety flag for each policy, baseline included."""

    values: dict[str, tuple[float, float]]
    safe: dict[str, bool]
    baseline_id: str

    def value(self, policy_id: str, outcome: int) -> float:
        return self.values[policy_id][outcome - 1]


def truth_table(
    policies: list[ThresholdPolicy], baseline: ThresholdPolicy, spec: SafetySpec
) -> TruthTable:
    values = {pol.policy_id: true_values(pol) for pol in policies}
    v0 = values[baseline.policy_id] = true_values(baseline)
    safe = {pid: _guardrails_hold(v, v0, spec) for pid, v in values.items()}
    return TruthTable(values=values, safe=safe, baseline_id=baseline.policy_id)
