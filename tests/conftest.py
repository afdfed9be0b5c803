import math

import numpy as np
import pytest

from snpl.core import Dataset, Policy, SafetySpec
from snpl.estimators import NuisanceModel, arm_scores, policy_scores
from snpl.synthetic import ThresholdPolicy


class UniformPolicy(Policy):
    """Plays every action with probability 1/K."""

    def __init__(self, n_actions: int, policy_id: str = "uniform"):
        self.n_actions = n_actions
        self.policy_id = policy_id

    def distribution(self, x: np.ndarray) -> np.ndarray:
        return np.full(self.n_actions, 1.0 / self.n_actions)

    def prob_matrix(self, covariates: np.ndarray) -> np.ndarray:
        n = np.asarray(covariates).shape[0]
        return np.full((n, self.n_actions), 1.0 / self.n_actions)


class LoggingPolicy(Policy):
    """The logging policy itself, pi(k, x_i) = e(k, x_i), given the (n, K)
    propensity array of a dataset; only defined at that dataset's rows."""

    def __init__(self, propensities: np.ndarray, policy_id: str = "logging"):
        self.propensities = propensities
        self.n_actions = propensities.shape[1]
        self.policy_id = policy_id

    def prob_matrix(self, covariates: np.ndarray) -> np.ndarray:
        if np.asarray(covariates).shape[0] != self.propensities.shape[0]:
            raise ValueError("logging propensities are tied to their dataset rows")
        return self.propensities


def ipw_value(dataset: Dataset, policy: Policy, outcome: int) -> float:
    """Inverse-propensity-weighted estimate of V_j(pi); outcome is 1-based."""
    scores = arm_scores(dataset)
    return float(policy_scores(scores, policy, dataset.covariates)[:, outcome - 1].mean())


def dr_value(dataset: Dataset, policy: Policy, outcome: int, nuisance: NuisanceModel) -> float:
    """Cross-fitted doubly-robust estimate of V_j(pi); outcome is 1-based."""
    scores = arm_scores(dataset, nuisance)
    return float(policy_scores(scores, policy, dataset.covariates)[:, outcome - 1].mean())


def mc_true_values(
    policies: list[ThresholdPolicy], n_draws: int, rng: np.random.Generator
) -> dict[str, tuple[float, float, float, float]]:
    """Monte Carlo cross-check of the closed forms of
    ``snpl.synthetic.true_values`` on one shared covariate draw:
    policy_id -> (V1, V2, se_V1, se_V2). Policies of a family share a
    sorted feature pass."""
    X = rng.random((n_draws, 3))
    x2 = X[:, 1]
    x13 = X[:, 0] * X[:, 2]
    out: dict[str, tuple[float, float, float, float]] = {}
    by_family: dict[str, list[ThresholdPolicy]] = {}
    for pol in policies:
        by_family.setdefault(pol.feature, []).append(pol)
    for members in by_family.values():
        vals = members[0].feature_values(X)
        order = np.argsort(vals, kind="stable")
        svals = vals[order]
        cum2 = np.concatenate([[0.0], np.cumsum(x2[order])])
        cum2sq = np.concatenate([[0.0], np.cumsum(x2[order] ** 2)])
        cum13 = np.concatenate([[0.0], np.cumsum(x13[order])])
        cum13sq = np.concatenate([[0.0], np.cumsum(x13[order] ** 2)])
        for pol in members:
            k = int(np.searchsorted(svals, pol.cutoff, side="left"))
            t1, t1sq = cum2[k] / n_draws, cum2sq[k] / n_draws
            t2, t2sq = cum13[k] / n_draws, cum13sq[k] / n_draws
            se1 = 0.5 * math.sqrt(max(t1sq - t1 * t1, 0.0) / n_draws)
            se2 = 0.5 * math.sqrt(max(t2sq - t2 * t2, 0.0) / n_draws)
            out[pol.policy_id] = (0.5 * (1.0 - t1), 0.5 * (1.0 + t2), se1, se2)
    return out


def make_dataset(X, A, Y, probs=(0.5, 0.5)) -> Dataset:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    A = np.asarray(A, dtype=np.int64)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] != X.shape[0]:
        Y = Y.T
    E = np.broadcast_to(np.asarray(probs, dtype=float), (X.shape[0], len(probs)))
    return Dataset(X, A, Y, E)


def random_dataset(rng: np.random.Generator, n: int, d_x: int = 2, d_y: int = 2,
                   probs=(0.5, 0.5)) -> Dataset:
    K = len(probs)
    X = rng.random((n, d_x))
    A = rng.integers(1, K + 1, size=n)
    Y = rng.random((n, d_y))
    return Dataset(X, A, Y, np.broadcast_to(np.asarray(probs, dtype=float), (n, K)))


def tabular_generate(n: int, rng: np.random.Generator) -> Dataset:
    """The synthetic outcome model of ``snpl.synthetic.generate`` under a
    covariate-dependent logging policy, P(A = 1 | x) = 0.3 + 0.4 x3, whose
    per-row propensities ride along with the data."""
    X = rng.random((n, 3))
    e1 = 0.3 + 0.4 * X[:, 2]
    treated = rng.random(n) < e1
    A = np.where(treated, 1, 2).astype(np.int64)
    y1 = rng.random(n) < 0.5 * (1.0 - treated * X[:, 1])
    y2 = rng.random(n) < 0.5 * (1.0 + treated * X[:, 0] * X[:, 2])
    Y = np.column_stack([y1, y2]).astype(float)
    return Dataset(X, A, Y, np.column_stack([e1, 1.0 - e1]))


def three_arm_generate(n: int, rng: np.random.Generator) -> Dataset:
    """K = 3 logged data with covariate-dependent logging propensities,
    e(x) = (0.2 + 0.2 x1, 0.3, 0.5 - 0.2 x1), and arm-dependent Bernoulli
    outcomes: arm 1 raises Y1 with x2 and lowers Y2 with x1, arm 3 lowers
    Y1 with x3."""
    X = rng.random((n, 3))
    e = np.column_stack([0.2 + 0.2 * X[:, 0], np.full(n, 0.3), 0.5 - 0.2 * X[:, 0]])
    A = 1 + (rng.random(n)[:, None] > np.cumsum(e, axis=1)).sum(axis=1)
    p1 = np.column_stack([0.4 + 0.4 * X[:, 1], np.full(n, 0.5), 0.5 - 0.2 * X[:, 2]])
    p2 = np.column_stack([0.6 - 0.3 * X[:, 0], 0.45 + 0.1 * X[:, 1], np.full(n, 0.5)])
    rows = np.arange(n)
    y1 = rng.random(n) < p1[rows, A - 1]
    y2 = rng.random(n) < p2[rows, A - 1]
    Y = np.column_stack([y1, y2]).astype(float)
    return Dataset(X, A.astype(np.int64), Y, e)


class BucketPolicy(Policy):
    """Three-arm rule: plays the distribution ``low`` where x_f < cutoff and
    ``high`` elsewhere. Not a ThresholdPolicy, so class statistics take the
    per-policy path."""

    n_actions = 3

    def __init__(self, feature: int, cutoff: float, low, high):
        self.feature, self.cutoff = feature, cutoff
        self.low, self.high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
        self.policy_id = f"x{feature + 1}<{cutoff:g}:{tuple(low)}/{tuple(high)}"

    def distribution(self, x: np.ndarray) -> np.ndarray:
        return self.low if x[self.feature] < self.cutoff else self.high

    def prob_matrix(self, covariates: np.ndarray) -> np.ndarray:
        below = np.asarray(covariates)[:, self.feature] < self.cutoff
        return np.where(below[:, None], self.low, self.high)


def three_arm_class() -> tuple[Policy, list[Policy]]:
    """The uniform baseline and six non-threshold rules, one stochastic."""
    one, two, three = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    policies = [BucketPolicy(1, c, two, one) for c in (0.25, 0.5, 0.75)]
    policies += [BucketPolicy(0, c, one, three) for c in (0.3, 0.6)]
    policies.append(BucketPolicy(2, 0.5, (0.5, 0.5, 0.0), (0.0, 0.5, 0.5)))
    return UniformPolicy(3), policies


@pytest.fixture
def spec_two_guardrails() -> SafetySpec:
    return SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, -0.1), alpha=0.1)
