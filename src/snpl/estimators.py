"""Policy-value estimation: IPW and cross-fitted doubly-robust scores, the
per-observation influence terms for weighted value differences, their
empirical variances and covariances, and ``ClassStats``, the one record of
per-policy statistics that every bound table is built from.

Per-arm score arrays have shape (n, K, d_Y):
    IPW:  s[i,k,j] = 1[A_i=k+1] * Y_ij / e(k+1, X_i)
    DR:   s[i,k,j] = 1[A_i=k+1] * (Y_ij - mu_j(k+1, X_i)) / e(k+1, X_i)
                     + mu_j(k+1, X_i)
and psi_j(O_i, pi) = sum_k pi(k, X_i) * s[i,k,j].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Policy, SafetySpec

__all__ = [
    "NuisanceModel",
    "ClassStats",
    "InfluenceTable",
    "fit_nuisance",
    "arm_scores",
    "policy_scores",
    "influence_table",
    "empirical_covariance",
]

RIDGE_PENALTY = 1e-8


@dataclass(frozen=True)
class NuisanceModel:
    """Cross-fitted linear outcome regressions mu_j(k, x).

    coef has shape (F, K, d_Y, d_X + 1) with the intercept first;
    fold_of[i] is the fold holding observation i (its model was trained on
    the complement); mu caches the out-of-fold predictions, clipped to [0,1].
    """

    coef: np.ndarray
    fold_of: np.ndarray
    mu: np.ndarray

    @property
    def folds(self) -> int:
        return self.coef.shape[0]


def fit_nuisance(dataset: Dataset, folds: int, rng: np.random.Generator) -> NuisanceModel:
    """OLS of each outcome on [1, X], per arm, per fold-complement.

    Fold assignment is a uniform random permutation split into near-equal
    blocks. The rows are read once: each (fold, arm) block of [1, X, Y] is
    reduced to the R factor of its QR decomposition, and the model of a
    fold-complement is the least-squares solution on the complement's
    stacked R factors, a system of at most (F-1)(d+1+d_Y) rows. Since
    [Z Y] and the stacked factors have the same Gram matrix, this is the
    training-row OLS problem with the same singular values, solved without
    forming Z'Z (which would square the condition number). The cost is
    O(n (d+1+d_Y)^2) for the factors, once, plus a solve per cell that does
    not grow with n.

    A cell's rank is counted as in ``lstsq`` on its m training rows: singular
    values above eps * max(m, d+1) times the largest. A singular design
    matrix falls back to ridge with penalty 1e-8 (warned); an empty (arm,
    fold-complement) training cell is an error.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    n, K, d_Y = dataset.n, dataset.n_actions, dataset.n_outcomes
    if folds > n:
        raise ValueError("more folds than observations")
    X, A, Y = dataset.covariates, dataset.actions, dataset.outcomes
    p = X.shape[1] + 1

    fold_of = np.empty(n, dtype=np.int64)
    for f, block in enumerate(np.array_split(rng.permutation(n), folds)):
        fold_of[block] = f
    # Rows grouped by cell g = (fold, arm) = f*K + k, in index order within
    # a cell; a key of at most 16 bits makes the stable sort a radix sort.
    cell = (fold_of * K + A - 1).astype(np.min_scalar_type(folds * K - 1))
    order = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=folds * K)
    edge = np.concatenate([[0], np.cumsum(counts)])
    M = np.empty((n, p + d_Y))  # [1, X, Y], rows in cell order
    M[:, 0] = 1.0
    M[:, 1:p] = X.take(order, axis=0)
    M[:, p:] = Y.take(order, axis=0)
    R = [np.linalg.qr(M[edge[g] : edge[g + 1]], mode="r") for g in range(folds * K)]

    coef = np.empty((folds, K, d_Y, p))
    pred = np.empty((n, K, d_Y))  # rows in cell order
    eps = np.finfo(float).eps
    for f in range(folds):
        for k in range(K):
            rows = counts[k::K].sum() - counts[f * K + k]
            if rows == 0:
                raise ValueError(f"empty training cell: fold {f}, arm {k + 1}")
            S = np.vstack([R[g * K + k] for g in range(folds) if g != f])
            Sz, Sy = S[:, :p], S[:, p:]
            beta, _, rank, _ = np.linalg.lstsq(Sz, Sy, rcond=eps * max(rows, p))
            if rank < p:
                warnings.warn(
                    f"singular design matrix (fold {f}, arm {k + 1}); "
                    f"using ridge penalty {RIDGE_PENALTY}"
                )
                G = Sz.T @ Sz + RIDGE_PENALTY * np.eye(p)
                beta = np.linalg.solve(G, Sz.T @ Sy)
            coef[f, k] = beta.T
        hold = slice(edge[f * K], edge[(f + 1) * K])
        pred[hold] = (M[hold, :p] @ coef[f].reshape(K * d_Y, p).T).reshape(-1, K, d_Y)
    place = np.empty(n, dtype=np.int64)  # row i sits at place[i] in cell order
    place[order] = np.arange(n)
    mu = np.clip(pred, 0.0, 1.0, out=pred).take(place, axis=0)
    return NuisanceModel(coef=coef, fold_of=fold_of, mu=mu)


def arm_scores(dataset: Dataset, nuisance: NuisanceModel | None = None) -> np.ndarray:
    """(n, K, d_Y) per-arm scores: IPW without a nuisance model, DR with one."""
    n, K = dataset.n, dataset.n_actions
    hit = np.zeros((n, K))
    hit[np.arange(n), dataset.actions - 1] = 1.0
    weight = hit / dataset.propensities
    if nuisance is None:
        return weight[:, :, None] * dataset.outcomes[:, None, :]
    resid = dataset.outcomes[:, None, :] - nuisance.mu
    return weight[:, :, None] * resid + nuisance.mu


def mode_scores(
    dataset: Dataset, mode: str, folds: int, rng: np.random.Generator
) -> np.ndarray:
    """The per-arm scores a run mode certifies with: IPW in ``finite`` mode;
    in ``asymptotic`` mode DR against a nuisance cross-fitted on ``folds``
    folds, drawn from rng."""
    nuisance = fit_nuisance(dataset, folds, rng) if mode == "asymptotic" else None
    return arm_scores(dataset, nuisance)


def policy_scores(scores: np.ndarray, policy: Policy, covariates: np.ndarray) -> np.ndarray:
    """psi_j(O_i, pi) for all outcomes: contracts the arm axis with pi(.|x)."""
    P = policy.prob_matrix(covariates)
    return np.einsum("nk,nkj->nj", P, scores)


@dataclass(frozen=True, eq=False)
class ClassStats:
    """Per-policy statistics of the influence columns d_j(O_i, pi), in
    ``policy_ids`` order: means and (1/n)-normalized variances shaped
    (|Pi|, |S|), estimated goal values shaped (|Pi|,), and the baseline's
    goal value. ``bounds.union_table`` builds bound tables from them."""

    policy_ids: tuple[str, ...]
    means: np.ndarray
    variances: np.ndarray
    goal: np.ndarray
    baseline_goal: float


@dataclass(frozen=True, eq=False)
class InfluenceTable(ClassStats):
    """The statistics of a policy list plus its per-observation weighted
    differences d_j(O_i, pi): values has shape (n, |Pi| * |S|), columns in
    order (p)|S| + s (policies indexed 0-based here; the 1-based index map
    is (p-1)|S| + s), and means and variances are its column moments. c
    and n carry the dataset context the bound constructions need."""

    values: np.ndarray
    spec: SafetySpec
    baseline_id: str
    c: float

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def policy_count(self) -> int:
        return len(self.policy_ids)


def _contractions(
    scores: np.ndarray,
    policies: list[Policy],
    covariates: np.ndarray,
    spec: SafetySpec,
    psi0: np.ndarray,
):
    """Yields, per policy, its influence columns d_j(O_i, pi) =
    psi_j(O_i, pi) - (1 + w_j) psi_j(O_i, pi0), shaped (n, |S|), against the
    baseline's scores psi0, and its estimated goal value."""
    jdx = np.asarray(spec.guardrails, dtype=np.int64) - 1
    w = np.asarray(spec.weights)
    base = psi0[:, jdx]
    for policy in policies:
        psi = policy_scores(scores, policy, covariates)
        yield psi[:, jdx] - (1.0 + w) * base, psi[:, spec.goal - 1].mean()


def influence_table(
    dataset: Dataset,
    scores: np.ndarray,
    policies: list[Policy],
    spec: SafetySpec,
    baseline: Policy,
) -> InfluenceTable:
    """Builds d_j(O_i, pi) = psi_j(O_i, pi) - (1 + w_j) psi_j(O_i, pi0)
    from the dataset's (n, K, d_Y) per-arm scores for every (policy,
    guardrail) pair, with its column means D_j(pi) = V_j(pi) - (1 + w_j)
    V_j(pi0) and variances, and the goal values of every policy and of the
    baseline; each policy is contracted once.
    """
    S = spec.s_count
    psi0 = policy_scores(scores, baseline, dataset.covariates)
    values = np.empty((dataset.n, len(policies) * S))
    goal = np.empty(len(policies))
    columns = _contractions(scores, policies, dataset.covariates, spec, psi0)
    for p, (d, g) in enumerate(columns):
        values[:, p * S : (p + 1) * S] = d
        goal[p] = g
    means = values.mean(axis=0)
    variances = np.mean((values - means) ** 2, axis=0)
    return InfluenceTable(
        policy_ids=tuple(pol.policy_id for pol in policies),
        means=means.reshape(-1, S),
        variances=variances.reshape(-1, S),
        goal=goal,
        baseline_goal=float(psi0[:, spec.goal - 1].mean()),
        values=values,
        spec=spec,
        baseline_id=baseline.policy_id,
        c=dataset.c,
    )


def empirical_covariance(table: InfluenceTable) -> np.ndarray:
    """(1/n)-normalized covariance of the influence columns."""
    if table.n < 2:
        raise ValueError("covariance requires n >= 2")
    centered = table.values - table.means.reshape(-1)
    return centered.T @ centered / table.n
