"""Policy-value estimation: IPW and cross-fitted doubly-robust scores, the
per-observation influence terms for weighted value differences, and
``ClassStats``, the one record of per-policy statistics that every bound
table is built from, for a policy list (``influence_table``, which keeps
the per-row terms too) or a whole class at once (``class_stats``, whose
per-policy path shares ``influence_table``'s moment formula). A record
carries the spec, the baseline id, and the n and propensity floor c of the
rows it was computed on, so a bound builder needs only the record.

Per-arm score arrays have shape (n, K, d_Y):
    IPW:  s[i,k,j] = 1[A_i=k+1] * Y_ij / e(k+1, X_i)
    DR:   s[i,k,j] = 1[A_i=k+1] * (Y_ij - mu_j(k+1, X_i)) / e(k+1, X_i)
                     + mu_j(k+1, X_i)
and psi_j(O_i, pi) = sum_k pi(k, X_i) * s[i,k,j].
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Policy, SafetySpec, ThresholdPolicy

__all__ = [
    "NuisanceModel",
    "ClassStats",
    "InfluenceTable",
    "fit_nuisance",
    "arm_scores",
    "policy_scores",
    "influence_table",
    "class_stats",
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
    goal value; with the spec and baseline id they were taken against and
    the row count n and propensity floor c of their dataset, the context
    ``bounds.union_table`` builds bound tables from."""

    policy_ids: tuple[str, ...]
    means: np.ndarray
    variances: np.ndarray
    goal: np.ndarray
    baseline_goal: float
    spec: SafetySpec
    baseline_id: str
    n: int
    c: float

    @property
    def policy_count(self) -> int:
        return len(self.policy_ids)


@dataclass(frozen=True, eq=False)
class InfluenceTable(ClassStats):
    """The statistics of a policy list plus its per-observation weighted
    differences d_j(O_i, pi): values has shape (n, |Pi| * |S|), columns in
    order (p)|S| + s (policies indexed 0-based here; the 1-based index map
    is (p-1)|S| + s). means and variances are the moments of each policy's
    |S| columns, computed on that policy's block before it is copied in."""

    values: np.ndarray


def _check_spec_fits(spec: SafetySpec, dataset: Dataset) -> None:
    """Raises ValueError naming the first goal or guardrail index beyond the
    dataset's outcome columns."""
    for role, j in (("goal", spec.goal), *(("guardrail", g) for g in spec.guardrails)):
        if j > dataset.n_outcomes:
            raise ValueError(f"{role} index {j} exceeds the {dataset.n_outcomes} outcomes")


def _policy_moments(
    scores: np.ndarray,
    policies: list[Policy],
    covariates: np.ndarray,
    spec: SafetySpec,
    psi0: np.ndarray,
):
    """Yields, per policy, its influence columns d_j(O_i, pi) =
    psi_j(O_i, pi) - (1 + w_j) psi_j(O_i, pi0), shaped (n, |S|), against the
    baseline's scores psi0; their means and (1/n)-normalized variances, a
    two-pass formula on that block; and the policy's estimated goal value.
    This is the one per-policy moment formula: numpy sums a narrow block
    pairwise, so its means are more accurate than a wide matrix's."""
    jdx = np.asarray(spec.guardrails, dtype=np.int64) - 1
    w = np.asarray(spec.weights)
    base = psi0[:, jdx]
    for policy in policies:
        psi = policy_scores(scores, policy, covariates)
        d = psi[:, jdx] - (1.0 + w) * base
        mean = d.mean(axis=0)
        yield d, mean, np.mean((d - mean) ** 2, axis=0), psi[:, spec.goal - 1].mean()


def influence_table(
    dataset: Dataset,
    scores: np.ndarray,
    policies: list[Policy],
    spec: SafetySpec,
    baseline: Policy,
) -> InfluenceTable:
    """Builds d_j(O_i, pi) = psi_j(O_i, pi) - (1 + w_j) psi_j(O_i, pi0)
    from the dataset's (n, K, d_Y) per-arm scores for every (policy,
    guardrail) pair, with the means D_j(pi) = V_j(pi) - (1 + w_j) V_j(pi0)
    and variances of each policy's columns, and the goal values of every
    policy and of the baseline; each policy is contracted once. This is the
    per-policy reference ``class_stats`` is checked against: its loop path
    gives the same bits.
    """
    _check_spec_fits(spec, dataset)
    P, S = len(policies), spec.s_count
    psi0 = policy_scores(scores, baseline, dataset.covariates)
    values = np.empty((dataset.n, P * S))
    means, variances, goal = np.empty((P, S)), np.empty((P, S)), np.empty(P)
    moments = _policy_moments(scores, policies, dataset.covariates, spec, psi0)
    for p, (d, mean, variance, g) in enumerate(moments):
        values[:, p * S : (p + 1) * S] = d
        means[p], variances[p], goal[p] = mean, variance, g
    return InfluenceTable(
        policy_ids=tuple(pol.policy_id for pol in policies),
        means=means,
        variances=variances,
        goal=goal,
        baseline_goal=float(psi0[:, spec.goal - 1].mean()),
        spec=spec,
        baseline_id=baseline.policy_id,
        n=dataset.n,
        c=dataset.c,
        values=values,
    )


@dataclass(frozen=True, eq=False)
class _ClassPlan:
    """The grouping of one candidate list (see ``class_stats``); each family
    also holds a member to evaluate its feature with."""

    candidates: tuple[Policy, ...]
    families: tuple[tuple[np.ndarray, np.ndarray, ThresholdPolicy], ...]
    rest: list[int]
    policy_ids: tuple[str, ...]


# The one slot: the plan of the last candidate list ``class_stats`` saw.
_last_plan = _ClassPlan((), (), [], ())


def _class_plan(candidates: list[Policy]) -> _ClassPlan:
    """The plan of a candidate list, from the slot when it holds the same
    policy objects in the same order (by identity: ``==`` would call a
    policy's ``__eq__``)."""
    global _last_plan
    plan = _last_plan
    if len(plan.candidates) == len(candidates) and all(
        map(operator.is_, plan.candidates, candidates)
    ):
        return plan
    grouped: dict[str, list[int]] = {}
    rest: list[int] = []
    for i, pol in enumerate(candidates):
        if isinstance(pol, ThresholdPolicy):
            grouped.setdefault(pol.feature, []).append(i)
        else:
            rest.append(i)
    families = []
    for members in grouped.values():
        cutoffs = np.array([candidates[i].cutoff for i in members])
        order = np.argsort(cutoffs, kind="stable")
        members = np.asarray(members)[order]
        families.append((members, cutoffs[order], candidates[members[0]]))
    _last_plan = plan = _ClassPlan(
        tuple(candidates), tuple(families), rest, tuple(p.policy_id for p in candidates)
    )
    return plan


def class_stats(
    dataset: Dataset,
    candidates: list[Policy],
    spec: SafetySpec,
    baseline: Policy,
    scores: np.ndarray,
) -> ClassStats:
    """Statistics of every candidate, in candidate order.

    Threshold policies over two actions take a batched path: each feature is
    evaluated once per family, the rows are bucketed by the family's sorted
    cutoffs, and per-bucket sums give every cutoff's moments through prefix
    sums (treated side) and suffix sums (untreated side); it agrees with
    ``influence_table``, the per-policy reference, to rounding. Any other
    candidate takes the reference's own per-policy formula, so its
    statistics equal ``influence_table``'s bit for bit. Both paths sum the
    same per-row values d_i, so a candidate that matches the baseline on
    every row has exact-zero moments on a w = 0 guardrail either way, and
    rules that treat the same rows get identical statistics either way.

    The grouping does not depend on the data, so it is done once per class:
    a plan holds the families (members in cutoff order, sorted cutoffs),
    the indices of the other candidates and the policy ids, and is kept in
    one slot for the next call on the same policy objects, as every method
    of a replication makes. Policies are taken to be immutable. The slot
    holds a strong reference to its class and matches a call's candidates
    to it by identity, since a key made only of ``id``s could match a later
    class allocated at the same addresses. It holds one class at most, so no
    older class outlives the next call.
    """
    _check_spec_fits(spec, dataset)
    n, S = dataset.n, spec.s_count
    plan = _class_plan(candidates)
    families, rest = plan.families, plan.rest
    if scores.shape[1] != 2:
        families, rest = (), list(range(len(candidates)))

    X = dataset.covariates
    psi0 = policy_scores(scores, baseline, X)
    # Per-candidate sums of (d_1..d_S, d_1^2..d_S^2, goal score).
    sums = np.zeros((len(candidates), 2 * S + 1))
    if families:
        jdx = np.asarray(spec.guardrails, dtype=np.int64) - 1
        w = np.asarray(spec.weights)
        base = psi0[:, jdx]
        # Per arm, the summed quantities as contiguous rows (bincount reads
        # a contiguous weight vector without copying it).
        arm = []
        for k in (0, 1):
            D = scores[:, k, jdx] - (1.0 + w) * base
            arm.append(np.vstack([D.T, (D * D).T, scores[:, k, spec.goal - 1]]))
        earlier = []
        for members, cutoffs, member in families:
            values = member.feature_values(X)
            # Row i falls in bucket b_i = #{cutoffs <= g(x_i)}; the t-th
            # sorted cutoff treats exactly the rows with b_i <= t.
            bucket = np.searchsorted(cutoffs, values, side="right")
            nb = len(members) + 1
            count = np.cumsum(np.bincount(bucket, minlength=nb))[:-1]
            same, source = _coinciding(members, count, bucket, earlier)
            if not same.all():
                treated, untreated = (
                    np.stack(
                        [np.bincount(bucket, weights=row, minlength=nb) for row in a],
                        axis=1,
                    )
                    for a in arm
                )
                sums[members] = (
                    np.cumsum(treated, axis=0)[:-1]
                    + np.cumsum(untreated[::-1], axis=0)[::-1][1:]
                )
            sums[members[same]] = sums[source[same]]
            earlier.append((members, count, bucket))

    means = sums[:, :S] / n
    variances = np.maximum(sums[:, S : 2 * S] / n - means**2, 0.0)
    goal = sums[:, 2 * S] / n
    moments = _policy_moments(scores, [candidates[i] for i in rest], X, spec, psi0)
    for i, (_, mean, variance, g) in zip(rest, moments):
        means[i], variances[i], goal[i] = mean, variance, g
    return ClassStats(
        plan.policy_ids, means, variances, goal,
        float(psi0[:, spec.goal - 1].mean()), spec, baseline.policy_id, n, dataset.c,
    )


def _coinciding(
    members: np.ndarray, count: np.ndarray, bucket: np.ndarray, earlier: list
) -> tuple[np.ndarray, np.ndarray]:
    """Which rules of this family treat exactly the rows of some rule of an
    earlier family, and that rule's candidate index. Such rules take the
    earlier rule's sums, so coinciding rules (always-treat, never-treat,
    ...) get identical statistics, as in the per-policy loop, and a family
    whose rules all coincide needs no sums of its own. Rule t here treats
    the rows with bucket <= t; it coincides with the earlier family's rule
    u of the same treated count iff none of those rows has an
    earlier-family bucket above u."""
    same = np.zeros(len(members), dtype=bool)
    source = np.zeros(len(members), dtype=np.int64)
    for prev_members, prev_count, prev_bucket in earlier:
        top = np.full(len(members) + 1, -1)
        np.maximum.at(top, bucket, prev_bucket)
        top = np.maximum.accumulate(top)[:-1]
        pos = np.minimum(np.searchsorted(prev_count, count), len(prev_count) - 1)
        hit = ~same & (prev_count[pos] == count) & (top <= pos)
        source[hit] = prev_members[pos[hit]]
        same |= hit
    return same, source

