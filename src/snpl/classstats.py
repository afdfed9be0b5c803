"""Class statistics: for every candidate of a policy class, the means and
(1/n)-normalized variances of its influence columns
d_j(O_i, pi) = psi_j(O_i, pi) - (1 + w_j) psi_j(O_i, pi0), and its estimated
goal value, as an ``estimators.ClassStats``, from which
``bounds.union_table`` builds the scan, selection and union bounds.

``class_stats`` serves a whole class at once. Threshold policies over two
actions take a batched path: each feature is evaluated once per family, the
rows are bucketed by the family's sorted cutoffs, and per-bucket sums give
every cutoff's moments through prefix sums (treated side) and suffix sums
(untreated side). Any other candidate takes ``policy_loop_stats``, the
per-policy reference. Both paths sum the same per-row values d_i, so a
candidate that matches the baseline on every row has exact-zero moments on a
w = 0 guardrail either way, and rules that treat the same rows get identical
statistics either way.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, Policy, SafetySpec
from .estimators import ClassStats, _contractions, policy_scores
from .synthetic import ThresholdPolicy

__all__ = ["class_stats", "policy_loop_stats"]


def policy_loop_stats(
    dataset: Dataset,
    candidates: list[Policy],
    spec: SafetySpec,
    baseline: Policy,
    scores: np.ndarray,
) -> ClassStats:
    """Reference path: one policy_scores evaluation per candidate."""
    psi0 = policy_scores(scores, baseline, dataset.covariates)
    return _loop_stats(dataset, candidates, spec, scores, psi0)


def _loop_stats(
    dataset: Dataset,
    candidates: list[Policy],
    spec: SafetySpec,
    scores: np.ndarray,
    psi0: np.ndarray,
) -> ClassStats:
    """The per-policy loop against the baseline's scores psi0."""
    means = np.empty((len(candidates), spec.s_count))
    variances = np.empty((len(candidates), spec.s_count))
    goal = np.empty(len(candidates))
    columns = _contractions(scores, candidates, dataset.covariates, spec, psi0)
    for i, (d, g) in enumerate(columns):
        mu = d.mean(axis=0)
        means[i] = mu
        variances[i] = np.mean((d - mu) ** 2, axis=0)
        goal[i] = g
    return ClassStats(
        tuple(p.policy_id for p in candidates), means, variances, goal,
        float(psi0[:, spec.goal - 1].mean()),
    )


def class_stats(
    dataset: Dataset,
    candidates: list[Policy],
    spec: SafetySpec,
    baseline: Policy,
    scores: np.ndarray,
) -> ClassStats:
    """Statistics of every candidate, in candidate order: batched per
    feature family for two-action threshold policies, the per-policy loop
    for the rest."""
    n, S = dataset.n, spec.s_count
    families: dict[str, list[int]] = {}
    rest: list[int] = []
    for i, pol in enumerate(candidates):
        if isinstance(pol, ThresholdPolicy) and scores.shape[1] == 2:
            families.setdefault(pol.feature, []).append(i)
        else:
            rest.append(i)

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
        for members in families.values():
            cutoffs = np.array([candidates[i].cutoff for i in members])
            order = np.argsort(cutoffs, kind="stable")
            members = np.asarray(members)[order]
            values = candidates[members[0]].feature_values(X)
            # Row i falls in bucket b_i = #{cutoffs <= g(x_i)}; the t-th
            # sorted cutoff treats exactly the rows with b_i <= t.
            bucket = np.searchsorted(cutoffs[order], values, side="right")
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
    if rest:
        ref = _loop_stats(dataset, [candidates[i] for i in rest], spec, scores, psi0)
        means[rest], variances[rest], goal[rest] = ref.means, ref.variances, ref.goal
    return ClassStats(
        tuple(p.policy_id for p in candidates), means, variances, goal,
        float(psi0[:, spec.goal - 1].mean()),
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
