"""Comparison methods: the data-splitting high-confidence policy
improvement baseline and the full-class Bonferroni correction.

Data splitting selects on a learning fraction rho of the rows and
certifies the single selected policy on the held-out complement at level
alpha; no stability correction applies since the certification data never
touched selection. Bonferroni tests every (policy, guardrail) pair at
per-test level alpha / (|Pi| |S|) on the full data.
"""

from __future__ import annotations

import math

import numpy as np

from .algorithm import final_certify
from .bounds import LowerBoundTable, check_mode, union_table
from .core import (
    Dataset,
    Hyperparams,
    Policy,
    SafetySpec,
    Split,
    Trace,
    run_streams,
)
from .estimators import class_stats, influence_table, mode_scores

__all__ = ["hcpi_run", "bonferroni_run"]


def hcpi_run(
    dataset: Dataset,
    policies: list[Policy],
    spec: SafetySpec,
    baseline: Policy,
    mode: str,
    hyper: Hyperparams = Hyperparams(),
    seed=0,
    *,
    rho: float,
) -> Trace:
    """Algorithm: split rows into learning (floor(rho n)) and testing
    complements; on the learning split score every candidate by
    f(pi) = 1[M'(pi) >= 0] Vg_L(pi) + 1[M'(pi) < 0] M'(pi) and take the
    argmax; on the testing split re-certify the single selected policy
    jointly over S at level alpha (``final_certify``); return it iff the
    minimum bound is strictly positive, else the baseline.

    Learning-split bounds use level alpha with the full-class Bernstein
    correction (finite mode) or a per-policy Bonferroni-normal correction
    over S only (asymptotic mode). Selection needs no validity on its own;
    the held-out test split supplies the guarantee, so no stability
    correction applies on either side of the split.
    """
    check_mode(mode)
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    candidates = [p for p in policies if p.policy_id != baseline.policy_id]
    if not candidates:
        raise ValueError("empty policy class")
    n = dataset.n
    n_learn = int(math.floor(rho * n))
    if n_learn < 1 or n - n_learn < 1:
        raise ValueError("both splits must be nonempty")
    recorded_seed, (rng_split, rng_nuis_l, rng_nuis_t, rng_supt) = run_streams(seed, 4)

    learn = np.zeros(n, dtype=bool)
    learn[rng_split.permutation(n)[:n_learn]] = True
    learn_rows, test_rows = np.flatnonzero(learn), np.flatnonzero(~learn)
    data_l = Dataset._of_rows(dataset, learn_rows)
    data_t = Dataset._of_rows(dataset, test_rows)

    if mode == "asymptotic" and (n_learn < hyper.folds or n - n_learn < hyper.folds):
        raise ValueError("split too small for cross-fitting folds")

    scores_l = mode_scores(data_l, mode, hyper.folds, rng_nuis_l)
    stats = class_stats(data_l, candidates, spec, baseline, scores_l)
    class_size = len(candidates) if mode == "finite" else 1
    learn_table = union_table(stats, mode, spec.alpha, class_size)
    learn_margins = learn_table.margins.min(axis=1)
    f = np.where(learn_margins >= 0.0, stats.goal, learn_margins)
    pick = int(np.argmax(f))
    selected = candidates[pick]

    scores_t = mode_scores(data_t, mode, hyper.folds, rng_nuis_t)
    table = influence_table(data_t, scores_t, [selected], spec, baseline)
    final, decision, goal_values = final_certify(table, mode, spec.alpha, hyper.n_sim, rng_supt)

    return Trace(
        method=f"ds-{int(round(rho * 100))}",
        mode=mode,
        n=n,
        class_size=len(candidates),
        baseline_id=baseline.policy_id,
        spec=spec,
        folds=hyper.folds,
        n_sim=hyper.n_sim,
        pruned_ids=(),
        final=final,
        goal_values=goal_values,
        baseline_goal_value=table.baseline_goal,
        decision=decision,
        seed=recorded_seed,
        split=Split(rho=rho, learning=learn_rows, testing=test_rows),
        selected_id=selected.policy_id,
        selected_score=float(f[pick]),
    )


def bonferroni_run(
    dataset: Dataset,
    policies: list[Policy],
    spec: SafetySpec,
    baseline: Policy,
    mode: str,
    hyper: Hyperparams = Hyperparams(),
    seed=0,
) -> Trace:
    """Full-data union correction: every (policy, guardrail) bound at
    per-test level alpha / (|Pi| |S|); the decision is the goal-value
    argmax among policies whose every margin is strictly positive, or the
    baseline when none certify.
    """
    check_mode(mode)
    candidates = [p for p in policies if p.policy_id != baseline.policy_id]
    if not candidates:
        raise ValueError("empty policy class")
    recorded_seed, (rng_nuisance,) = run_streams(seed, 1)
    scores = mode_scores(dataset, mode, hyper.folds, rng_nuisance)
    stats = class_stats(dataset, candidates, spec, baseline, scores)
    table = union_table(stats, mode, spec.alpha)
    certified_idx = np.flatnonzero(table.margins.min(axis=1) > 0.0).tolist()
    decision = baseline.policy_id
    if certified_idx:  # the first goal argmax among the certified
        decision = candidates[max(certified_idx, key=stats.goal.__getitem__)].policy_id

    # Trace bounds are the certified rows of the table decided on; the full
    # class would dominate the trace size.
    if certified_idx:
        final = table.take(certified_idx)
    else:
        final = LowerBoundTable.empty(spec, "bonferroni", spec.alpha)

    return Trace(
        method="bonferroni",
        mode=mode,
        n=dataset.n,
        class_size=len(candidates),
        baseline_id=baseline.policy_id,
        spec=spec,
        folds=hyper.folds,
        n_sim=hyper.n_sim,
        pruned_ids=(),
        final=final,
        goal_values={candidates[i].policy_id: float(stats.goal[i]) for i in certified_idx},
        baseline_goal_value=stats.baseline_goal,
        decision=decision,
        seed=recorded_seed,
    )
