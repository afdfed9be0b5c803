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
from dataclasses import dataclass

import numpy as np

from .bounds import (
    LowerBoundTable,
    asymptotic_bounds,
    bernstein_widths,
    bonferroni_normal_bounds,
    finite_bounds,
    margins,
    normal_widths,
)
from .classstats import class_stats
from .core import (
    Dataset,
    Hyperparams,
    Policy,
    SafetySpec,
    TabularPropensity,
    normalize_seed,
    seed_tuple,
    validate_dataset,
)
from .estimators import influence_table, mode_scores, policy_scores

__all__ = ["SplitPlan", "BaselineTrace", "hcpi_run", "bonferroni_run"]


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint learning/testing row partition with |learning| = floor(rho n)."""

    rho: float
    learning: tuple[int, ...]
    testing: tuple[int, ...]

    def __post_init__(self):
        if not set(self.learning).isdisjoint(self.testing):
            raise ValueError("learning and testing rows must be disjoint")


@dataclass(frozen=True)
class BaselineTrace:
    method: str
    mode: str
    n: int
    class_size: int
    baseline_id: str
    spec: SafetySpec
    folds: int
    n_sim: int
    split: SplitPlan | None
    selected_id: str | None
    selected_score: float | None
    final: LowerBoundTable
    goal_values: dict
    baseline_goal_value: float
    certified_ids: tuple[str, ...]
    decision: str
    is_baseline: bool
    seed: tuple

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "method": self.method,
            "mode": self.mode,
            "n": self.n,
            "class_size": self.class_size,
            "baseline": self.baseline_id,
            "spec": self.spec.to_json_dict(),
            "hyper": {"folds": self.folds, "n_sim": self.n_sim},
            "pruned": [],
            "final_bounds": self.final.to_json_dict(),
            "goal_values": dict(self.goal_values),
            "baseline_goal_value": self.baseline_goal_value,
            "certified": list(self.certified_ids),
            "decision": self.decision,
            "is_baseline": self.is_baseline,
            "seed": list(self.seed),
        }
        if self.split is not None:
            out["split"] = {
                "rho": self.split.rho,
                "learning": list(self.split.learning),
                "testing_count": len(self.split.testing),
            }
        if self.selected_id is not None:
            out["learning"] = {"selected": self.selected_id, "score": self.selected_score}
        return out


def _subset(dataset: Dataset, rows: np.ndarray) -> Dataset:
    prop = dataset.propensity
    if isinstance(prop, TabularPropensity):
        prop = TabularPropensity(prop.values[rows])
    return Dataset(
        dataset.covariates[rows], dataset.actions[rows], dataset.outcomes[rows], prop
    )


def hcpi_run(
    dataset: Dataset,
    policies: list[Policy],
    spec: SafetySpec,
    baseline: Policy,
    rho: float,
    mode: str,
    hyper: Hyperparams = Hyperparams(),
    seed=None,
) -> BaselineTrace:
    """Algorithm: split rows into learning (floor(rho n)) and testing
    complements; on the learning split score every candidate by
    f(pi) = 1[M'(pi) >= 0] Vg_L(pi) + 1[M'(pi) < 0] M'(pi) and take the
    argmax; on the testing split re-certify the single selected policy
    jointly over S at level alpha; return it iff the minimum bound is
    strictly positive, else the baseline.

    Learning-split bounds use level alpha with the full-class Bernstein
    correction (finite mode) or a per-policy Bonferroni-normal correction
    over S only (asymptotic mode). Selection needs no validity on its own;
    the held-out test split supplies the guarantee, so no stability
    correction applies on either side of the split.
    """
    validate_dataset(dataset)
    if mode not in ("finite", "asymptotic"):
        raise ValueError("mode must be 'finite' or 'asymptotic'")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    candidates = [p for p in policies if p.policy_id != baseline.policy_id]
    if not candidates:
        raise ValueError("empty policy class")
    n = dataset.n
    n_learn = int(math.floor(rho * n))
    if n_learn < 1 or n - n_learn < 1:
        raise ValueError("both splits must be nonempty")
    seed_seq = normalize_seed(seed if seed is not None else hyper.seed)
    rng_split, rng_nuis_l, rng_nuis_t, rng_supt = [
        np.random.default_rng(s) for s in seed_seq.spawn(4)
    ]

    perm = rng_split.permutation(n)
    learn_rows = np.sort(perm[:n_learn])
    test_rows = np.sort(perm[n_learn:])
    plan = SplitPlan(rho=rho, learning=tuple(learn_rows.tolist()), testing=tuple(test_rows.tolist()))
    data_l = _subset(dataset, learn_rows)
    data_t = _subset(dataset, test_rows)

    if mode == "asymptotic" and (n_learn < hyper.folds or n - n_learn < hyper.folds):
        raise ValueError("split too small for cross-fitting folds")

    scores_l = mode_scores(data_l, mode, hyper.folds, rng_nuis_l)
    stats = class_stats(data_l, candidates, spec, baseline, scores_l)
    if mode == "finite":
        widths = bernstein_widths(
            stats.variances, spec, spec.alpha, len(candidates), data_l.n, data_l.propensity.c
        )
    else:
        widths = normal_widths(stats.variances, spec, spec.alpha, 1, data_l.n)
    learn_margins = margins(stats.means, widths, spec).min(axis=1)
    f = np.where(learn_margins >= 0.0, stats.goal, learn_margins)
    pick = int(np.argmax(f))
    selected = candidates[pick]

    scores_t = mode_scores(data_t, mode, hyper.folds, rng_nuis_t)
    table = influence_table(data_t, scores_t, [selected], spec, baseline)
    if mode == "finite":
        final = finite_bounds(table, spec, spec.alpha, assumed_class_size=1)
    else:
        final = asymptotic_bounds(table, spec, spec.alpha, hyper.n_sim, rng_supt)
    passed = final.min_margin(selected.policy_id) > 0.0
    decision = selected.policy_id if passed else baseline.policy_id

    goal_values = {
        selected.policy_id: float(
            policy_scores(scores_t, selected, data_t.covariates)[:, spec.goal - 1].mean()
        )
    }
    base_goal = float(
        policy_scores(scores_t, baseline, data_t.covariates)[:, spec.goal - 1].mean()
    )

    return BaselineTrace(
        method=f"ds-{int(round(rho * 100))}",
        mode=mode,
        n=n,
        class_size=len(candidates),
        baseline_id=baseline.policy_id,
        spec=spec,
        folds=hyper.folds,
        n_sim=hyper.n_sim,
        split=plan,
        selected_id=selected.policy_id,
        selected_score=float(f[pick]),
        final=final,
        goal_values=goal_values,
        baseline_goal_value=base_goal,
        certified_ids=(selected.policy_id,) if passed else (),
        decision=decision,
        is_baseline=decision == baseline.policy_id,
        seed=seed_tuple(seed_seq),
    )


def bonferroni_run(
    dataset: Dataset,
    policies: list[Policy],
    spec: SafetySpec,
    baseline: Policy,
    mode: str,
    hyper: Hyperparams = Hyperparams(),
    seed=None,
) -> BaselineTrace:
    """Full-data union correction: every (policy, guardrail) bound at
    per-test level alpha / (|Pi| |S|); the decision is the goal-value
    argmax among policies whose every margin is strictly positive, or the
    baseline when none certify.
    """
    validate_dataset(dataset)
    if mode not in ("finite", "asymptotic"):
        raise ValueError("mode must be 'finite' or 'asymptotic'")
    candidates = [p for p in policies if p.policy_id != baseline.policy_id]
    if not candidates:
        raise ValueError("empty policy class")
    seed_seq = normalize_seed(seed if seed is not None else hyper.seed)
    (nuis_seed,) = seed_seq.spawn(1)
    scores = mode_scores(dataset, mode, hyper.folds, np.random.default_rng(nuis_seed))
    stats = class_stats(dataset, candidates, spec, baseline, scores)
    m = len(candidates)
    if mode == "finite":
        widths = bernstein_widths(
            stats.variances, spec, spec.alpha, m, dataset.n, dataset.propensity.c
        )
    else:
        widths = normal_widths(stats.variances, spec, spec.alpha, m, dataset.n)
    min_margins = margins(stats.means, widths, spec).min(axis=1)

    certified_idx = [i for i in range(m) if min_margins[i] > 0.0]
    decision = baseline.policy_id
    best = -math.inf
    pick = None
    for i in certified_idx:
        if stats.goal[i] > best:
            best = stats.goal[i]
            pick = i
    if pick is not None:
        decision = candidates[pick].policy_id

    # Trace bounds cover the certified set (plus the pick) only; the full
    # class would dominate the trace size.
    report = [candidates[i] for i in certified_idx]
    if report:
        table = influence_table(dataset, scores, report, spec, baseline)
        if mode == "finite":
            final = finite_bounds(table, spec, spec.alpha, assumed_class_size=m)
        else:
            final = bonferroni_normal_bounds(table, spec, spec.alpha, assumed_class_size=m)
    else:
        final = LowerBoundTable(entries=(), method="bonferroni", level=spec.alpha, meta={})

    goal_values = {candidates[i].policy_id: float(stats.goal[i]) for i in certified_idx}
    base_goal = float(
        policy_scores(scores, baseline, dataset.covariates)[:, spec.goal - 1].mean()
    )

    return BaselineTrace(
        method="bonferroni",
        mode=mode,
        n=dataset.n,
        class_size=m,
        baseline_id=baseline.policy_id,
        spec=spec,
        folds=hyper.folds,
        n_sim=hyper.n_sim,
        split=None,
        selected_id=None,
        selected_score=None,
        final=final,
        goal_values=goal_values,
        baseline_goal_value=base_goal,
        certified_ids=tuple(candidates[i].policy_id for i in certified_idx),
        decision=decision,
        is_baseline=decision == baseline.policy_id,
        seed=seed_tuple(seed_seq),
    )
