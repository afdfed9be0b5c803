"""The noisy safe policy learning loop: a sparse-vector-technique scan over
the candidate class, joint re-certification of the pruned set, and a
select-then-gate decision (the pruned goal argmax is returned only when its
own bounds certify).

Mode ``finite`` pairs the IPW estimator with the empirical-Bernstein bounds;
mode ``asymptotic`` pairs the cross-fitted DR estimator with sup-t bounds
(the pairing lives in ``bounds``). Inside the loop, every candidate's
margin comes from the mode's union-corrected table at |Pi~| = eta
(Bernstein in finite mode, Bonferroni-normal in asymptotic mode), the one
in-loop bound whose replace-one-row sensitivity B calibrates.

Cost: the margins of the whole class come from one
``estimators.class_stats`` call before the scan, which for threshold classes
is O(n log |Pi| + |Pi|) per feature family and for other classes one O(n)
pass per policy; each scan step is then O(1). Grouping the class into
feature families and bucketing the rows by each family's cutoffs happen
once per dataset: the grouping is kept with the dataset, so ``snpl`` and
``bonferroni`` share it, and a ``ds-*`` split side, which is not checked
again either, takes its parent's and indexes the buckets at its rows.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import LowerBoundTable, check_mode, joint_bounds, union_table
from .core import (
    Dataset,
    Hyperparams,
    Policy,
    SafetySpec,
    ScanRecord,
    Svt,
    Trace,
    run_streams,
)
from .estimators import InfluenceTable, class_stats, influence_table, mode_scores
from .stability import b_asymp, b_finite, check_alpha_prime, delta_star, eta_heuristic, laplace

__all__ = ["snpl_run", "final_certify"]


def final_certify(
    table: InfluenceTable, mode: str, level: float, n_sim: int, rng=None
) -> tuple[LowerBoundTable, str, dict]:
    """The select-then-gate step of snpl and of data splitting: the mode's
    joint bounds over exactly the table's policies x S columns at the given
    level (sup-t from n_sim draws of rng in asymptotic mode), then the
    policy with the largest estimated goal value (first-listed on ties) is
    the sole candidate, and it is returned only when every one of its
    margins is strictly positive; otherwise the table's baseline. Returns
    (bounds, decision_id, goal_values).

    Bounds cover every listed policy, so ``bounds.certified_ids()`` names
    each policy that would certify on its own, but no policy other than the
    goal argmax is ever returned.
    """
    if not table.policy_ids:
        return LowerBoundTable.empty(table.spec, mode, level), table.baseline_id, {}
    bt = joint_bounds(table, mode, level, n_sim, rng)
    goal_values = dict(zip(table.policy_ids, table.goal.tolist()))
    pick = table.policy_ids[int(np.argmax(table.goal))]
    decision = pick if bt.min_margin(pick) > 0.0 else table.baseline_id
    return bt, decision, goal_values


def snpl_run(
    dataset: Dataset,
    policies: list[Policy],
    spec: SafetySpec,
    baseline: Policy,
    mode: str,
    hyper: Hyperparams = Hyperparams(),
    seed=0,
) -> Trace:
    """Runs the full procedure and returns its trace.

    Steps: resolve delta* and alpha'(delta*); draw one noisy threshold
    v ~ Lap(2 B eta / epsilon); scan the class in declared order (skipping
    the baseline), admitting candidates whose noisy margin clears v, at most
    eta of them; re-certify the admitted set jointly at alpha'(delta*);
    return the admitted policy with the best estimated goal value if its own
    bounds certify, else the baseline.
    """
    check_mode(mode)
    if len(policies) == 0:
        raise ValueError("empty policy class")
    # Four streams, the third unused: the final certification draws from
    # the fourth, so a seed's z* matches the traces already recorded for it.
    recorded_seed, (rng_nuisance, rng_svt, _, rng_final) = run_streams(seed, 4)
    n = dataset.n
    candidates = [p for p in policies if p.policy_id != baseline.policy_id]

    epsilon = hyper.gamma / math.sqrt(n)
    dstar, aprime = delta_star(spec.alpha, n, epsilon)

    if hyper.eta is not None:
        eta, eta_source = int(hyper.eta), "user"
    else:
        eta = eta_heuristic(spec.alpha, aprime, max(len(candidates), 1), spec.s_count, hyper.p)
        eta_source = "heuristic"
    check_alpha_prime(aprime, eta, spec.s_count)

    xi = (2.0 + max(spec.weights)) / dataset.c
    if mode == "finite":
        floor = b_finite(n, xi, aprime)
    else:
        floor = b_asymp(n, xi, aprime, eta, spec.s_count)
    if hyper.B is not None:
        if hyper.B < floor - 1e-12:
            raise ValueError(f"B={hyper.B} is below the sensitivity floor {floor}")
        B = float(hyper.B)
    else:
        B = floor

    threshold_scale = 2.0 * B * eta / epsilon
    query_scale = 4.0 * B * eta / epsilon

    scores = mode_scores(dataset, mode, hyper.folds, rng_nuisance)

    if candidates:
        # Fixed-width in-loop bounds: |Pi~| = eta whatever the pruned set.
        stats = class_stats(dataset, candidates, spec, baseline, scores)
        scan_table = union_table(stats, mode, aprime, eta)
        scan_margins = scan_table.margins.min(axis=1)

    # SVT scan: one threshold draw, then one independent noise per scanned
    # candidate, stopping once eta policies are admitted.
    v = laplace(threshold_scale, rng_svt)
    pruned: list[Policy] = []
    records: list[ScanRecord] = []
    for i, pol in enumerate(candidates):
        margin = float(scan_margins[i])
        noise = laplace(query_scale, rng_svt)
        admitted = margin + noise > v
        records.append(ScanRecord(pol.policy_id, margin, noise, admitted))
        if admitted:
            pruned.append(pol)
            if len(pruned) == eta:
                break

    table = influence_table(dataset, scores, pruned, spec, baseline)
    final, decision, goal_values = final_certify(table, mode, aprime, hyper.n_sim, rng_final)

    return Trace(
        method="snpl",
        mode=mode,
        n=n,
        class_size=len(candidates),
        baseline_id=baseline.policy_id,
        spec=spec,
        folds=hyper.folds,
        n_sim=hyper.n_sim,
        pruned_ids=tuple(p.policy_id for p in pruned),
        final=final,
        goal_values=goal_values,
        baseline_goal_value=table.baseline_goal,
        decision=decision,
        seed=recorded_seed,
        svt=Svt(
            gamma=hyper.gamma,
            epsilon=epsilon,
            delta_star=dstar,
            alpha_prime=aprime,
            eta=eta,
            eta_source=eta_source,
            B=B,
            B_floor=floor,
            p=hyper.p,
            threshold_scale=threshold_scale,
            query_scale=query_scale,
            threshold_noise=v,
            records=tuple(records),
        ),
        scores=scores,
    )
