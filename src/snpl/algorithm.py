"""The noisy safe policy learning loop: a sparse-vector-technique scan over
the candidate class, joint re-certification of the pruned set, and a
select-then-gate decision (the pruned goal argmax is returned only when its
own bounds certify).

Mode ``finite`` pairs the IPW estimator with the empirical-Bernstein bounds;
mode ``asymptotic`` pairs the cross-fitted DR estimator with sup-t bounds
(the pairing lives in ``bounds``). Inside the loop, finite mode evaluates
widths as if |pruned| = eta; asymptotic mode uses either a Bonferroni-normal
quantile per candidate (the default ``in_loop``) or sup-t over pruned +
candidate.

Cost: with the fixed-width bounds (finite, Bonferroni-normal), the margins of
the whole class come from one ``class_stats`` call before the scan, which for
threshold classes is O(n log |Pi| + |Pi|) per feature family and for other
classes one O(n) pass per policy; each scan step is then O(1). The sup-t
option skips that call; per scanned candidate it builds the
``asymptotic_bounds`` table over the pruned set plus the candidate, with
d = (|pruned| + 1) |S| columns: influence columns O(n d) from the run's
arm scores, covariance O(n d^2), eigendecomposition O(d^3) and loop_n_sim
draws O(loop_n_sim d^2), taken in cache-sized blocks. The draws dominate:
at n = 1,000, 500 policies, loop_n_sim = 20,000 and eta = 20, a scan of 33
candidates (20 admitted) took about 0.45-0.49 s on a 2-vCPU host with one
BLAS thread, about 85% of it in ``supt_quantile``.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import (
    LowerBoundTable,
    asymptotic_bounds,
    check_mode,
    joint_bounds,
    margins,
    union_widths,
)
from .classstats import class_stats
from .core import (
    Dataset,
    Hyperparams,
    Policy,
    SafetySpec,
    ScanRecord,
    Svt,
    Trace,
    normalize_seed,
    seed_tuple,
    validate_dataset,
)
from .estimators import InfluenceTable, influence_table, mode_scores
from .stability import b_asymp, b_finite, delta_star, eta_heuristic, laplace

__all__ = ["snpl_run", "final_certify"]


def final_certify(
    table: InfluenceTable, mode: str, level: float, n_sim: int, rng=None
) -> tuple[LowerBoundTable, str, dict, tuple[str, ...]]:
    """The select-then-gate step of snpl and of data splitting: the mode's
    joint bounds over exactly the table's policies x S columns at the given
    level (sup-t from n_sim draws of rng in asymptotic mode), then the
    policy with the largest estimated goal value (first-listed on ties) is
    the sole candidate, and it is returned only when every one of its
    margins is strictly positive; otherwise the table's baseline. Returns
    (bounds, decision_id, goal_values, certified_ids).

    Bounds cover every listed policy, so certified_ids (``bounds.
    certified_ids()``) names each policy that would certify on its own, but
    no policy other than the goal argmax is ever returned.
    """
    if not table.policy_ids:
        empty = LowerBoundTable(entries=(), method=mode, level=level, meta={})
        return empty, table.baseline_id, {}, ()
    bt = joint_bounds(table, mode, level, n_sim, rng)
    goal_values = dict(zip(table.policy_ids, table.goal.tolist()))
    pick = table.policy_ids[int(np.argmax(table.goal))]
    decision = pick if bt.min_margin(pick) > 0.0 else table.baseline_id
    return bt, decision, goal_values, tuple(bt.certified_ids())


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
    validate_dataset(dataset)
    if len(policies) == 0:
        raise ValueError("empty policy class")
    seed_seq = normalize_seed(seed)
    rng_nuisance, rng_svt, rng_loop, rng_final = [
        np.random.default_rng(s) for s in seed_seq.spawn(4)
    ]
    n = dataset.n
    candidates = [p for p in policies if p.policy_id != baseline.policy_id]

    epsilon = hyper.epsilon if hyper.epsilon is not None else hyper.gamma / math.sqrt(n)
    dstar, aprime = delta_star(spec.alpha, n, epsilon)

    if hyper.eta is not None:
        eta, eta_source = int(hyper.eta), "user"
    else:
        eta = eta_heuristic(spec.alpha, aprime, max(len(candidates), 1), spec.s_count, hyper.p)
        eta_source = "heuristic"

    xi = (2.0 + max(spec.weights)) / dataset.propensity.c
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

    loop_n_sim = hyper.loop_n_sim if hyper.loop_n_sim is not None else hyper.n_sim
    supt_loop = mode == "asymptotic" and hyper.in_loop == "supt"
    if candidates and not supt_loop:
        # Fixed-width in-loop bounds: |Pi~| = eta whatever the pruned set.
        stats = class_stats(dataset, candidates, spec, baseline, scores)
        widths = union_widths(stats.variances, spec, mode, aprime, eta, n, dataset.propensity.c)
        scan_margins = margins(stats.means, widths, spec).min(axis=1)

    # SVT scan: one threshold draw, then one independent noise per scanned
    # candidate, stopping once eta policies are admitted.
    v = laplace(threshold_scale, rng_svt)
    pruned: list[Policy] = []
    records: list[ScanRecord] = []
    for i, pol in enumerate(candidates):
        if supt_loop:
            # Sup-t over the pruned set so far plus the candidate.
            table = influence_table(dataset, scores, pruned + [pol], spec, baseline)
            bt = asymptotic_bounds(table, spec, aprime, loop_n_sim, rng_loop)
            margin = bt.min_margin(pol.policy_id)
        else:
            margin = float(scan_margins[i])
        noise = laplace(query_scale, rng_svt)
        admitted = margin + noise > v
        records.append(ScanRecord(pol.policy_id, margin, noise, admitted))
        if admitted:
            pruned.append(pol)
            if len(pruned) == eta:
                break

    table = influence_table(dataset, scores, pruned, spec, baseline)
    final, decision, goal_values, certified = final_certify(
        table, mode, aprime, hyper.n_sim, rng_final
    )

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
        certified_ids=certified,
        decision=decision,
        seed=seed_tuple(seed_seq),
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
            in_loop=hyper.in_loop,
            loop_n_sim=loop_n_sim,
            threshold_scale=threshold_scale,
            query_scale=query_scale,
            threshold_noise=v,
            records=tuple(records),
        ),
        scores=scores,
    )
