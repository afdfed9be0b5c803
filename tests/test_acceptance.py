"""Release acceptance suite: one test per acceptance criterion.

Each ``pytest -v`` line from this file is a criterion verdict.  The first
two criteria replay the full replicated benchmark (300 runs per policy
class size) and dominate the runtime; expect several minutes on one core.
Everything here is seeded, so reruns produce identical numbers.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from snpl.algorithm import snpl_run
from snpl.bounds import asymptotic_bounds, bonferroni_normal_bounds, finite_bounds
from snpl.core import Hyperparams, SafetySpec
from snpl.estimators import (
    NuisanceModel,
    arm_scores,
    fit_nuisance,
    influence_table,
)
from snpl.harness import BenchmarkConfig, run_benchmark
from snpl.stability import (
    alpha_prime,
    b_finite,
    delta_star,
    eta_heuristic,
    gamma_grid,
    laplace,
    t_fn,
)
from snpl.core import ThresholdPolicy
from snpl.synthetic import default_baseline, generate, true_values

from conftest import LoggingPolicy, dr_value, ipw_value

ALPHA = 0.1
DET_TOL = 0.10
EI_TOL = 0.015

# Reference operating characteristics for the replicated benchmark
# (detection rate, expected improvement), keyed by policy class size.
#
# Provenance: each cell pools master seeds 1-8 of the configuration that
# _bench runs below (all five methods, asymptotic mode, n = 1000, 300
# replications per seed, so 2,400 replications per cell), as printed by
#
#     PYTHONPATH=src python scripts/bench_expect.py --seeds 1-8 --jobs 2
#
# The trailing comments give each cell's standard errors (detection, EI).
# Master seed 0 is left out of the pool, so the fixtures' own run is an
# independent draw, with sampling sd up to 0.029 in detection and 0.003 in
# EI per cell. The three fixtures share master seed 0's streams: the
# datasets, splits and nuisance folds depend on (seed, replication, method)
# but not on the class size, so their deviations from this table are
# correlated across class sizes.
BENCH_EXPECT = {
    2500: {
        "ds-25": (0.537, 0.045),  # se 0.010, 0.0010
        "ds-50": (0.440, 0.044),  # se 0.010, 0.0010
        "ds-75": (0.223, 0.024),  # se 0.009, 0.0009
        "bonferroni": (0.432, 0.034),  # se 0.010, 0.0009
        "snpl": (0.130, 0.016),  # se 0.007, 0.0008
    },
    1000: {
        "ds-25": (0.542, 0.045),  # se 0.010, 0.0010
        "ds-50": (0.447, 0.044),  # se 0.010, 0.0010
        "ds-75": (0.221, 0.024),  # se 0.008, 0.0009
        "bonferroni": (0.553, 0.044),  # se 0.010, 0.0009
        "snpl": (0.148, 0.018),  # se 0.007, 0.0009
    },
    500: {
        "ds-25": (0.547, 0.045),  # se 0.010, 0.0010
        "ds-50": (0.452, 0.044),  # se 0.010, 0.0010
        "ds-75": (0.226, 0.024),  # se 0.009, 0.0009
        "bonferroni": (0.639, 0.052),  # se 0.010, 0.0009
        "snpl": (0.161, 0.020),  # se 0.007, 0.0009
    },
}

METHODS = ("ds-25", "ds-50", "ds-75", "bonferroni", "snpl")


def _bench(grid_size: int) -> dict:
    cfg = BenchmarkConfig(
        methods=METHODS,
        mode="asymptotic",
        n=1000,
        replications=300,
        grid_size=grid_size,
        master_seed=0,
    )
    report = run_benchmark(cfg)
    return {r.method: r for r in report.results}


@pytest.fixture(scope="module")
def bench_2500():
    return _bench(500)


@pytest.fixture(scope="module")
def bench_1000():
    return _bench(200)


@pytest.fixture(scope="module")
def bench_500():
    return _bench(100)


def _check_rows(results: dict, class_size: int) -> list[str]:
    """Returns one message per out-of-band cell so a failing criterion
    reports every violation at once, not just the first."""
    problems = []
    for method in METHODS:
        res = results[method]
        det_ref, ei_ref = BENCH_EXPECT[class_size][method]
        if abs(res.detection - det_ref) > DET_TOL:
            problems.append(
                f"class {class_size} {method}: detection {res.detection:.3f} "
                f"vs {det_ref:.3f}"
            )
        if abs(res.ei - ei_ref) > EI_TOL:
            problems.append(
                f"class {class_size} {method}: EI {res.ei:.4f} vs {ei_ref:.4f}"
            )
        # Type I error among unsafe selections; None means no improvement
        # was ever claimed, which trivially satisfies the cap.
        if res.type1 is not None and res.type1 > ALPHA:
            problems.append(
                f"class {class_size} {method}: type I {res.type1:.3f} > {ALPHA}"
            )
    return problems


def test_c1_benchmark_class_2500(bench_2500):
    # Configuration sanity: the scan budget heuristic at these settings
    # must resolve to 10, matching the benchmark defaults.
    ap = delta_star(ALPHA, 1000, ALPHA / math.sqrt(1000))[1]
    assert eta_heuristic(ALPHA, ap, 2500, 2, 0.5) == 10
    problems = _check_rows(bench_2500, 2500)
    assert not problems, "; ".join(problems)


def test_c2_benchmark_smaller_classes(bench_1000, bench_500):
    problems = _check_rows(bench_1000, 1000) + _check_rows(bench_500, 500)
    assert not problems, "; ".join(problems)


def test_c3_stability_anchors():
    assert abs(alpha_prime(0.1, 0.05, 100, 0.01) - 0.04343) <= 1e-4
    assert t_fn(2, 1.0) == 3.0
    assert abs(b_finite(1000, 4.0, 0.0434) - 0.03653) <= 1e-4


def test_c4_gamma_grid_profile():
    alphas = np.linspace(0.01, 0.5, 25)
    gammas = np.linspace(0.01, 0.8, 30)
    grid = gamma_grid(alphas, gammas)

    # Negligible privacy cost at gamma=0.01 for every alpha.
    assert grid[:, 0].min() >= 0.97

    assert abs(gamma_grid([0.1], [0.1])[0, 0] - 0.811) <= 0.02
    assert abs(gamma_grid([0.1], [0.3])[0, 0] - 0.54) <= 0.02

    # Monotone cost in gamma; 1e-4 absorbs optimizer jitter.
    assert (np.diff(grid, axis=1) <= 1e-4).all()

    # alpha' depends on (alpha, gamma) only when epsilon = gamma / sqrt(n).
    vals = [delta_star(0.1, n, 0.1 / math.sqrt(n))[1] for n in (10**2, 10**4, 10**6)]
    assert max(vals) - min(vals) < 1e-12


def _coverage_policies() -> list[ThresholdPolicy]:
    pols = []
    for feat in ("g1", "g2", "g3"):
        # 0.45 instead of 0.5 keeps the set disjoint from the baseline rule.
        for c in (0.1, 0.3, 0.45, 0.7, 0.9):
            pols.append(ThresholdPolicy(feat, c))
    for c in (0.2, 0.4, 0.6, 0.8):
        pols.append(ThresholdPolicy("g4", c))
    pols.append(ThresholdPolicy("g5", 0.5))
    return pols


def test_c5_bound_coverage():
    spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, -0.1), alpha=ALPHA)
    baseline = default_baseline()
    pols = _coverage_policies()
    assert len(pols) == 20

    v0 = true_values(baseline)
    d_true = np.empty(len(pols) * 2)
    for p, pol in enumerate(pols):
        v = true_values(pol)
        for s, (g, w) in enumerate(zip(spec.guardrails, spec.weights)):
            d_true[p * 2 + s] = v[g - 1] - (1.0 + w) * v0[g - 1]

    reps = 500

    # Finite-sample joint bounds: the Bernstein slack makes simultaneous
    # miscoverage essentially impossible at this n.
    miss_finite = 0
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((505, rep)))
        dataset = generate(1000, rng)
        table = influence_table(dataset, arm_scores(dataset), pols, spec, baseline)
        bt = finite_bounds(table, ALPHA)
        bounds = bt.bounds.ravel()
        if (bounds > d_true).any():
            miss_finite += 1
    assert miss_finite / reps <= ALPHA, f"finite miscoverage {miss_finite}/{reps}"
    assert miss_finite <= 5, f"finite bounds should almost never miss, got {miss_finite}"

    # Asymptotic sup-t bounds: approximate coverage with a Monte Carlo
    # allowance, and never wider than the union-bound normal intervals.
    miss_asym = 0
    for rep in range(reps):
        seq = np.random.SeedSequence((606, rep))
        r_data, r_nuis, r_sup = (np.random.default_rng(s) for s in seq.spawn(3))
        dataset = generate(4000, r_data)
        nuisance = fit_nuisance(dataset, 5, r_nuis)
        table = influence_table(dataset, arm_scores(dataset, nuisance), pols, spec, baseline)
        bt = asymptotic_bounds(table, ALPHA, 100_000, r_sup)
        bounds = bt.bounds.ravel()
        if (bounds > d_true).any():
            miss_asym += 1
        bn = bonferroni_normal_bounds(table, ALPHA)
        w_sup, w_bon = bt.widths.ravel(), bn.widths.ravel()
        assert (w_sup <= w_bon + 0.01).all(), f"sup-t wider than union bound, rep {rep}"
    assert miss_asym / reps <= ALPHA + 0.03, f"asymptotic miscoverage {miss_asym}/{reps}"


def _zero_nuisance(dataset) -> NuisanceModel:
    n, K, d_Y = dataset.n, dataset.n_actions, dataset.n_outcomes
    d = dataset.covariates.shape[1]
    return NuisanceModel(
        coef=np.zeros((2, K, d_Y, d + 1)),
        fold_of=np.zeros(n, dtype=np.int64),
        mu=np.zeros((n, K, d_Y)),
    )


def test_c6_estimator_identities():
    rng = np.random.default_rng(np.random.SeedSequence((707, 0)))
    dataset = generate(2000, rng)
    zero = _zero_nuisance(dataset)

    probe = [
        default_baseline(),
        ThresholdPolicy("g2", 0.3),
        ThresholdPolicy("g4", 0.6),
        ThresholdPolicy("g5", 0.5),
    ]
    for pol in probe:
        for j in (1, 2):
            assert abs(
                dr_value(dataset, pol, j, zero) - ipw_value(dataset, pol, j)
            ) <= 1e-12

    logging = LoggingPolicy(dataset.propensities)
    for j in (1, 2):
        assert abs(
            ipw_value(dataset, logging, j) - dataset.outcomes[:, j - 1].mean()
        ) <= 1e-12

    # Cross-fitted DR at n = 1e5 against the exact policy values of the
    # synthetic generator: (0.375, 0.53125) for the baseline rule and
    # (0.25, 0.625) for an always-treat rule.
    big_rng = np.random.default_rng(np.random.SeedSequence((707, 1)))
    big = generate(100_000, big_rng)
    nuisance = fit_nuisance(big, 5, np.random.default_rng(np.random.SeedSequence((707, 2))))
    baseline = default_baseline()
    always = ThresholdPolicy("g5", 0.5)
    for pol, truth in ((baseline, (0.375, 0.53125)), (always, (0.25, 0.625))):
        got = tuple(dr_value(big, pol, j, nuisance) for j in (1, 2))
        exact = true_values(pol)
        assert exact == pytest.approx(truth, abs=1e-12)
        for est, ref in zip(got, truth):
            assert abs(est - ref) <= 0.01, (pol.policy_id, got, truth)


def test_c7_svt_mechanics():
    # Raw noise primitive: empirical variance of 1e6 draws within 5%.
    rng = np.random.default_rng(np.random.SeedSequence((808, 0)))
    scale = 0.7
    draws = np.fromiter((laplace(scale, rng) for _ in range(1_000_000)), dtype=float)
    target = 2.0 * scale**2
    assert abs(draws.var() / target - 1.0) <= 0.05

    spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, -0.1), alpha=ALPHA)
    pols = [ThresholdPolicy(f, c) for f in ("g1", "g3") for c in np.linspace(0.0, 1.0, 12)]

    def run(dataset, eta, seed, **hyper):
        return snpl_run(
            dataset, pols, spec, default_baseline(), "finite", Hyperparams(eta=eta, **hyper), seed
        )

    # The admitted set never exceeds the scan budget, on any trace.
    for rep in range(60):
        eta = 1 + rep % 4
        data_rng = np.random.default_rng(np.random.SeedSequence((808, 1, rep)))
        trace = run(generate(120, data_rng), eta, (808, 2, rep))
        assert len(trace.pruned_ids) <= eta, (rep, eta, len(trace.pruned_ids))

    # Identical seeds give byte-identical traces.
    data_rng = np.random.default_rng(np.random.SeedSequence((808, 3)))
    dataset = generate(150, data_rng)
    blobs = [
        json.dumps(run(dataset, 3, 99).to_json_dict(), sort_keys=True).encode()
        for _ in range(2)
    ]
    assert blobs[0] == blobs[1]

    # A sensitivity override below the admissible floor is rejected.
    with pytest.raises(ValueError, match="sensitivity floor"):
        run(dataset, 3, 1, B=1e-9)


def test_c8_eta_heuristic():
    ap = delta_star(0.1, 1000, 0.1 / math.sqrt(1000))[1]
    assert abs(ap - 0.0811) <= 0.002
    assert eta_heuristic(0.1, ap, 2949, 2, 0.5) == 10
