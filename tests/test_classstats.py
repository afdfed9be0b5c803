"""The batched class-statistics engine against the per-policy reference loop,
and run decisions with the engine against runs with the reference."""

import numpy as np
import pytest

from snpl import algorithm, baselines, classstats
from snpl.algorithm import snpl_run
from snpl.baselines import bonferroni_run, hcpi_run
from conftest import LoggingPolicy, UniformPolicy, tabular_generate
from snpl.bounds import margins, normal_widths
from snpl.classstats import class_stats, policy_loop_stats
from snpl.core import (
    Dataset,
    Hyperparams,
    SafetySpec,
)
from snpl.estimators import arm_scores, fit_nuisance
from snpl.synthetic import ThresholdPolicy, build_class, default_baseline, generate

SPEC = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, -0.1), alpha=0.1)
BASE = default_baseline()


def candidates(grid_size=40):
    return [p for p in build_class(grid_size) if p.policy_id != BASE.policy_id]


def scores_for(ds, estimator, seed=0):
    nuis = fit_nuisance(ds, 5, np.random.default_rng(seed)) if estimator == "dr" else None
    return arm_scores(ds, nuis)


def assert_matches_reference(ds, pols, spec, scores, baseline=BASE):
    got = class_stats(ds, pols, spec, baseline, scores)
    want = policy_loop_stats(ds, pols, spec, baseline, scores)
    np.testing.assert_allclose(got.means, want.means, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.variances, want.variances, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.goal, want.goal, rtol=0, atol=1e-12)
    return got, want


class TestAgainstReference:
    @pytest.mark.parametrize("estimator", ("ipw", "dr"))
    @pytest.mark.parametrize("grid_size", (40, 2))
    def test_benchmark_class(self, estimator, grid_size):
        # grid size 2 holds cutoffs 0 and 1 only: every family after the
        # first coincides rule for rule with an earlier one
        ds = generate(600, np.random.default_rng(1))
        assert_matches_reference(ds, candidates(grid_size), SPEC, scores_for(ds, estimator))

    @pytest.mark.parametrize(
        "weights,make_data",
        (
            pytest.param((0.0, -0.2), generate, id="weights0"),
            pytest.param((-0.3, 0.0), generate, id="weights1"),
            pytest.param((0.0, -0.2), tabular_generate, id="tabular"),
        ),
    )
    def test_upper_sense_guardrail(self, weights, make_data):
        spec = SafetySpec(
            goal=2, guardrails=(1, 2), weights=weights, alpha=0.1, senses=("lower", "upper")
        )
        ds = make_data(500, np.random.default_rng(2))
        got, want = assert_matches_reference(ds, candidates(), spec, scores_for(ds, "dr"))
        widths = normal_widths(want.variances, spec, 0.1, 7, ds.n)
        np.testing.assert_allclose(
            margins(got.means, widths, spec), margins(want.means, widths, spec), rtol=0, atol=1e-12
        )
        # the upper-sense column flips its estimate
        np.testing.assert_array_equal(
            margins(want.means, widths, spec)[:, 1], -want.means[:, 1] - widths[:, 1]
        )

    @pytest.mark.parametrize("estimator", ("ipw", "dr"))
    def test_baseline_match_is_exactly_zero(self, estimator):
        # no x1 lies in [c, 0.5), so g1@c treats exactly the baseline's rows
        ds = generate(400, np.random.default_rng(3))
        x1 = ds.covariates[:, 0]
        c = float(np.nextafter(x1[x1 < 0.5].max(), 1.0))
        twin = ThresholdPolicy("g1", c)
        assert np.array_equal(twin.treat_mask(ds.covariates), BASE.treat_mask(ds.covariates))
        pols = candidates(20) + [twin]
        got, want = assert_matches_reference(ds, pols, SPEC, scores_for(ds, estimator))
        assert got.means[-1, 0] == 0.0 and got.variances[-1, 0] == 0.0
        assert want.means[-1, 0] == 0.0 and want.variances[-1, 0] == 0.0

    @pytest.mark.parametrize("estimator", ("ipw", "dr"))
    def test_coinciding_rules_get_identical_statistics(self, estimator):
        # g5 and every family's cutoff 1 treat all rows; cutoff 0 of g1-g4
        # treats none; the reference gives each group one value
        ds = generate(300, np.random.default_rng(4))
        always = [ThresholdPolicy("g5", c) for c in (0.1, 0.5, 1.0)] + [
            ThresholdPolicy(f, 1.0) for f in ("g1", "g2", "g3", "g4")
        ]
        never = [ThresholdPolicy(f, 0.0) for f in ("g1", "g2", "g3", "g4")]
        pols = candidates(10) + always + never
        got, _ = assert_matches_reference(ds, pols, SPEC, scores_for(ds, estimator))
        for group in (always, never):
            idx = [pols.index(p) for p in group]
            for arr in (got.means, got.variances, got.goal):
                assert all(np.array_equal(arr[i], arr[idx[0]]) for i in idx)

    def test_cutoff_edges_and_observed_values(self):
        ds = generate(300, np.random.default_rng(5))
        X = ds.covariates
        observed = [
            ThresholdPolicy("g3", float(X[7, 0] * X[7, 1])),
            ThresholdPolicy("g2", float(X[11, 1])),
            ThresholdPolicy("g4", float(X[3, 0] * X[3, 1] * X[3, 2])),
        ]
        # strict <: the row holding the cutoff value is not treated
        assert not observed[0].treat_mask(X)[7] and not observed[1].treat_mask(X)[11]
        edges = [ThresholdPolicy(f, c) for f in ("g1", "g3", "g5") for c in (0.0, 1.0)]
        assert_matches_reference(ds, edges + observed, SPEC, scores_for(ds, "dr"))

    def test_two_rows(self):
        X = np.array([[0.2, 0.7, 0.4], [0.6, 0.1, 0.9]])
        ds = Dataset(X, np.array([1, 2]), np.array([[1.0, 0.0], [0.0, 1.0]]),
                     np.full((2, 2), 0.5))
        assert_matches_reference(ds, candidates(6), SPEC, scores_for(ds, "ipw"))

    def test_row_subset(self):
        # as on hcpi_run's learning split: a sorted row subset, its own nuisance
        ds = generate(500, np.random.default_rng(6))
        rows = np.sort(np.random.default_rng(7).permutation(ds.n)[:200])
        sub = Dataset(ds.covariates[rows], ds.actions[rows], ds.outcomes[rows],
                      ds.propensities[rows])
        assert_matches_reference(sub, candidates(), SPEC, scores_for(sub, "dr"))

    def test_other_policies_take_the_loop(self, monkeypatch):
        ds = generate(300, np.random.default_rng(8))
        pols = candidates(8)
        mixed = pols[:5] + [UniformPolicy(2)] + pols[5:] + [LoggingPolicy(ds.propensities)]
        scores = scores_for(ds, "dr")
        got, want = assert_matches_reference(ds, mixed, SPEC, scores)
        for i in (5, len(mixed) - 1):
            assert np.array_equal(got.means[i], want.means[i])
            assert np.array_equal(got.variances[i], want.variances[i])
            assert got.goal[i] == want.goal[i]

        # threshold rules never reach policy_scores; the baseline does once
        calls = []
        real = classstats.policy_scores
        monkeypatch.setattr(
            classstats, "policy_scores", lambda *a: calls.append(a[1]) or real(*a)
        )
        class_stats(ds, pols, SPEC, BASE, scores)
        assert calls == [BASE]

    def test_three_actions(self):
        rng = np.random.default_rng(9)
        n = 200
        ds = Dataset(rng.random((n, 3)), rng.integers(1, 4, size=n), rng.random((n, 2)),
                     np.broadcast_to([0.2, 0.3, 0.5], (n, 3)))
        pols = [UniformPolicy(3, "u3"), LoggingPolicy(ds.propensities)]
        baseline = UniformPolicy(3, "base")
        scores = scores_for(ds, "ipw")
        assert_matches_reference(ds, pols, SPEC, scores, baseline)
        # a two-action rule does not fit three-action scores on either path
        for stats in (class_stats, policy_loop_stats):
            with pytest.raises(ValueError):
                stats(ds, [ThresholdPolicy("g1", 0.5)], SPEC, baseline, scores)

    def test_empty_class(self):
        ds = generate(50, np.random.default_rng(10))
        got = class_stats(ds, [], SPEC, BASE, scores_for(ds, "ipw"))
        assert got.means.shape == (0, 2) and got.goal.shape == (0,)


def _decisions(ds, policies, spec, mode, seed):
    hyper = Hyperparams(n_sim=2000)
    snpl = snpl_run(ds, policies, spec, BASE, mode, hyper, seed=seed)
    out = {"snpl": (snpl.decision, snpl.pruned_ids, tuple(r.admitted for r in snpl.scan))}
    for rho in (0.25, 0.5, 0.75):
        t = hcpi_run(ds, policies, spec, BASE, mode, hyper, seed=seed, rho=rho)
        out[f"ds-{rho}"] = (t.decision, t.selected_id)
    t = bonferroni_run(ds, policies, spec, BASE, mode, hyper, seed=seed)
    out["bonferroni"] = (t.decision, t.certified_ids)
    return out


@pytest.mark.parametrize("mode", ("finite", "asymptotic"))
@pytest.mark.parametrize("weights", ((0.0, -0.1), (-0.4, -0.4)))
def test_decisions_match_reference_runs(mode, weights, monkeypatch):
    spec = SafetySpec(goal=1, guardrails=(1, 2), weights=weights, alpha=0.1)
    policies = build_class(40)
    runs = [
        (generate(800, np.random.default_rng(np.random.SeedSequence((12, seed)))), seed)
        for seed in range(4)
    ]
    fast = [_decisions(ds, policies, spec, mode, seed) for ds, seed in runs]
    monkeypatch.setattr(algorithm, "class_stats", policy_loop_stats)
    monkeypatch.setattr(baselines, "class_stats", policy_loop_stats)
    slow = [_decisions(ds, policies, spec, mode, seed) for ds, seed in runs]
    assert fast == slow
    if weights == (-0.4, -0.4):
        decided = [d[0] for run in fast for d in run.values()]
        assert sum(d != BASE.policy_id for d in decided) >= 10
