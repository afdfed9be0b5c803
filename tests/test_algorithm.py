import functools
import json
import math

import numpy as np
import pytest

from conftest import dr_value, ipw_value, tabular_generate, three_arm_class, three_arm_generate
from snpl.algorithm import final_certify, snpl_run
from snpl.baselines import bonferroni_run, hcpi_run
from snpl.bounds import asymptotic_bounds, bonferroni_normal_bounds, finite_bounds, union_table
from snpl.core import Dataset, Hyperparams, SafetySpec, ThresholdPolicy, run_streams
from snpl.estimators import arm_scores, class_stats, fit_nuisance, influence_table, mode_scores
from snpl.stability import delta_star, eta_heuristic, laplace
from snpl.synthetic import build_class, default_baseline, generate, true_values


def two_guardrails(weights=(0.0, -0.1), goal=1):
    return SafetySpec(goal=goal, guardrails=(1, 2), weights=weights, alpha=0.1)


SPEC = two_guardrails()


def run(ds, policies, mode="finite", seed=0, weights=(0.0, -0.1), **hyper):
    """snpl_run against the default baseline under a two-guardrail spec."""
    spec, baseline = two_guardrails(weights), default_baseline()
    return snpl_run(ds, policies, spec, baseline, mode, Hyperparams(**hyper), seed)


def certify(ds, scores, pruned, level, mode="finite", spec=SPEC, n_sim=100_000, rng=None):
    """final_certify on the influence table of exactly the pruned set."""
    table = influence_table(ds, scores, pruned, spec, default_baseline())
    return final_certify(table, mode, level, n_sim, rng)


def small_class():
    return [ThresholdPolicy("g1", c) for c in (0.0, 0.2, 0.4, 0.6, 0.8)]


class TestConfig:
    @pytest.mark.parametrize(
        "method",
        (snpl_run, bonferroni_run, functools.partial(hcpi_run, rho=0.5)),
        ids=("snpl_run", "bonferroni_run", "hcpi_run"),
    )
    def test_mode_validated(self, method):
        # the same message from the one mode check, before any work
        ds = generate(50, np.random.default_rng(0))
        with pytest.raises(ValueError) as err:
            method(ds, small_class(), SPEC, default_baseline(), "exact")
        assert str(err.value) == "mode must be 'finite' or 'asymptotic'"
        assert err.traceback[-1].name == "check_mode"


class TestTrivialCases:
    def test_baseline_only_class(self):
        ds = generate(200, np.random.default_rng(0))
        trace = run(ds, [default_baseline()], seed=1, eta=3)
        assert trace.pruned_ids == ()
        assert trace.scan == ()
        assert trace.decision == "g1@0.5"
        assert trace.is_baseline
        assert trace.class_size == 0

    def test_empty_class_rejected(self):
        ds = generate(50, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty policy class"):
            run(ds, [], seed=0)

    def test_empty_pruned_certifies_nothing(self):
        ds = generate(200, np.random.default_rng(1))
        table, decision, goals = certify(ds, arm_scores(ds), [], 0.08)
        assert decision == "g1@0.5"
        assert table.policy_ids == () and table.estimates.shape == (0, 2)
        assert goals == {} and table.certified_ids() == []


class TestFinalCertify:
    def test_unsafe_candidates_fall_back_to_baseline(self):
        # always-treat tanks outcome 1 far below the w=0 floor
        ds = generate(2000, np.random.default_rng(2))
        pruned = [ThresholdPolicy("g5", 0.5)]
        table, decision, _ = certify(ds, arm_scores(ds), pruned, 0.08)
        assert decision == "g1@0.5"
        assert table.min_margin("g5@0.5") < 0.0 and table.certified_ids() == []

    def test_goal_argmax_returned_when_it_certifies(self):
        # both policies certify easily under w=-0.9; the goal argmax over the
        # pruned set is the sole candidate and it passes its gate
        ds = generate(3000, np.random.default_rng(3))
        spec = two_guardrails(weights=(-0.9, -0.9))
        pruned = [ThresholdPolicy("g1", 0.8), ThresholdPolicy("g1", 0.2)]
        table, decision, goals = certify(ds, arm_scores(ds), pruned, 0.08, spec=spec)
        assert table.certified_ids() == ["g1@0.8", "g1@0.2"]
        assert decision == max(goals, key=goals.__getitem__)
        # true V1 is higher at the smaller cutoff
        assert decision == "g1@0.2"

    def test_uncertified_goal_leader_forces_baseline(self):
        # g5 has the best V2 but breaks the outcome-1 guardrail; it is still
        # the only candidate considered, so the run falls back to the
        # baseline even though another pruned policy may certify
        ds = generate(4000, np.random.default_rng(4))
        pruned = [ThresholdPolicy("g5", 0.5), ThresholdPolicy("g1", 0.4)]
        spec = two_guardrails(goal=2)
        table, decision, goals = certify(ds, arm_scores(ds), pruned, 0.08, spec=spec)
        assert goals["g5@0.5"] > goals["g1@0.4"]
        assert "g5@0.5" not in table.certified_ids()
        assert decision == "g1@0.5"

    @pytest.mark.parametrize(
        "make", [np.random.SeedSequence, np.random.PCG64], ids=["SeedSequence", "BitGenerator"]
    )
    def test_seed_sequence_and_bit_generator_accepted(self, make):
        ds = generate(400, np.random.default_rng(1))
        scores = arm_scores(ds, fit_nuisance(ds, 5, np.random.default_rng(0)))
        pruned = [ThresholdPolicy("g1", 0.3)]
        args = (ds, scores, pruned, 0.08, "asymptotic")
        table, decision, _ = certify(*args, n_sim=2000, rng=make(6))
        ref, ref_decision, _ = certify(*args, n_sim=2000, rng=np.random.default_rng(6))
        assert table.meta["seed"] is None
        assert table.to_json_dict() == ref.to_json_dict() and decision == ref_decision

    def test_default_rng_draws_fresh_entropy(self):
        # rng=None (the default) seeds the sup-t draws from fresh entropy,
        # recorded as seed None, as a Generator is
        ds = generate(400, np.random.default_rng(1))
        scores = arm_scores(ds, fit_nuisance(ds, 5, np.random.default_rng(0)))
        pruned = [ThresholdPolicy("g1", 0.3)]
        table, _, _ = certify(ds, scores, pruned, 0.08, "asymptotic", n_sim=2000)
        assert table.method == "supt" and table.meta["seed"] is None


class TestSnplRun:
    def run_once(self, seed=3, n=400, **kwargs):
        ds = generate(n, np.random.default_rng(100))
        return run(ds, small_class(), seed=seed, **kwargs)

    def test_trace_reconstructs_decision(self):
        trace = self.run_once(eta=3)
        for r in trace.scan:
            assert r.admitted == (r.margin + r.noise > trace.svt.threshold_noise)
        assert trace.pruned_ids == tuple(r.policy_id for r in trace.scan if r.admitted)
        assert set(trace.certified_ids) <= set(trace.pruned_ids)
        if trace.pruned_ids:
            pick = max(trace.pruned_ids, key=trace.goal_values.__getitem__)
            if trace.final.min_margin(pick) > 0.0:
                assert trace.decision == pick
                assert not trace.is_baseline
            else:
                assert trace.decision == trace.baseline_id
                assert trace.is_baseline
        else:
            assert trace.decision == trace.baseline_id
            assert trace.is_baseline

    def test_pruned_capped_at_eta(self):
        for seed in range(8):
            trace = self.run_once(seed=seed, eta=2)
            assert len(trace.pruned_ids) <= 2
            if len(trace.pruned_ids) == 2:
                # the scan breaks at the admitting record
                assert trace.scan[-1].admitted

    def test_noise_scales(self):
        trace = self.run_once(eta=3)
        eps = 0.1 / math.sqrt(400.0)
        assert trace.svt.epsilon == pytest.approx(eps)
        assert trace.svt.threshold_scale == pytest.approx(2.0 * trace.svt.B * 3 / eps)
        assert trace.svt.query_scale == pytest.approx(2.0 * trace.svt.threshold_scale)

    def test_baseline_excluded_from_scan(self):
        ds = generate(300, np.random.default_rng(101))
        pols = [default_baseline()] + small_class()
        trace = run(ds, pols, seed=5, eta=3)
        assert trace.class_size == 5
        assert all(r.policy_id != "g1@0.5" for r in trace.scan)

    def test_eta_sources(self):
        explicit = self.run_once(eta=4)
        assert explicit.svt.eta == 4 and explicit.svt.eta_source == "user"
        derived = self.run_once()
        assert derived.svt.eta_source == "heuristic"
        assert derived.svt.eta == eta_heuristic(0.1, derived.svt.alpha_prime, 5, 2, 0.5)

    def test_b_floor_enforced(self):
        ref = self.run_once(eta=3)
        with pytest.raises(ValueError, match="below the sensitivity floor"):
            self.run_once(eta=3, B=ref.svt.B_floor / 2.0)

    def test_b_override_above_floor(self):
        ref = self.run_once(eta=3)
        trace = self.run_once(eta=3, B=ref.svt.B_floor * 2.0)
        assert trace.svt.B == pytest.approx(ref.svt.B_floor * 2.0)
        assert trace.svt.threshold_scale == pytest.approx(2.0 * ref.svt.threshold_scale)

    def test_scan_margins_match_in_loop_bounds(self):
        # finite in-loop bounds: the Bernstein table at alpha' with |Pi~|
        # fixed to eta, whatever the pruned set holds at that point
        ds = generate(400, np.random.default_rng(100))
        trace = run(ds, small_class(), seed=3, eta=3)
        table = influence_table(ds, arm_scores(ds), small_class(), SPEC, default_baseline())
        loop = finite_bounds(table, trace.svt.alpha_prime, assumed_class_size=3)
        assert loop.meta["log_term"] == pytest.approx(
            math.log(3.0 * 3 * 2 / (2.0 * trace.svt.alpha_prime)), abs=1e-12
        )
        assert any(r.admitted for r in trace.scan[:-1])
        for r in trace.scan:
            assert r.margin == pytest.approx(loop.min_margin(r.policy_id), abs=1e-12)

    def test_determinism(self):
        a = self.run_once(seed=9, eta=3)
        b = self.run_once(seed=9, eta=3)
        assert a.to_json_dict() == b.to_json_dict()
        c = self.run_once(seed=10, eta=3)
        assert c.svt.threshold_noise != a.svt.threshold_noise

    def test_seed_tuple_recorded(self):
        ds = generate(200, np.random.default_rng(102))
        trace = run(ds, small_class(), seed=np.random.SeedSequence((5, 0, 1)), eta=2)
        assert trace.seed == (5, 0, 1)

    def test_trace_json_serializable(self):
        trace = self.run_once(eta=3)
        blob = json.dumps(trace.to_json_dict(), sort_keys=True)
        assert '"schema_version": 2' in blob

    def test_asymptotic_mode_runs(self):
        trace = self.run_once(eta=2, mode="asymptotic", n_sim=5000)
        assert trace.mode == "asymptotic"
        assert trace.final.method in ("supt", "asymptotic") or trace.pruned_ids == ()


class TestHighSignalSelection:
    def test_reliable_selection_at_high_snr(self):
        # 20 clearly safe candidates (w = -0.5 leaves huge guardrail slack),
        # n = 4000, eta = 1: the run should nearly always return a candidate
        # and, whenever it does, the returned policy must be the true best
        # goal value within the pruned set
        candidates = [ThresholdPolicy("g1", c) for c in np.linspace(0.0, 0.6, 20)]
        truth = {p.policy_id: true_values(p)[0] for p in candidates}

        non_baseline = 0
        for rep in range(100):
            rng = np.random.default_rng(200 + rep)
            ds = generate(4000, rng)
            trace = run(ds, candidates, seed=500 + rep, weights=(-0.5, -0.5), eta=1)
            assert len(trace.pruned_ids) <= 1
            if trace.is_baseline:
                continue
            non_baseline += 1
            best_true = max(trace.pruned_ids, key=truth.__getitem__)
            assert trace.decision == best_true
        assert non_baseline >= 95


class TestScanSensitivity:
    """The guarantee the scan's noise is calibrated to: replacing one row of
    the data moves every candidate's scan margin by at most B. Margins are
    computed as snpl_run computes them (class_stats, then union_table at
    alpha' with |Pi~| = eta), the nuisance refit on the run's own nuisance
    stream, so both fits split the rows into the same folds. Replacement
    rows come from the data's own generator, so under tabular propensities
    each dataset keeps its own floor c."""

    UPPER = SafetySpec(1, (1, 2), (0.0, 0.0), 0.1, senses=("lower", "upper"))

    @pytest.mark.parametrize(
        "mode, spec, make_data",
        [
            ("finite", SPEC, generate),
            ("asymptotic", SPEC, generate),
            ("finite", UPPER, generate),
            ("asymptotic", UPPER, generate),
            ("finite", SPEC, tabular_generate),
            ("asymptotic", SPEC, tabular_generate),
        ],
        ids=(
            "finite", "asymptotic", "finite-upper-sense", "asymptotic-upper-sense",
            "finite-tabular", "asymptotic-tabular",
        ),
    )
    def test_replacing_one_row_moves_scan_margins_at_most_b(self, mode, spec, make_data):
        baseline = default_baseline()
        candidates = [p for p in build_class(100) if p.policy_id != baseline.policy_id]
        ds = make_data(200, np.random.default_rng(61))
        hyper = Hyperparams(n_sim=1000)
        svt = snpl_run(ds, candidates, spec, baseline, mode, hyper, seed=3).svt

        def scan_margins(data):
            _, (rng_nuisance, *_) = run_streams(3, 4)
            scores = mode_scores(data, mode, hyper.folds, rng_nuisance)
            stats = class_stats(data, candidates, spec, baseline, scores)
            table = union_table(stats, mode, svt.alpha_prime, svt.eta)
            return table.margins.min(axis=1)

        margins = scan_margins(ds)
        rng = np.random.default_rng(62)
        largest = 0.0
        for _ in range(40):
            i, row = rng.integers(ds.n), make_data(1, rng)
            columns = []
            for old, new in zip(
                (ds.covariates, ds.actions, ds.outcomes, ds.propensities),
                (row.covariates, row.actions, row.outcomes, row.propensities),
            ):
                column = old.copy()
                column[i] = new[0]
                columns.append(column)
            moved = np.abs(scan_margins(Dataset(*columns)) - margins).max()
            largest = max(largest, moved)
        assert 0.0 < largest <= svt.B


class TestAsymptoticCrossCheck:
    """Decision-level check of snpl_run in asymptotic mode (the benchmark's
    mode, default Bonferroni-normal in-loop bound) against a per-policy
    rebuild of its documented steps from the public estimator, bound and
    stability functions, drawing from the run's own spawned streams."""

    @pytest.mark.parametrize(
        "user_eta,senses,weights,make_data",
        (
            pytest.param(None, None, (0.0, -0.1), generate, id="None"),
            pytest.param(3, None, (0.0, -0.1), generate, id="3"),
            pytest.param(None, ("lower", "upper"), (0.0, 0.0), generate, id="upper-sense"),
            pytest.param(None, None, (0.0, -0.1), tabular_generate, id="tabular"),
        ),
    )
    def test_run_matches_documented_steps(self, user_eta, senses, weights, make_data):
        spec = SafetySpec(goal=1, guardrails=(1, 2), weights=weights, alpha=0.1, senses=senses)
        baseline = default_baseline()
        hyper = Hyperparams(n_sim=5000, eta=user_eta)
        policies = build_class(5)  # holds the baseline rule g1@0.5
        candidates = [p for p in policies if p.policy_id != baseline.policy_id]
        outcomes = set()
        for seed in range(12):
            ds = make_data(1000, np.random.default_rng(np.random.SeedSequence((41, seed))))
            trace = snpl_run(ds, policies, spec, baseline, "asymptotic", hyper, seed)
            r_nuis, r_svt, _, r_final = (
                np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
            )
            aprime = delta_star(spec.alpha, ds.n, 0.1 / math.sqrt(ds.n))[1]
            eta = user_eta or eta_heuristic(
                spec.alpha, aprime, len(candidates), spec.s_count, 0.5
            )
            assert trace.svt.alpha_prime == aprime and trace.svt.eta == eta

            # scan margins: Bonferroni-normal at alpha' with |Pi~| = eta
            nuis = fit_nuisance(ds, hyper.folds, r_nuis)
            scores = arm_scores(ds, nuis)
            table = influence_table(ds, scores, candidates, spec, baseline)
            loop = bonferroni_normal_bounds(table, aprime, assumed_class_size=eta)

            # SVT: one threshold draw, one noise per scanned candidate in
            # declared order, stopping at the eta-th admission
            v = laplace(trace.svt.threshold_scale, r_svt)
            assert trace.svt.threshold_noise == v
            pruned = []
            for rec, pol in zip(trace.scan, candidates):
                assert rec.policy_id == pol.policy_id
                assert rec.margin == pytest.approx(loop.min_margin(pol.policy_id), abs=1e-12)
                assert rec.noise == laplace(trace.svt.query_scale, r_svt)
                assert rec.admitted == (rec.margin + rec.noise > v)
                if rec.admitted:
                    pruned.append(pol)
            if len(pruned) < eta:
                assert len(trace.scan) == len(candidates)
            else:
                assert len(pruned) == eta and trace.scan[-1].admitted
            assert trace.pruned_ids == tuple(p.policy_id for p in pruned)

            # final: sup-t over exactly the pruned set at alpha', then the
            # pruned goal argmax (scan-order ties) if its margins are positive
            if not pruned:
                assert trace.final.policy_ids == () and trace.is_baseline
                outcomes.add("empty")
                continue
            final_table = influence_table(ds, scores, pruned, spec, baseline)
            final = asymptotic_bounds(final_table, aprime, hyper.n_sim, r_final)
            np.testing.assert_allclose(trace.final.margins, final.margins, rtol=0, atol=1e-12)
            goals = [dr_value(ds, pol, spec.goal, nuis) for pol in pruned]
            pick = pruned[int(np.argmax(goals))].policy_id
            if final.min_margin(pick) > 0.0:
                assert trace.decision == pick
                outcomes.add("certified")
            else:
                assert trace.decision == baseline.policy_id
                outcomes.add("fallback")
        assert {"certified", "fallback"} <= outcomes


class TestThreeArmCrossCheck:
    """snpl_run on K = 3 tabular-propensity data with a non-threshold class,
    in both modes, against the same rebuild of its documented steps: in-loop
    bounds at alpha' with |Pi~| = eta (Bernstein or Bonferroni-normal), the
    SVT replay, then the mode's joint bounds over exactly the pruned set."""

    @pytest.mark.parametrize("mode,n", (("finite", 4000), ("asymptotic", 1000)))
    def test_run_matches_documented_steps(self, mode, n):
        spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(-0.2, -0.2), alpha=0.1)
        baseline, policies = three_arm_class()
        hyper = Hyperparams(n_sim=2000, eta=2)
        loop_bounds = finite_bounds if mode == "finite" else bonferroni_normal_bounds
        outcomes = set()
        for seed in range(6):
            ds = three_arm_generate(n, np.random.default_rng(np.random.SeedSequence((53, seed))))
            trace = snpl_run(ds, policies, spec, baseline, mode, hyper, seed)
            r_nuis, r_svt, _, r_final = (
                np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
            )
            aprime = delta_star(spec.alpha, n, 0.1 / math.sqrt(n))[1]
            assert trace.svt.alpha_prime == aprime and trace.class_size == len(policies)

            nuis = fit_nuisance(ds, hyper.folds, r_nuis) if mode == "asymptotic" else None
            scores = arm_scores(ds, nuis)
            table = influence_table(ds, scores, policies, spec, baseline)
            loop = loop_bounds(table, aprime, assumed_class_size=2)

            v = laplace(trace.svt.threshold_scale, r_svt)
            assert trace.svt.threshold_noise == v
            pruned = []
            for rec, pol in zip(trace.scan, policies):
                assert rec.policy_id == pol.policy_id
                assert rec.margin == pytest.approx(loop.min_margin(pol.policy_id), abs=1e-12)
                assert rec.noise == laplace(trace.svt.query_scale, r_svt)
                assert rec.admitted == (rec.margin + rec.noise > v)
                if rec.admitted:
                    pruned.append(pol)
            assert trace.pruned_ids == tuple(p.policy_id for p in pruned)

            if not pruned:
                assert trace.final.policy_ids == () and trace.is_baseline
                outcomes.add("empty")
                continue
            final_table = influence_table(ds, scores, pruned, spec, baseline)
            if mode == "finite":
                final = finite_bounds(final_table, aprime)
                goals = [ipw_value(ds, pol, spec.goal) for pol in pruned]
            else:
                final = asymptotic_bounds(final_table, aprime, hyper.n_sim, r_final)
                goals = [dr_value(ds, pol, spec.goal, nuis) for pol in pruned]
            np.testing.assert_allclose(trace.final.margins, final.margins, rtol=0, atol=1e-12)
            pick = pruned[int(np.argmax(goals))].policy_id
            certified = final.min_margin(pick) > 0.0
            assert trace.decision == (pick if certified else baseline.policy_id)
            outcomes.add("certified" if certified else "fallback")
        assert "certified" in outcomes
