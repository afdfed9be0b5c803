import math

import numpy as np
import pytest

from snpl.baselines import bonferroni_run, hcpi_run
from snpl.bounds import (
    asymptotic_bounds,
    bonferroni_normal_bounds,
    finite_bounds,
    margins,
    normal_quantile,
    union_table,
)
from conftest import dr_value, ipw_value, tabular_generate, three_arm_class, three_arm_generate
from snpl.core import Dataset, Hyperparams, SafetySpec, ThresholdPolicy, Trace
from snpl.estimators import arm_scores, class_stats, fit_nuisance, influence_table
from snpl.synthetic import build_class, default_baseline, generate


def two_guardrails(weights=(0.0, -0.1)) -> SafetySpec:
    return SafetySpec(goal=1, guardrails=(1, 2), weights=weights, alpha=0.1)


def subset(dataset: Dataset, rows) -> Dataset:
    rows = np.asarray(rows, dtype=np.int64)
    return Dataset(
        dataset.covariates[rows], dataset.actions[rows], dataset.outcomes[rows],
        dataset.propensities[rows],
    )


class TestSplit:
    def test_even_split_arithmetic(self):
        ds = generate(1000, np.random.default_rng(0))
        trace = hcpi_run(
            ds, [ThresholdPolicy("g1", 0.2)], two_guardrails(), default_baseline(),
            rho=0.5, mode="finite", seed=1,
        )
        assert len(trace.split.learning) == 500
        assert len(trace.split.testing) == 500

    def test_floor_and_cover(self):
        ds = generate(11, np.random.default_rng(1))
        trace = hcpi_run(
            ds, [ThresholdPolicy("g1", 0.2)], two_guardrails(), default_baseline(),
            rho=0.25, mode="finite", seed=2,
        )
        assert len(trace.split.learning) == 2  # floor(0.25 * 11)
        rows = np.concatenate([trace.split.learning, trace.split.testing])
        assert sorted(rows.tolist()) == list(range(11))


class TestHcpi:
    def candidates(self):
        return [ThresholdPolicy("g1", c) for c in (0.0, 0.2, 0.4, 0.6)]

    def test_method_tag_tracks_rho(self):
        ds = generate(200, np.random.default_rng(2))
        for rho, tag in ((0.25, "ds-25"), (0.5, "ds-50"), (0.75, "ds-75")):
            trace = hcpi_run(
                ds, self.candidates(), two_guardrails(), default_baseline(),
                rho=rho, mode="finite", seed=3,
            )
            assert trace.method == tag

    def test_rho_domain(self):
        ds = generate(50, np.random.default_rng(3))
        for rho in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="rho"):
                hcpi_run(
                    ds, self.candidates(), two_guardrails(), default_baseline(),
                    rho=rho, mode="finite", seed=0,
                )

    def test_split_too_small_for_folds(self):
        ds = generate(8, np.random.default_rng(4))
        with pytest.raises(ValueError, match="more folds than observations"):
            hcpi_run(
                ds, self.candidates(), two_guardrails(), default_baseline(),
                rho=0.5, mode="asymptotic", seed=0,
            )

    def test_decision_gate(self):
        ds = generate(800, np.random.default_rng(5))
        trace = hcpi_run(
            ds, self.candidates(), two_guardrails(), default_baseline(),
            rho=0.5, mode="finite", seed=6,
        )
        passed = trace.final.min_margin(trace.selected_id) > 0.0
        if passed:
            assert trace.decision == trace.selected_id
            assert trace.certified_ids == (trace.selected_id,)
        else:
            assert trace.decision == trace.baseline_id
            assert trace.certified_ids == ()
        assert trace.final.meta["class_size"] == 1  # single-policy certificate

    def test_learning_selection_first_branch(self):
        # w=-0.9 leaves every candidate clearly safe, so f reduces to the
        # learning-split goal estimate and the argmax is the certified pick
        ds = generate(2000, np.random.default_rng(6))
        spec = two_guardrails(weights=(-0.9, -0.9))
        trace = hcpi_run(
            ds, self.candidates(), spec, default_baseline(), rho=0.5, mode="finite", seed=7
        )
        assert trace.selected_score >= 0.0
        data_l = subset(ds, trace.split.learning)
        table = influence_table(
            data_l, arm_scores(data_l), self.candidates(), spec, default_baseline()
        )
        bt = finite_bounds(table, spec.alpha, assumed_class_size=4)
        margins = {pid: bt.min_margin(pid) for pid in table.policy_ids}
        assert all(m > 0.0 for m in margins.values())
        # score of the selected policy must be its learning-split V_g
        by_id = dict(zip(table.policy_ids, self.candidates()))
        assert trace.selected_score == pytest.approx(
            ipw_value(data_l, by_id[trace.selected_id], 1), abs=1e-12
        )

    def test_learning_selection_second_branch(self):
        # every candidate clearly unsafe (always-treat family vs w=0 floor):
        # the least-bad learning margin is selected and carried as the score
        ds = generate(600, np.random.default_rng(7))
        spec = two_guardrails(weights=(0.0, 0.0))
        cands = [ThresholdPolicy("g5", c) for c in (0.2, 0.5, 0.8)]
        trace = hcpi_run(ds, cands, spec, default_baseline(), rho=0.5, mode="finite", seed=8)
        data_l = subset(ds, trace.split.learning)
        table = influence_table(data_l, arm_scores(data_l), cands, spec, default_baseline())
        bt = finite_bounds(table, spec.alpha, assumed_class_size=3)
        margins = {pid: bt.min_margin(pid) for pid in table.policy_ids}
        assert all(m < 0.0 for m in margins.values())
        best = max(margins, key=margins.__getitem__)
        assert trace.selected_id == best
        assert trace.selected_score == pytest.approx(margins[best], abs=1e-12)

    def test_splits_stay_disjoint(self):
        ds = generate(333, np.random.default_rng(8))
        trace = hcpi_run(
            ds, self.candidates(), two_guardrails(), default_baseline(),
            rho=0.75, mode="finite", seed=9,
        )
        learn, test = set(trace.split.learning), set(trace.split.testing)
        assert not learn & test
        assert learn | test == set(range(333))

    def test_asymptotic_mode(self):
        ds = generate(400, np.random.default_rng(9))
        trace = hcpi_run(
            ds, self.candidates(), two_guardrails(), default_baseline(),
            rho=0.5, mode="asymptotic", hyper=Hyperparams(n_sim=5000), seed=10,
        )
        assert trace.final.method == "supt"
        assert trace.final.level == 0.1

    def test_determinism(self):
        ds = generate(300, np.random.default_rng(10))
        args = (ds, self.candidates(), two_guardrails(), default_baseline())
        a = hcpi_run(*args, rho=0.5, mode="finite", seed=11)
        b = hcpi_run(*args, rho=0.5, mode="finite", seed=11)
        assert a.to_json_dict() == b.to_json_dict()
        c = hcpi_run(*args, rho=0.5, mode="finite", seed=12)
        assert not np.array_equal(c.split.learning, a.split.learning)


class TestBonferroni:
    def test_single_test_reduction(self):
        # |Pi|=1, |S|=1: the margin is an uncorrected level-alpha test
        spec = SafetySpec(goal=1, guardrails=(1,), weights=(-0.5,), alpha=0.1)
        ds = generate(500, np.random.default_rng(11))
        cand = ThresholdPolicy("g1", 0.0)  # never treat: V1 = 0.5, clearly safe
        trace = bonferroni_run(ds, [cand], spec, default_baseline(), "finite", seed=13)
        table = influence_table(ds, arm_scores(ds), [cand], spec, default_baseline())
        bt = finite_bounds(table, spec.alpha, assumed_class_size=1)
        assert trace.decision == cand.policy_id
        assert trace.certified_ids == (cand.policy_id,)
        assert trace.final.margins[0, 0] == pytest.approx(bt.margins[0, 0], abs=1e-12)

    def test_unsafe_class_returns_baseline(self):
        spec = two_guardrails(weights=(0.0, 0.0))
        ds = generate(500, np.random.default_rng(12))
        cands = [ThresholdPolicy("g5", c) for c in (0.3, 0.7)]
        trace = bonferroni_run(ds, cands, spec, default_baseline(), "finite", seed=14)
        assert trace.is_baseline
        assert trace.certified_ids == ()
        assert trace.final.policy_ids == ()

    def test_order_invariance(self):
        ds = generate(1500, np.random.default_rng(13))
        spec = two_guardrails(weights=(-0.9, -0.9))
        cands = [ThresholdPolicy("g1", c) for c in (0.1, 0.3, 0.5001, 0.7, 0.9)]
        fwd = bonferroni_run(ds, cands, spec, default_baseline(), "finite", seed=15)
        rev = bonferroni_run(ds, cands[::-1], spec, default_baseline(), "finite", seed=15)
        assert fwd.decision == rev.decision
        assert set(fwd.certified_ids) == set(rev.certified_ids)

    def test_decision_is_goal_argmax_among_certified(self):
        ds = generate(2500, np.random.default_rng(14))
        spec = two_guardrails(weights=(-0.9, -0.9))
        cands = [ThresholdPolicy("g1", c) for c in (0.1, 0.4, 0.8)]
        trace = bonferroni_run(ds, cands, spec, default_baseline(), "finite", seed=16)
        assert trace.certified_ids
        assert trace.decision == max(trace.certified_ids, key=trace.goal_values.__getitem__)

    def test_asymptotic_quantile(self):
        ds = generate(600, np.random.default_rng(15))
        spec = two_guardrails(weights=(-0.9, -0.9))
        cands = [ThresholdPolicy("g1", c) for c in (0.2, 0.6)]
        trace = bonferroni_run(ds, cands, spec, default_baseline(), "asymptotic", seed=17)
        if trace.certified_ids:
            assert trace.final.method == "bonferroni-normal"
            # per-test level alpha / (|Pi| |S|) = 0.1 / 4
            assert trace.final.meta["z"] == pytest.approx(
                normal_quantile(1.0 - 0.025), abs=1e-12
            )

    def test_trace_shape(self):
        ds = generate(200, np.random.default_rng(16))
        trace = bonferroni_run(
            ds, [ThresholdPolicy("g1", 0.2)], two_guardrails(), default_baseline(),
            "finite", seed=18,
        )
        assert isinstance(trace, Trace)
        assert trace.method == "bonferroni"
        assert trace.split is None and trace.selected_id is None
        blob = trace.to_json_dict()
        assert "split" not in blob and "learning" not in blob

    def test_empty_class_rejected(self):
        ds = generate(100, np.random.default_rng(17))
        with pytest.raises(ValueError, match="empty policy class"):
            bonferroni_run(ds, [default_baseline()], two_guardrails(), default_baseline(), "finite")


@pytest.mark.parametrize("method", ("ds-50", "bonferroni"))
@pytest.mark.parametrize("feature,cutoff", (("g1", 0.3), ("g5", 0.5)))
def test_per_test_level_at_or_above_half_raises_before_deciding(method, feature, cutoff):
    # alpha = 0.6 over one guardrail: per-test level 0.6 at hcpi's selection
    # (|Pi~| = 1) and at bonferroni's union with one policy, where a normal
    # width would be negative. g1@0.3 would then certify; the always-treat
    # g5@0.5 breaks the guardrail and falls back.
    ds = generate(400, np.random.default_rng(1))
    spec = SafetySpec(goal=1, guardrails=(1,), weights=(0.0,), alpha=0.6)
    cands = [ThresholdPolicy(feature, cutoff)]
    hyper = Hyperparams(n_sim=2000)
    with pytest.raises(ValueError, match="per-test level"):
        if method == "bonferroni":
            bonferroni_run(ds, cands, spec, default_baseline(), "asymptotic", hyper, seed=0)
        else:
            hcpi_run(ds, cands, spec, default_baseline(), "asymptotic", hyper, seed=0, rho=0.5)


class TestBonferroniTraceMatchesDecision:
    """The trace's final bounds are the certified rows of the statistics the
    decision was made on: class-statistics means, union widths over the
    whole class at alpha, and their margins, equal to the last bit."""

    @pytest.mark.parametrize("mode", ("finite", "asymptotic"))
    @pytest.mark.parametrize(
        "weights,n,certifies", (((0.0, 0.0), 300, False), ((-0.9, -0.9), 1000, True))
    )
    def test_final_rows_are_the_decision_statistics(self, mode, weights, n, certifies):
        spec, baseline = two_guardrails(weights), default_baseline()
        policies = build_class(40)
        candidates = [p for p in policies if p.policy_id != baseline.policy_id]
        m = len(candidates)
        for seed in range(3):
            ds = generate(n, np.random.default_rng(np.random.SeedSequence((71, seed))))
            trace = bonferroni_run(
                ds, policies, spec, baseline, mode, Hyperparams(n_sim=2000), seed=seed
            )
            (nuis_seed,) = np.random.SeedSequence(seed).spawn(1)
            nuis = (
                fit_nuisance(ds, 5, np.random.default_rng(nuis_seed))
                if mode == "asymptotic" else None
            )
            stats = class_stats(ds, candidates, spec, baseline, arm_scores(ds, nuis))
            meta = union_table(stats, mode, spec.alpha).meta
            if mode == "finite":
                L, R = meta["log_term"], (2.0 + np.asarray(spec.weights)) / ds.c
                widths = np.sqrt(stats.variances) * math.sqrt(2.0 * L / n) + 3.0 * R * L / n
            else:
                widths = meta["z"] * np.sqrt(stats.variances) / math.sqrt(n)
            assert meta["class_size"] == m
            margin = margins(stats.means, widths, spec)
            rows = np.flatnonzero(margin.min(axis=1) > 0.0)
            assert bool(rows.size) == certifies

            entries = trace.to_json_dict()["final_bounds"]["entries"]
            assert [e["policy"] for e in entries[:: spec.s_count]] == [
                candidates[i].policy_id for i in rows
            ]
            assert [e["estimate"] for e in entries] == stats.means[rows].ravel().tolist()
            assert [e["width"] for e in entries] == widths[rows].ravel().tolist()
            assert [e["margin"] for e in entries] == margin[rows].ravel().tolist()
            assert trace.certified_ids == tuple(trace.final.certified_ids())
            assert all(trace.final.min_margin(pid) > 0.0 for pid in trace.certified_ids)
            assert trace.baseline_goal_value == stats.baseline_goal


class TestAsymptoticCrossCheck:
    """Decision-level checks of the asymptotic baselines (the mode of the
    replicated benchmark) against a per-policy rebuild of their documented
    rules from the public estimator and bound tables, drawing every random
    quantity from the run's own spawned streams. Beyond the benchmark's
    data and spec: an upper-sense guardrail, and tabular propensities that
    vary with the covariates."""

    hyper = Hyperparams(n_sim=5000)
    seeds = range(6)
    variants = {
        "default": (two_guardrails(), generate),
        "upper-sense": (
            SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, 0.0), alpha=0.1,
                       senses=("lower", "upper")),
            generate,
        ),
        "tabular": (two_guardrails(), tabular_generate),
    }

    def setup_method(self):
        # build_class(5) holds the baseline rule g1@0.5, which both runs drop
        self.policies = build_class(5)
        base_id = default_baseline().policy_id
        self.candidates = [p for p in self.policies if p.policy_id != base_id]
        assert len(self.candidates) == len(self.policies) - 1

    def datasets(self, make_data):
        for seed in self.seeds:
            yield seed, make_data(1000, np.random.default_rng(np.random.SeedSequence((31, seed))))

    @pytest.mark.parametrize(
        "rho,variant",
        [pytest.param(rho, "default", id=str(rho)) for rho in (0.25, 0.5, 0.75)]
        + [pytest.param(0.5, v, id=f"0.5-{v}") for v in ("upper-sense", "tabular")],
    )
    def test_hcpi_matches_documented_rule(self, rho, variant):
        spec, make_data = self.variants[variant]
        baseline, folds = default_baseline(), self.hyper.folds
        decisions = set()
        for seed, ds in self.datasets(make_data):
            trace = hcpi_run(
                ds, self.policies, spec, baseline, "asymptotic", self.hyper, seed=seed, rho=rho
            )
            r_split, r_learn, r_test, r_supt = (
                np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
            )
            perm = r_split.permutation(ds.n)
            n_learn = int(rho * ds.n)
            learn, test = np.sort(perm[:n_learn]), np.sort(perm[n_learn:])
            np.testing.assert_array_equal(trace.split.learning, learn)
            np.testing.assert_array_equal(trace.split.testing, test)

            # learning split: per-policy Bonferroni-normal over S only, then
            # f(pi) = V_g if M'(pi) >= 0 else M'(pi), first argmax
            data_l = subset(ds, learn)
            nuis_l = fit_nuisance(data_l, folds, r_learn)
            scores_l = arm_scores(data_l, nuis_l)
            table = influence_table(data_l, scores_l, self.candidates, spec, baseline)
            bt = bonferroni_normal_bounds(table, spec.alpha, assumed_class_size=1)
            f = []
            for pol in self.candidates:
                margin = bt.min_margin(pol.policy_id)
                f.append(dr_value(data_l, pol, spec.goal, nuis_l) if margin >= 0.0 else margin)
            pick = self.candidates[int(np.argmax(f))]
            assert trace.selected_id == pick.policy_id
            assert trace.selected_score == pytest.approx(max(f), abs=1e-12)

            # testing split: sup-t over the selected policy alone at alpha
            data_t = subset(ds, test)
            nuis_t = fit_nuisance(data_t, folds, r_test)
            table_t = influence_table(data_t, arm_scores(data_t, nuis_t), [pick], spec, baseline)
            final = asymptotic_bounds(table_t, spec.alpha, self.hyper.n_sim, r_supt)
            np.testing.assert_allclose(trace.final.margins, final.margins, rtol=0, atol=1e-12)
            passed = final.min_margin(pick.policy_id) > 0.0
            assert trace.decision == (pick.policy_id if passed else baseline.policy_id)
            decisions.add(trace.is_baseline)
        # the seeds exercise both the certified and the fallback outcome
        assert decisions == {True, False}

    def test_bonferroni_matches_documented_rule(self):
        self.check_bonferroni("default")

    @pytest.mark.parametrize("variant", ("upper-sense", "tabular"))
    def test_bonferroni_variant_matches_documented_rule(self, variant):
        self.check_bonferroni(variant)

    def check_bonferroni(self, variant):
        (spec, make_data), baseline = self.variants[variant], default_baseline()
        m = len(self.candidates)
        decisions = set()
        for seed, ds in self.datasets(make_data):
            trace = bonferroni_run(
                ds, self.policies, spec, baseline, "asymptotic", self.hyper, seed=seed
            )
            assert trace.class_size == m
            (nuis_seed,) = np.random.SeedSequence(seed).spawn(1)
            nuis = fit_nuisance(ds, self.hyper.folds, np.random.default_rng(nuis_seed))
            table = influence_table(ds, arm_scores(ds, nuis), self.candidates, spec, baseline)
            bt = bonferroni_normal_bounds(table, spec.alpha, assumed_class_size=m)
            certified = bt.certified_ids()
            assert trace.certified_ids == tuple(certified)
            goals = {
                pol.policy_id: dr_value(ds, pol, spec.goal, nuis)
                for pol in self.candidates
                if pol.policy_id in certified
            }
            want = max(certified, key=goals.__getitem__) if certified else baseline.policy_id
            assert trace.decision == want
            rows = [bt.policy_ids.index(pid) for pid in certified]
            np.testing.assert_allclose(trace.final.margins, bt.margins[rows], rtol=0, atol=1e-12)
            decisions.add(trace.is_baseline)
        assert decisions == {True, False}


class TestThreeArmCrossCheck:
    """Both baselines on K = 3 tabular-propensity data with a non-threshold
    class, in both modes, against a rebuild of their documented rules: the
    mode's scores (IPW, or DR cross-fitted from the run's own stream), then
    Bernstein bounds (finite) or Bonferroni-normal / sup-t bounds
    (asymptotic)."""

    spec = two_guardrails(weights=(-0.2, -0.2))
    hyper = Hyperparams(n_sim=2000)
    sizes = {"finite": 4000, "asymptotic": 1000}

    def datasets(self, mode):
        for seed in range(6):
            rng = np.random.default_rng(np.random.SeedSequence((53, seed)))
            yield seed, three_arm_generate(self.sizes[mode], rng)

    def scores(self, ds, mode, rng):
        nuis = fit_nuisance(ds, self.hyper.folds, rng) if mode == "asymptotic" else None
        return arm_scores(ds, nuis)

    @pytest.mark.parametrize("mode", ("finite", "asymptotic"))
    def test_hcpi_matches_documented_rule(self, mode):
        spec, (baseline, policies) = self.spec, three_arm_class()
        decisions = set()
        for seed, ds in self.datasets(mode):
            trace = hcpi_run(ds, policies, spec, baseline, mode, self.hyper, seed=seed, rho=0.5)
            r_split, r_learn, r_test, r_supt = (
                np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
            )
            perm = r_split.permutation(ds.n)
            data_l = subset(ds, np.sort(perm[: ds.n // 2]))
            data_t = subset(ds, np.sort(perm[ds.n // 2 :]))

            scores_l = self.scores(data_l, mode, r_learn)
            table = influence_table(data_l, scores_l, policies, spec, baseline)
            if mode == "finite":
                bt = finite_bounds(table, spec.alpha, assumed_class_size=len(policies))
            else:
                bt = bonferroni_normal_bounds(table, spec.alpha, assumed_class_size=1)
            f = []
            for pol in policies:
                margin = bt.min_margin(pol.policy_id)
                goal = policy_mean(scores_l, pol, data_l, spec.goal)
                f.append(goal if margin >= 0.0 else margin)
            pick = policies[int(np.argmax(f))]
            assert trace.selected_id == pick.policy_id
            assert trace.selected_score == pytest.approx(max(f), abs=1e-12)

            scores_t = self.scores(data_t, mode, r_test)
            table_t = influence_table(data_t, scores_t, [pick], spec, baseline)
            if mode == "finite":
                final = finite_bounds(table_t, spec.alpha, assumed_class_size=1)
            else:
                final = asymptotic_bounds(table_t, spec.alpha, self.hyper.n_sim, r_supt)
            np.testing.assert_allclose(trace.final.margins, final.margins, rtol=0, atol=1e-12)
            passed = final.min_margin(pick.policy_id) > 0.0
            assert trace.decision == (pick.policy_id if passed else baseline.policy_id)
            assert trace.baseline_goal_value == pytest.approx(
                policy_mean(scores_t, baseline, data_t, spec.goal), abs=1e-12
            )
            decisions.add(trace.is_baseline)
        assert decisions == {True, False}

    @pytest.mark.parametrize("mode", ("finite", "asymptotic"))
    def test_bonferroni_matches_documented_rule(self, mode):
        spec, (baseline, policies) = self.spec, three_arm_class()
        m = len(policies)
        for seed, ds in self.datasets(mode):
            trace = bonferroni_run(ds, policies, spec, baseline, mode, self.hyper, seed=seed)
            (nuis_seed,) = np.random.SeedSequence(seed).spawn(1)
            scores = self.scores(ds, mode, np.random.default_rng(nuis_seed))
            table = influence_table(ds, scores, policies, spec, baseline)
            if mode == "finite":
                bt = finite_bounds(table, spec.alpha, assumed_class_size=m)
            else:
                bt = bonferroni_normal_bounds(table, spec.alpha, assumed_class_size=m)
            certified = bt.certified_ids()
            assert trace.certified_ids == tuple(certified)
            assert certified
            goals = {pid: policy_mean(scores, pol, ds, spec.goal)
                     for pid, pol in zip(table.policy_ids, policies) if pid in certified}
            assert trace.decision == max(certified, key=goals.__getitem__)
            rows = [bt.policy_ids.index(pid) for pid in certified]
            np.testing.assert_allclose(trace.final.margins, bt.margins[rows], rtol=0, atol=1e-12)


def policy_mean(scores, policy, dataset, outcome) -> float:
    """V_j(pi) from per-arm scores, contracted row by row."""
    P = policy.prob_matrix(dataset.covariates)
    return float((P * scores[:, :, outcome - 1]).sum(axis=1).mean())
