"""The batched class-statistics engine against ``influence_table``, the
per-policy reference, and run decisions with the engine against runs with
the reference."""

import functools
import gc
import math
import weakref
from dataclasses import dataclass, field

import numpy as np
import pytest

from snpl import algorithm, baselines, estimators
from snpl.algorithm import snpl_run
from snpl.baselines import bonferroni_run, hcpi_run
from conftest import (
    LoggingPolicy,
    UniformPolicy,
    tabular_generate,
    three_arm_class,
    three_arm_generate,
)
from snpl.bounds import asymptotic_bounds, bernstein_widths, margins, normal_widths, union_table
from snpl.core import (
    FEATURES,
    Dataset,
    Hyperparams,
    Policy,
    SafetySpec,
    ThresholdPolicy,
)
from snpl.estimators import (
    arm_scores,
    class_stats,
    fit_nuisance,
    influence_table,
)
from snpl.synthetic import build_class, default_baseline, generate

SPEC = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, -0.1), alpha=0.1)
BASE = default_baseline()
ARRAYS = ("covariates", "actions", "outcomes", "propensities")


def candidates(grid_size=40):
    return [p for p in build_class(grid_size) if p.policy_id != BASE.policy_id]


def scores_for(ds, estimator, seed=0):
    nuis = fit_nuisance(ds, 5, np.random.default_rng(seed)) if estimator == "dr" else None
    return arm_scores(ds, nuis)


def reference(ds, pols, spec, baseline, scores):
    """influence_table, the per-policy reference, called as class_stats is."""
    return influence_table(ds, scores, pols, spec, baseline)


def assert_matches_reference(ds, pols, spec, scores, baseline=BASE):
    got = class_stats(ds, pols, spec, baseline, scores)
    want = reference(ds, pols, spec, baseline, scores)
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
        real = estimators.policy_scores
        monkeypatch.setattr(
            estimators, "policy_scores", lambda *a: calls.append(a[1]) or real(*a)
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
        for stats in (class_stats, reference):
            with pytest.raises(ValueError):
                stats(ds, [ThresholdPolicy("g1", 0.5)], SPEC, baseline, scores)

    def test_empty_class(self):
        ds = generate(50, np.random.default_rng(10))
        got = class_stats(ds, [], SPEC, BASE, scores_for(ds, "ipw"))
        assert got.means.shape == (0, 2) and got.goal.shape == (0,)


def test_reference_means_are_accurate_at_large_n():
    # each policy's means come from its own (n, |S|) block, which numpy sums
    # pairwise; summing the wide values matrix row by row is off by up to
    # 4.4e-16 here
    ds = generate(50_000, np.random.default_rng(1))
    table = influence_table(ds, scores_for(ds, "dr"), build_class(2), SPEC, BASE)
    exact = [math.fsum(column) / ds.n for column in table.values.T]
    np.testing.assert_allclose(table.means.reshape(-1), exact, rtol=0, atol=1e-16)


def built_afresh(ds, pols, spec, baseline, scores):
    """class_stats on an independently built, checked Dataset of ds's rows:
    its store is empty and it has no parent."""
    twin = Dataset(*(getattr(ds, name).copy() for name in ARRAYS))
    return class_stats(twin, pols, spec, baseline, scores)


def assert_same_bits(got, want):
    assert got.policy_ids == want.policy_ids
    for name in ("means", "variances", "goal"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def assert_cached_call_exact(ds, pols, spec, scores, baseline=BASE):
    """A call that may reuse the dataset's stored grouping gives the bits of
    a call on a dataset that has none, and matches the per-policy
    reference."""
    got, _ = assert_matches_reference(ds, pols, spec, scores, baseline)
    assert_same_bits(got, built_afresh(ds, pols, spec, baseline, scores))
    return got


@dataclass(eq=True)
class FixedPolicy(Policy):
    """Treats with one probability on every row. A dataclass with eq=True
    sets __hash__ to None, so the policy is unhashable; two of them with
    the same probability compare equal whatever their ids."""

    policy_id: str = field(compare=False)
    treat: float
    n_actions: int = 2

    def prob_matrix(self, covariates):
        n = np.asarray(covariates).shape[0]
        return np.column_stack([np.full(n, self.treat), np.full(n, 1.0 - self.treat)])


class TestPlanCache:
    """class_stats groups a class on a dataset once and keeps the grouping in
    the dataset's store, matched to a later call by the identity of the
    candidate objects; every reuse must give the bits of a fresh grouping."""

    def test_one_class_on_two_datasets(self):
        pols = candidates()
        for seed, n in ((30, 600), (31, 250), (30, 600)):
            ds = generate(n, np.random.default_rng(seed))
            class_stats(ds, pols, SPEC, BASE, scores_for(ds, "ipw"))
            assert_cached_call_exact(ds, pols, SPEC, scores_for(ds, "dr"))

    def test_alternating_classes_evict_each_other(self):
        ds = generate(400, np.random.default_rng(32))
        scores = scores_for(ds, "dr")
        first, second = candidates(40), candidates(7)[::-1]
        want = [built_afresh(ds, pols, SPEC, BASE, scores) for pols in (first, second)]
        for _ in range(2):
            for pols, fresh in zip((first, second), want):
                got, _ = assert_matches_reference(ds, pols, SPEC, scores)
                assert_same_bits(got, fresh)

    def test_same_length_new_cutoffs_after_the_class_is_deleted(self):
        ds = generate(500, np.random.default_rng(33))
        scores = scores_for(ds, "ipw")
        pols = candidates()
        old = class_stats(ds, pols, SPEC, BASE, scores)
        shifted = [(p.feature, 0.9 * p.cutoff) for p in pols]
        del pols
        gc.collect()
        # built straight after the delete, in the same order: had the delete
        # freed the old class, its addresses could be handed out again
        pols = [ThresholdPolicy(f, c) for f, c in shifted]
        got = assert_cached_call_exact(ds, pols, SPEC, scores)
        assert len(got.policy_ids) == len(old.policy_ids)
        assert got.policy_ids != old.policy_ids

    def test_unhashable_policies_take_the_loop(self):
        ds = generate(300, np.random.default_rng(34))
        scores = scores_for(ds, "dr")
        pols = candidates(8)
        mixed = pols[:5] + [FixedPolicy("fixed-a", 0.3)] + pols[5:] + [FixedPolicy("fixed-b", 1.0)]
        with pytest.raises(TypeError):
            hash(mixed[5])
        want = reference(ds, mixed, SPEC, BASE, scores)
        for _ in range(2):
            got = assert_cached_call_exact(ds, mixed, SPEC, scores)
            for i in (5, len(mixed) - 1):
                assert np.array_equal(got.means[i], want.means[i])
                assert np.array_equal(got.variances[i], want.variances[i])
                assert got.goal[i] == want.goal[i]
        # an equal but distinct policy is another class: the grouping is matched
        # by identity, so the new id comes through
        twin = mixed[:5] + [FixedPolicy("fixed-c", 0.3)] + mixed[6:]
        assert twin == mixed
        assert class_stats(ds, twin, SPEC, BASE, scores).policy_ids[5] == "fixed-c"

    def test_three_actions_every_candidate_takes_the_loop(self):
        ds = three_arm_generate(400, np.random.default_rng(35))
        baseline, pols = three_arm_class()
        scores = scores_for(ds, "ipw")
        want = reference(ds, pols, SPEC, baseline, scores)
        for _ in range(2):
            assert_same_bits(class_stats(ds, pols, SPEC, baseline, scores), want)

    def test_keeps_at_most_one_class_alive(self):
        ds = generate(100, np.random.default_rng(36))
        scores = scores_for(ds, "ipw")
        first, second = candidates(5), candidates(5)
        refs = [[weakref.ref(p) for p in pols] for pols in (first, second)]
        class_stats(ds, first, SPEC, BASE, scores)
        class_stats(ds, second, SPEC, BASE, scores)
        del first, second
        gc.collect()
        # the dataset's store holds every policy of its last class and
        # nothing older, and is freed with the dataset
        assert all(ref() is None for ref in refs[0])
        assert all(ref() is not None for ref in refs[1])
        del ds
        gc.collect()
        assert all(ref() is None for ref in refs[1])

    def test_two_datasets_scored_alternately_group_once_each(self, monkeypatch):
        # each dataset keeps its own class's grouping, so switching between
        # them evicts nothing: every family's feature is evaluated once per
        # dataset
        sets = [generate(n, np.random.default_rng(seed)) for seed, n in ((37, 500), (38, 300))]
        classes = (candidates(40), candidates(7)[::-1])
        scores = [scores_for(ds, "dr") for ds in sets]
        calls = count_feature_calls(monkeypatch)
        got = [
            [class_stats(ds, pols, SPEC, BASE, sc) for ds, pols, sc in zip(sets, classes, scores)]
            for _ in range(3)
        ]
        assert sorted(p.feature for p in calls if p is not BASE) == sorted(FEATURES * 2)
        monkeypatch.undo()
        for ds, pols, sc, *rounds in zip(sets, classes, scores, *got):
            want = built_afresh(ds, pols, SPEC, BASE, sc)
            for stats in rounds:
                assert_same_bits(stats, want)


def split_sides(parent, rho, seed):
    """The two sides of a hcpi_run-style split of parent."""
    learn = np.zeros(parent.n, dtype=bool)
    learn[np.random.default_rng(seed).permutation(parent.n)[: int(rho * parent.n)]] = True
    return [Dataset._of_rows(parent, np.flatnonzero(side)) for side in (learn, ~learn)]


def count_feature_calls(monkeypatch):
    calls = []
    real = ThresholdPolicy.feature_values
    monkeypatch.setattr(
        ThresholdPolicy, "feature_values", lambda self, X: calls.append(self) or real(self, X)
    )
    return calls


class TestStoredBuckets:
    """class_stats keeps each family's buckets with the dataset they were
    computed on: a later call on that dataset reuses them, and a split side
    takes its parent's at its rows. Either way the bits must be those of a
    call on an independently built dataset."""

    @pytest.mark.parametrize("grid_size", (2, 100))
    @pytest.mark.parametrize("rho", (0.25, 0.5, 0.75))
    def test_split_sides_take_their_parents_buckets(self, monkeypatch, rho, grid_size):
        parent = generate(800, np.random.default_rng(40))
        pols = candidates(grid_size)
        class_stats(parent, pols, SPEC, BASE, scores_for(parent, "ipw"))
        for side in split_sides(parent, rho, 41):
            scores = scores_for(side, "dr")
            calls = count_feature_calls(monkeypatch)
            got = class_stats(side, pols, SPEC, BASE, scores)
            # only the baseline's contraction reads a feature: the rows are
            # bucketed from the parent's buckets
            assert calls == [BASE]
            monkeypatch.undo()
            assert_same_bits(got, built_afresh(side, pols, SPEC, BASE, scores))

    @pytest.mark.parametrize("grid_size", (2, 100))
    def test_second_call_on_a_dataset_reuses_its_buckets(self, monkeypatch, grid_size):
        # as snpl and bonferroni do: the same class, scores of another stream
        ds = generate(600, np.random.default_rng(42))
        pols = candidates(grid_size)
        class_stats(ds, pols, SPEC, BASE, scores_for(ds, "dr", seed=1))
        scores = scores_for(ds, "dr", seed=2)
        calls = count_feature_calls(monkeypatch)
        got = class_stats(ds, pols, SPEC, BASE, scores)
        assert calls == [BASE]
        monkeypatch.undo()
        assert_same_bits(got, built_afresh(ds, pols, SPEC, BASE, scores))

    def test_mixed_candidates_and_a_class_the_parent_never_saw(self):
        parent = generate(500, np.random.default_rng(43))
        pols = candidates(8)
        mixed = pols[:5] + [FixedPolicy("fixed", 0.3)] + pols[5:] + [UniformPolicy(2)]
        # the parent's store holds another class's buckets: a side buckets
        # its own rows
        class_stats(parent, candidates(20), SPEC, BASE, scores_for(parent, "ipw"))
        for side in split_sides(parent, 0.5, 44):
            scores = scores_for(side, "dr")
            got, _ = assert_matches_reference(side, mixed, SPEC, scores)
            assert_same_bits(got, built_afresh(side, mixed, SPEC, BASE, scores))
        # the parent's store holds this class's buckets: a side indexes them
        class_stats(parent, mixed, SPEC, BASE, scores_for(parent, "ipw"))
        for side in split_sides(parent, 0.25, 45):
            scores = scores_for(side, "ipw")
            assert_same_bits(
                class_stats(side, mixed, SPEC, BASE, scores),
                built_afresh(side, mixed, SPEC, BASE, scores),
            )

    def test_a_side_of_an_unscored_parent_groups_the_parent_once(self, monkeypatch):
        parent = generate(800, np.random.default_rng(49))
        pols = candidates(100)
        sides = split_sides(parent, 0.5, 50)
        scores = [scores_for(side, "dr") for side in sides]
        calls = count_feature_calls(monkeypatch)
        got = [class_stats(side, pols, SPEC, BASE, sc) for side, sc in zip(sides, scores)]
        # the first side groups the parent, once per family; the second
        # side and the parent itself then read no feature of a family
        assert sorted(p.feature for p in calls if p is not BASE) == sorted(FEATURES)
        del calls[:]
        class_stats(parent, pols, SPEC, BASE, scores_for(parent, "ipw"))
        assert calls == [BASE]
        monkeypatch.undo()
        for side, sc, stats in zip(sides, scores, got):
            assert_same_bits(stats, built_afresh(side, pols, SPEC, BASE, sc))

    def test_three_actions_store_nothing(self):
        # K = 3: families are off, every candidate takes the loop
        parent = three_arm_generate(600, np.random.default_rng(46))
        baseline, pols = three_arm_class()
        class_stats(parent, pols, SPEC, baseline, scores_for(parent, "ipw"))
        for side in split_sides(parent, 0.75, 47):
            scores = scores_for(side, "ipw")
            assert_same_bits(
                class_stats(side, pols, SPEC, baseline, scores),
                built_afresh(side, pols, SPEC, baseline, scores),
            )
            assert side._derived == {}
        assert parent._derived == {}

    @pytest.mark.parametrize("method", ("snpl", "bonferroni", "ds"))
    def test_a_run_keeps_no_dataset_or_class_alive(self, monkeypatch, method):
        given = []  # every dataset class_stats is handed, split sides included

        def spy(dataset, *args):
            given.append(weakref.ref(dataset))
            return class_stats(dataset, *args)

        monkeypatch.setattr(algorithm, "class_stats", spy)
        monkeypatch.setattr(baselines, "class_stats", spy)
        ds = generate(400, np.random.default_rng(48))
        pols = candidates(10)
        hyper = Hyperparams(n_sim=2000, eta=3)
        runs = {"snpl": snpl_run, "bonferroni": bonferroni_run}
        run = runs.get(method, functools.partial(hcpi_run, rho=0.5))
        run(ds, pols, SPEC, BASE, "asymptotic", hyper, seed=1)
        assert len(given) == 1
        # the class lives as long as the datasets it was scored on, and no
        # longer: nothing outside them holds it
        refs = [weakref.ref(p) for p in pols] + given + [weakref.ref(ds)]
        del pols, ds, given
        gc.collect()
        assert all(ref() is None for ref in refs)


GOAL_BEYOND = SafetySpec(goal=3, guardrails=(1, 2), weights=(0.0, -0.1), alpha=0.1)
GUARDRAIL_BEYOND = SafetySpec(goal=1, guardrails=(1, 3), weights=(0.0, -0.1), alpha=0.1)


@pytest.mark.parametrize(
    "spec,message",
    ((GOAL_BEYOND, "goal index 3"), (GUARDRAIL_BEYOND, "guardrail index 3")),
    ids=("goal", "guardrail"),
)
@pytest.mark.parametrize(
    "entry",
    ("snpl_run", "hcpi_run", "bonferroni_run", "class_stats", "influence_table"),
)
def test_outcome_index_beyond_the_data_is_a_value_error(entry, spec, message):
    ds = generate(200, np.random.default_rng(0))
    pols = build_class(3)
    calls = {
        "snpl_run": lambda: snpl_run(ds, pols, spec, BASE, "finite"),
        "hcpi_run": lambda: hcpi_run(ds, pols, spec, BASE, "finite", rho=0.5),
        "bonferroni_run": lambda: bonferroni_run(ds, pols, spec, BASE, "finite"),
        "class_stats": lambda: class_stats(ds, pols, spec, BASE, arm_scores(ds)),
        "influence_table": lambda: influence_table(ds, arm_scores(ds), pols, spec, BASE),
    }
    with pytest.raises(ValueError, match=f"{message} exceeds the 2 outcomes"):
        calls[entry]()


class TestRecordContext:
    """A record carries the n, c, spec and baseline of the rows and inputs
    it was built from, and the bound builders read them from it: here the
    learning side of a split, whose propensity floor differs from the full
    data's."""

    UPPER = SafetySpec(
        goal=1, guardrails=(1, 2), weights=(0.0, -0.1), alpha=0.1, senses=("lower", "upper")
    )

    @staticmethod
    def learning_side(rho=0.5):
        ds = tabular_generate(400, np.random.default_rng(21))
        rows = np.sort(np.random.default_rng(23).permutation(ds.n)[: int(rho * ds.n)])
        part = Dataset(
            ds.covariates[rows], ds.actions[rows], ds.outcomes[rows], ds.propensities[rows]
        )
        assert part.n == 200 and part.c != ds.c
        return part

    @pytest.mark.parametrize(
        "build", (class_stats, reference), ids=("class_stats", "influence_table")
    )
    def test_records_carry_their_rows(self, build):
        part = self.learning_side()
        pols = candidates(5)
        record = build(part, pols, SPEC, BASE, arm_scores(part))
        assert (record.n, record.c) == (part.n, part.c)
        assert record.spec is SPEC and record.baseline_id == BASE.policy_id
        assert record.policy_count == len(pols)

    def test_bound_builders_read_the_record(self):
        part = self.learning_side()
        pols = candidates(5)
        scores = arm_scores(part)
        stats = class_stats(part, pols, self.UPPER, BASE, scores)
        table = influence_table(part, scores, pols, self.UPPER, BASE)
        finite = union_table(stats, "finite", 0.1)
        np.testing.assert_array_equal(
            finite.widths,
            bernstein_widths(stats.variances, self.UPPER, 0.1, len(pols), part.n, part.c),
        )
        normal = union_table(stats, "asymptotic", 0.1, 7)
        np.testing.assert_array_equal(
            normal.widths, normal_widths(stats.variances, self.UPPER, 0.1, 7, part.n)
        )
        supt = asymptotic_bounds(table, 0.1, 1000, 0)
        assert supt.meta["n"] == part.n
        for record, out in ((stats, finite), (stats, normal), (table, supt)):
            assert out.spec is record.spec
            np.testing.assert_array_equal(
                out.margins, margins(record.means, out.widths, record.spec)
            )


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
    monkeypatch.setattr(algorithm, "class_stats", reference)
    monkeypatch.setattr(baselines, "class_stats", reference)
    slow = [_decisions(ds, policies, spec, mode, seed) for ds, seed in runs]
    assert fast == slow
    if weights == (-0.4, -0.4):
        decided = [d[0] for run in fast for d in run.values()]
        assert sum(d != BASE.policy_id for d in decided) >= 10
