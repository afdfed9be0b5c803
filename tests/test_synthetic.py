import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from snpl import synthetic
from snpl.core import SafetySpec, validate_dataset
from snpl.synthetic import (
    FEATURES,
    ThresholdPolicy,
    build_class,
    default_baseline,
    generate,
    oracle_safe,
    true_values,
    truth_table,
)

from conftest import mc_true_values


class TestGenerate:
    def test_shapes_and_ranges(self):
        ds = generate(500, np.random.default_rng(0))
        assert ds.covariates.shape == (500, 3)
        assert set(np.unique(ds.actions)) <= {1, 2}
        assert set(np.unique(ds.outcomes)) <= {0.0, 1.0}
        assert ds.c == 0.5
        validate_dataset(ds)

    def test_seed_reproducibility(self):
        a = generate(100, np.random.default_rng(7))
        b = generate(100, np.random.default_rng(7))
        assert np.array_equal(a.covariates, b.covariates)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.outcomes, b.outcomes)
        c = generate(100, np.random.default_rng(8))
        assert not np.array_equal(a.outcomes, c.outcomes)

    def test_conditional_outcome_means(self):
        ds = generate(200_000, np.random.default_rng(1))
        treated = ds.actions == 1
        assert treated.mean() == pytest.approx(0.5, abs=0.01)
        # E[Y1 | treated] = 0.5 (1 - E[X2]) = 0.25; untreated arms stay at 0.5
        assert ds.outcomes[treated, 0].mean() == pytest.approx(0.25, abs=0.01)
        assert ds.outcomes[~treated, 0].mean() == pytest.approx(0.5, abs=0.01)
        # E[Y2 | treated] = 0.5 (1 + E[X1 X3]) = 0.625
        assert ds.outcomes[treated, 1].mean() == pytest.approx(0.625, abs=0.01)
        assert ds.outcomes[~treated, 1].mean() == pytest.approx(0.5, abs=0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            generate(0, np.random.default_rng(0))


class TestThresholdPolicy:
    def test_policy_id_format(self):
        assert ThresholdPolicy("g3", 0.25).policy_id == "g3@0.25"
        assert default_baseline().policy_id == "g1@0.5"

    def test_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown feature"):
            ThresholdPolicy("g9", 0.5)

    def test_cutoff_range(self):
        with pytest.raises(ValueError, match="cutoff"):
            ThresholdPolicy("g1", 1.5)

    def test_g5_always_treats(self):
        pol = ThresholdPolicy("g5", 0.0)
        X = np.random.default_rng(2).random((50, 3))
        assert pol.treat_mask(X).all()

    def test_zero_cutoff_never_treats_on_positive_features(self):
        X = np.random.default_rng(3).random((50, 3)) + 0.01
        for f in ("g1", "g2", "g3", "g4"):
            assert not ThresholdPolicy(f, 0.0).treat_mask(X).any()


class TestBuildClass:
    def test_size_and_order(self):
        pols = build_class(4)
        assert len(pols) == 20
        # families cycle within each cutoff block, cutoffs ascend across blocks
        assert [p.feature for p in pols[:5]] == ["g1", "g2", "g3", "g4", "g5"]
        block_cutoffs = [pols[5 * i].cutoff for i in range(4)]
        assert block_cutoffs == sorted(block_cutoffs)
        assert block_cutoffs[0] == 0.0 and block_cutoffs[-1] == 1.0
        for i, p in enumerate(pols):
            assert p.cutoff == block_cutoffs[i // 5]

    def test_unique_ids(self):
        pols = build_class(500)
        assert len({p.policy_id for p in pols}) == 2500

    def test_grid_floor(self):
        with pytest.raises(ValueError, match="grid_size"):
            build_class(1)

    def test_paper_class_treat_masks(self):
        # pins the documented class as it stands: g5 <= 0 sits below every
        # cutoff, so all 500 g5 rules treat every row, and always-treat is
        # the mask of 611 of the 2,500 rules
        X = generate(1000, np.random.default_rng(0)).covariates
        pols = build_class(500)
        masks = [p.treat_mask(X).tobytes() for p in pols]
        always = np.ones(len(X), dtype=bool).tobytes()
        assert len(pols) == 2500
        assert len(set(masks)) == 1377
        assert masks.count(always) == 611
        assert all(m == always for p, m in zip(pols, masks) if p.feature == "g5")


class TestTrueValues:
    def test_baseline_values(self):
        assert true_values(default_baseline()) == pytest.approx((0.375, 0.53125))

    def test_always_treat_values(self):
        assert true_values(ThresholdPolicy("g5", 0.7)) == pytest.approx((0.25, 0.625))
        assert true_values(ThresholdPolicy("g1", 1.0)) == pytest.approx((0.25, 0.625))
        # x1 x2 x3 < 1 almost surely, so g4 at cutoff 1 treats everyone too
        assert true_values(ThresholdPolicy("g4", 1.0)) == pytest.approx((0.25, 0.625))

    def test_never_treat_values(self):
        for f in ("g1", "g2", "g3", "g4"):
            assert true_values(ThresholdPolicy(f, 0.0)) == pytest.approx((0.5, 0.5))

    @given(
        st.sampled_from(FEATURES),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_values_stay_in_effect_range(self, feature, cutoff):
        v1, v2 = true_values(ThresholdPolicy(feature, cutoff))
        assert 0.25 - 1e-12 <= v1 <= 0.5 + 1e-12
        assert 0.5 - 1e-12 <= v2 <= 0.625 + 1e-12

    @pytest.mark.parametrize("feature", FEATURES)
    def test_monotone_in_cutoff(self, feature):
        cuts = np.linspace(0.0, 1.0, 41)
        vals = [true_values(ThresholdPolicy(feature, float(c))) for c in cuts]
        v1 = np.array([v[0] for v in vals])
        v2 = np.array([v[1] for v in vals])
        assert np.all(np.diff(v1) <= 1e-12)  # more treatment never helps Y1
        assert np.all(np.diff(v2) >= -1e-12)  # and never hurts Y2

    def test_closed_forms_match_monte_carlo(self):
        rng = np.random.default_rng(4)
        pols = [
            ThresholdPolicy(f, c)
            for f in FEATURES
            for c in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        mc = mc_true_values(pols, 400_000, rng)
        for pol in pols:
            v1, v2 = true_values(pol)
            m1, m2, se1, se2 = mc[pol.policy_id]
            assert abs(v1 - m1) <= 5.0 * se1 + 1e-4
            assert abs(v2 - m2) <= 5.0 * se2 + 1e-4


class TestOracleSafety:
    def spec(self, w=(0.0, -0.1)):
        return SafetySpec(goal=1, guardrails=(1, 2), weights=w, alpha=0.1)

    def test_baseline_is_safe_against_itself(self):
        base = default_baseline()
        assert oracle_safe(base, base, self.spec())

    def test_boundary_equality_counts_as_safe(self):
        base = default_baseline()
        spec = SafetySpec(goal=1, guardrails=(1,), weights=(0.0,), alpha=0.1)
        assert oracle_safe(base, base, spec)

    def test_always_treat_violates_first_guardrail(self):
        # V1 drops from 0.375 to 0.25, far past the w=0 floor
        assert not oracle_safe(ThresholdPolicy("g5", 0.5), default_baseline(), self.spec())

    def test_never_treat_is_safe_here(self):
        # V1 = 0.5 > 0.375 and V2 = 0.5 > 0.9 * 0.53125
        assert oracle_safe(ThresholdPolicy("g1", 0.0), default_baseline(), self.spec())

    def test_upper_sense_flips_conclusion(self):
        base = default_baseline()
        spec = SafetySpec(
            goal=2, guardrails=(1,), weights=(0.0,), alpha=0.1, senses=("upper",)
        )
        # upper sense asks V1 not to rise above the baseline level
        assert oracle_safe(ThresholdPolicy("g5", 0.5), base, spec)
        assert not oracle_safe(ThresholdPolicy("g1", 0.0), base, spec)


class TestTruthTable:
    def test_includes_baseline_and_matches_oracle(self):
        base = default_baseline()
        spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, -0.1), alpha=0.1)
        pols = [ThresholdPolicy("g1", 0.2), ThresholdPolicy("g5", 0.5)]
        table = truth_table(pols, base, spec)
        assert table.baseline_id == "g1@0.5"
        assert table.value("g1@0.5", 1) == pytest.approx(0.375)
        assert table.value("g1@0.5", 2) == pytest.approx(0.53125)
        assert table.safe["g1@0.5"]
        assert not table.safe["g5@0.5"]
        assert set(table.values) == {"g1@0.2", "g5@0.5", "g1@0.5"}

    def test_values_computed_once_per_policy(self, monkeypatch):
        base = default_baseline()
        spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, -0.1), alpha=0.1)
        pols = build_class(20)
        calls = []

        def counted(policy):
            calls.append(policy.policy_id)
            return true_values(policy)

        monkeypatch.setattr(synthetic, "true_values", counted)
        table = truth_table(pols, base, spec)
        assert len(calls) == len(pols) + 1
        monkeypatch.undo()
        safe = {pol.policy_id: oracle_safe(pol, base, spec) for pol in pols}
        safe[base.policy_id] = oracle_safe(base, base, spec)
        assert list(table.safe.items()) == list(safe.items())
        assert table.values == {p.policy_id: true_values(p) for p in [*pols, base]}
