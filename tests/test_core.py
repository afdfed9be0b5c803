import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from snpl.core import (
    MIN_N_SIM,
    Dataset,
    Hyperparams,
    SafetySpec,
    ThresholdPolicy,
    validate_dataset,
)
from snpl.synthetic import generate

from conftest import LoggingPolicy, UniformPolicy, make_dataset


class TestValidateDataset:
    """A Dataset is checked when built, so invalid data raises at
    construction and can reach no later call."""

    def test_single_row_passes(self):
        ds = make_dataset([[0.1]], [1], [[0.3]])
        validate_dataset(ds)

    def test_outcome_above_one_reports_row(self):
        with pytest.raises(ValueError, match="outcome out of range at row 1"):
            make_dataset([[0.1], [0.2]], [1, 2], [[0.3], [1.2]])

    def test_negative_outcome_rejected(self):
        with pytest.raises(ValueError, match="outcome out of range"):
            make_dataset([[0.1]], [1], [[-0.01]])

    def test_zero_propensity_is_positivity_violation(self):
        with pytest.raises(ValueError, match="positivity violated"):
            make_dataset([[0.1]], [1], [[0.3]], probs=(1.0, 0.0))

    def test_nan_propensity_is_positivity_violation(self):
        with pytest.raises(ValueError, match="positivity violated at row 0"):
            make_dataset([[0.1]], [1], [[0.3]], probs=(np.nan, 1.0))

    def test_single_action_rejected(self):
        with pytest.raises(ValueError, match="at least two actions"):
            make_dataset([[0.1]], [1], [[0.3]], probs=(1.0,))

    def test_action_out_of_range_reports_row(self):
        with pytest.raises(ValueError, match="action out of range at row 1"):
            make_dataset([[0.1], [0.2]], [1, 3], [[0.3], [0.4]])

    def test_propensities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1 at row 0"):
            make_dataset([[0.1]], [1], [[0.3]], probs=(0.5, 0.4))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            Dataset(np.zeros((2, 1)), np.array([1]), np.zeros((2, 1)), np.full((2, 2), 0.5))

    def test_idempotent_and_side_effect_free(self):
        ds = make_dataset([[0.1], [0.9]], [1, 2], [[0.3], [0.7]])
        before = (ds.covariates.copy(), ds.actions.copy(), ds.outcomes.copy())
        validate_dataset(ds)
        validate_dataset(ds)
        assert np.array_equal(ds.covariates, before[0])
        assert np.array_equal(ds.actions, before[1])
        assert np.array_equal(ds.outcomes, before[2])


def one_row(pol, x) -> np.ndarray:
    """pi(. | x) of one covariate row, from a one-row ``prob_matrix`` call."""
    return pol.prob_matrix(np.asarray([x], dtype=float))[0]


class TestActionDistribution:
    def test_threshold_treats_below_cutoff(self):
        pol = ThresholdPolicy("g1", 0.5)
        assert np.array_equal(one_row(pol, [0.2, 0.0, 0.0]), [1.0, 0.0])

    def test_threshold_controls_above_cutoff(self):
        pol = ThresholdPolicy("g1", 0.5)
        assert np.array_equal(one_row(pol, [0.9, 0.0, 0.0]), [0.0, 1.0])

    def test_tie_at_cutoff_is_not_selected(self):
        # strict inequality: g(x) = c means control
        pol = ThresholdPolicy("g1", 0.5)
        assert np.array_equal(one_row(pol, [0.5, 0.0, 0.0]), [0.0, 1.0])

    def test_uniform_policy(self):
        assert np.array_equal(one_row(UniformPolicy(2), [0.3]), [0.5, 0.5])

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.sampled_from(["g1", "g2", "g3", "g4", "g5"]))
    def test_distribution_is_probability_vector(self, x1, x2, x3, cutoff, feature):
        dist = one_row(ThresholdPolicy(feature, cutoff), [x1, x2, x3])
        assert np.all(dist >= 0.0)
        assert abs(dist.sum() - 1.0) <= 1e-9


class TestPropensityModels:
    """The logging propensities are the (n, K) array a Dataset holds, and
    its positivity floor c is their minimum."""

    def test_constant_matrix_and_floor(self):
        ds = make_dataset(np.zeros((4, 2)), [1, 2, 1, 2], np.zeros((4, 1)), probs=(0.3, 0.7))
        assert ds.c == 0.3
        assert np.array_equal(ds.propensities, [[0.3, 0.7]] * 4)

    def test_tabular_is_row_aligned_only(self):
        E = np.array([[0.4, 0.6], [0.5, 0.5]])
        ds = Dataset(np.zeros((2, 1)), np.array([1, 2]), np.zeros((2, 1)), E)
        assert ds.c == 0.4
        with pytest.raises(ValueError, match="rows of X, A, Y, propensities differ"):
            Dataset(np.zeros((3, 1)), np.array([1, 2, 1]), np.zeros((3, 1)), E)

    def test_logging_policy_mirrors_propensities(self):
        ds = make_dataset(np.zeros((3, 1)), [1, 2, 2], np.zeros((3, 1)), probs=(0.25, 0.75))
        pol = LoggingPolicy(ds.propensities)
        assert np.array_equal(pol.prob_matrix(ds.covariates), [[0.25, 0.75]] * 3)


class TestSafetySpec:
    def test_positive_weight_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            SafetySpec(goal=1, guardrails=(1,), weights=(0.1,), alpha=0.1)

    def test_empty_guardrails_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            SafetySpec(goal=1, guardrails=(), weights=(), alpha=0.1)

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            SafetySpec(goal=1, guardrails=(1,), weights=(0.0,), alpha=1.0)

    def test_w_length_must_match(self):
        with pytest.raises(ValueError, match="length"):
            SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0,), alpha=0.1)

    def test_senses_default_lower(self):
        spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, -0.2), alpha=0.1)
        assert spec.senses == ("lower", "lower")
        assert spec.sign(0) == 1.0

    def test_upper_sense_sign(self):
        spec = SafetySpec(
            goal=1, guardrails=(1, 2), weights=(0.0, 0.0), alpha=0.1,
            senses=("lower", "upper"),
        )
        assert spec.sign(1) == -1.0

    def test_goal_may_appear_in_guardrails(self):
        spec = SafetySpec(goal=2, guardrails=(2,), weights=(-0.1,), alpha=0.05)
        assert spec.s_count == 1


class TestHyperparams:
    def test_defaults(self):
        h = Hyperparams()
        assert h.gamma == 0.1 and h.p == 0.5 and h.folds == 5 and h.n_sim == 100_000

    def test_gamma_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            Hyperparams(gamma=0.0)

    def test_eta_at_least_one(self):
        with pytest.raises(ValueError, match="eta"):
            Hyperparams(eta=0)

    def test_n_sim_at_least_the_supt_minimum(self):
        assert MIN_N_SIM == 100
        assert Hyperparams(n_sim=MIN_N_SIM).n_sim == MIN_N_SIM
        with pytest.raises(ValueError, match="n_sim must be >= 100"):
            Hyperparams(n_sim=MIN_N_SIM - 1)

    def test_folds_at_least_two(self):
        with pytest.raises(ValueError, match="folds"):
            Hyperparams(folds=1)


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), np.empty((0, 1)),
                    np.empty((0, 2)))

    def test_compares_and_hashes_by_identity(self):
        a, b = generate(5, np.random.default_rng(0)), generate(5, np.random.default_rng(0))
        assert (a == b) is False
        assert a == a
        assert hash(a) != hash(b)

    @pytest.mark.parametrize("name", ["covariates", "actions", "outcomes", "propensities"])
    def test_arrays_are_read_only(self, name):
        # the checks ran on these arrays; an edit after building would skip them
        arrays = {
            "covariates": np.zeros((2, 1)),
            "actions": np.array([1, 2]),
            "outcomes": np.zeros((2, 1)),
            "propensities": np.array([[0.4, 0.6], [0.5, 0.5]]),
        }
        ds = Dataset(**arrays)
        assert getattr(ds, name) is arrays[name]  # frozen in place, not copied
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds, name)[0] = 2.0
