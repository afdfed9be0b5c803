import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snpl.bounds import _covariance, asymptotic_bounds
from snpl.core import Dataset, SafetySpec, ThresholdPolicy
from snpl.estimators import (
    RIDGE_PENALTY,
    InfluenceTable,
    NuisanceModel,
    arm_scores,
    fit_nuisance,
    influence_table,
    policy_scores,
)
from snpl.synthetic import generate

from conftest import (
    LoggingPolicy,
    UniformPolicy,
    dr_value,
    ipw_value,
    make_dataset,
    random_dataset,
    three_arm_generate,
)


def zero_nuisance(dataset) -> NuisanceModel:
    n, K, d_Y = dataset.n, dataset.n_actions, dataset.n_outcomes
    d = dataset.covariates.shape[1]
    return NuisanceModel(
        coef=np.zeros((2, K, d_Y, d + 1)),
        fold_of=np.zeros(n, dtype=np.int64),
        mu=np.zeros((n, K, d_Y)),
    )


class TestIpw:
    def test_two_row_hand_example(self):
        # both rows logged under the action the policy picks, Y = 0.5, e = 0.5:
        # each score is 0.5/0.5 = 1, so the value is exactly 1
        ds = make_dataset([[0.2, 0.0, 0.0], [0.1, 0.0, 0.0]], [1, 1], [[0.5], [0.5]])
        pol = ThresholdPolicy("g1", 0.5)
        assert ipw_value(ds, pol, 1) == pytest.approx(1.0, abs=1e-12)

    def test_unmatched_rows_score_zero(self):
        ds = make_dataset([[0.9, 0.0, 0.0]], [1], [[0.5]])
        pol = ThresholdPolicy("g1", 0.5)  # picks control, row logged treated
        assert ipw_value(ds, pol, 1) == pytest.approx(0.0, abs=1e-12)

    def test_logging_policy_recovers_sample_mean(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, 200, d_x=3, probs=(0.3, 0.7))
        for j in (1, 2):
            assert ipw_value(ds, LoggingPolicy(ds.propensities), j) == pytest.approx(
                float(ds.outcomes[:, j - 1].mean()), abs=1e-12
            )


class TestNuisance:
    def test_constant_outcome_predicted_exactly(self):
        rng = np.random.default_rng(0)
        X = rng.random((40, 2))
        ds = make_dataset(X, rng.integers(1, 3, size=40), np.full((40, 1), 0.7))
        nui = fit_nuisance(ds, 4, np.random.default_rng(1))
        assert np.allclose(nui.mu, 0.7, atol=1e-10)

    def test_linear_outcome_recovered(self):
        rng = np.random.default_rng(2)
        X = rng.random((200, 2))
        Y = 0.1 + 0.3 * X[:, 0] + 0.4 * X[:, 1]
        ds = make_dataset(X, rng.integers(1, 3, size=200), Y[:, None])
        nui = fit_nuisance(ds, 5, np.random.default_rng(3))
        assert np.max(np.abs(nui.mu - Y[:, None, None])) < 1e-6

    @pytest.mark.filterwarnings("ignore:singular design")
    def test_fold_sizes_and_training_counts(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 10)
        nui = fit_nuisance(ds, 5, np.random.default_rng(5))
        sizes = np.bincount(nui.fold_of, minlength=5)
        assert np.array_equal(sizes, [2] * 5)
        # each fold's model sees the 8 rows outside it
        for f in range(5):
            assert int((nui.fold_of != f).sum()) == 8

    def test_predictions_clipped_to_unit_interval(self):
        rng = np.random.default_rng(6)
        X = rng.random((60, 1))
        Y = np.clip(2.0 * X[:, 0] - 0.5, 0.0, 1.0)  # extrapolation can leave [0,1]
        ds = make_dataset(X, rng.integers(1, 3, size=60), Y[:, None])
        nui = fit_nuisance(ds, 3, np.random.default_rng(7))
        assert nui.mu.min() >= 0.0 and nui.mu.max() <= 1.0

    def test_singular_design_warns_and_falls_back(self):
        rng = np.random.default_rng(8)
        X = np.column_stack([np.ones(30), rng.random(30)])  # duplicates intercept
        ds = make_dataset(X, rng.integers(1, 3, size=30), rng.random((30, 1)))
        with pytest.warns(UserWarning, match="ridge"):
            nui = fit_nuisance(ds, 2, np.random.default_rng(9))
        assert np.all(np.isfinite(nui.mu))

    @pytest.mark.filterwarnings("ignore:singular design")
    def test_empty_training_cell_is_error(self):
        # arm 2 appears once, so the complement of its fold has no arm-2 rows
        ds = make_dataset(
            np.arange(8, dtype=float)[:, None] / 8.0,
            [1, 1, 1, 1, 1, 1, 1, 2],
            np.full((8, 1), 0.5),
        )
        with pytest.raises(ValueError, match="empty training cell"):
            fit_nuisance(ds, 2, np.random.default_rng(10))

    @pytest.mark.parametrize("action", [0, 3])
    def test_out_of_range_action_rejected(self, action):
        # such data cannot be built, so no fit ever sees it
        rng = np.random.default_rng(11)
        A = rng.integers(1, 3, size=40)
        A[5] = action
        with pytest.raises(ValueError, match="action out of range at row 5"):
            make_dataset(rng.random((40, 2)), A, rng.random((40, 1)))

    def test_more_folds_than_rows_rejected(self):
        ds = make_dataset([[0.1], [0.2]], [1, 2], [[0.5], [0.5]])
        with pytest.raises(ValueError, match="more folds than observations"):
            fit_nuisance(ds, 5, np.random.default_rng(0))


def reference_fit(dataset, folds: int, rng: np.random.Generator) -> NuisanceModel:
    """The per-cell fit ``fit_nuisance`` replaced: for each fold and arm,
    boolean masks over all rows, ``lstsq`` on the copied training rows
    (ridge when rank-deficient) and a masked write of the held-out
    predictions."""
    n, K, d_Y = dataset.n, dataset.n_actions, dataset.n_outcomes
    X, A, Y = dataset.covariates, dataset.actions, dataset.outcomes
    d = X.shape[1]
    Z = np.column_stack([np.ones(n), X])
    fold_of = np.empty(n, dtype=np.int64)
    for f, block in enumerate(np.array_split(rng.permutation(n), folds)):
        fold_of[block] = f
    coef = np.empty((folds, K, d_Y, d + 1))
    mu = np.empty((n, K, d_Y))
    for f in range(folds):
        train = fold_of != f
        hold = ~train
        for k in range(K):
            rows = train & (A == k + 1)
            if not rows.any():
                raise ValueError(f"empty training cell: fold {f}, arm {k + 1}")
            Zr, Yr = Z[rows], Y[rows]
            beta, _, rank, _ = np.linalg.lstsq(Zr, Yr, rcond=None)
            if rank < d + 1:
                warnings.warn(
                    f"singular design matrix (fold {f}, arm {k + 1}); "
                    f"using ridge penalty {RIDGE_PENALTY}"
                )
                G = Zr.T @ Zr + RIDGE_PENALTY * np.eye(d + 1)
                beta = np.linalg.solve(G, Zr.T @ Yr)
            coef[f, k] = beta.T
            mu[hold, k, :] = np.clip(Z[hold] @ beta, 0.0, 1.0)
    return NuisanceModel(coef=coef, fold_of=fold_of, mu=mu)


def error_scales(Z, Y, beta, ridge: bool):
    """Float64 error scales of coefficients beta that a backward-stable
    solver finds on training design Z and outcomes Y, one per right singular
    vector v_j of Z (the rows of the returned Vt): with singular values s_j
    (0 past the rank), residual r and a perturbation of Z of relative size
    eps, beta moves along v_j by about eps s_1 (|r| / s_j^2 + |beta| / s_j)
    for least squares and eps s_1 (|r| + s_1 |beta|) / (s_j^2 + penalty) for
    the ridge fallback. Two such solvers differ by about this much."""
    eps = np.finfo(float).eps
    _, s, Vt = np.linalg.svd(Z, full_matrices=len(Z) < Z.shape[1])
    s = np.concatenate([s, np.zeros(len(Vt) - len(s))])
    r, b = np.linalg.norm(Y - Z @ beta), np.linalg.norm(beta)
    if ridge:
        return Vt, eps * s[0] * (r + s[0] * b) / (s**2 + RIDGE_PENALTY)
    return Vt, eps * s[0] * (r / s**2 + b / s)


def fit_recording_warnings(fit, dataset, folds: int, seed: int):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit(dataset, folds, np.random.default_rng(seed))
    return model, [str(w.message) for w in caught]


def offset_covariates(offset: float) -> Dataset:
    ds = generate(2000, np.random.default_rng(6))
    return Dataset(ds.covariates + offset, ds.actions, ds.outcomes, ds.propensities)


def intercept_duplicate() -> Dataset:
    rng = np.random.default_rng(5)
    X = np.column_stack([np.ones(300), rng.random(300)])
    return make_dataset(X, rng.integers(1, 3, size=300), rng.random((300, 2)))


def near_collinear() -> Dataset:
    """x2 = x1 + 2e-13 u: the smallest singular value of [1, X] is ~3e-14 of
    the largest, under lstsq's cut-off eps * max(rows, cols) on ~800
    training rows (1.8e-13) and over it on the 20 stacked R-factor rows
    (4.4e-15), so only the training-row rule finds these cells singular."""
    rng = np.random.default_rng(7)
    x1 = rng.random(2000)
    X = np.column_stack([x1, x1 + 2e-13 * rng.random(2000)])
    return make_dataset(X, rng.integers(1, 3, size=2000), rng.random((2000, 2)))


# name: (dataset builder, folds)
REFERENCE_CASES = {
    "generate-50k": (lambda: generate(50_000, np.random.default_rng(0)), 5),
    "three-arm-tabular": (lambda: three_arm_generate(3000, np.random.default_rng(1)), 5),
    "one-outcome": (lambda: random_dataset(np.random.default_rng(2), 400, d_y=1), 5),
    # (fold, arm) blocks of 0-2 rows, fewer than the 5 columns of [1, X, Y]
    "n10": (lambda: random_dataset(np.random.default_rng(3), 10), 5),
    # training cells of ~4 rows against 5 coefficients: the ridge fallback
    "n10-wide": (lambda: random_dataset(np.random.default_rng(4), 10, d_x=4), 5),
    "intercept-duplicate": (intercept_duplicate, 5),
    "near-collinear": (near_collinear, 5),
    "offset-1e2": (lambda: offset_covariates(1e2), 5),
    "offset-1e3": (lambda: offset_covariates(1e3), 5),
    "offset-1e4": (lambda: offset_covariates(1e4), 5),
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_fit_matches_reference(case):
    """fit_nuisance against the masked-lstsq loop it replaced: the same
    folds, the same warned cells (or the same error), and coef and mu within
    1e-10 plus a hundred times the cell's error scales (``error_scales``),
    which are below 1e-13 on a well-conditioned cell."""
    build, folds = REFERENCE_CASES[case]
    ds = build()
    Z = np.column_stack([np.ones(ds.n), ds.covariates])
    for seed in range(3):
        try:
            ref, ref_warned = fit_recording_warnings(reference_fit, ds, folds, seed)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                fit_recording_warnings(fit_nuisance, ds, folds, seed)
            continue
        new, new_warned = fit_recording_warnings(fit_nuisance, ds, folds, seed)
        assert np.array_equal(new.fold_of, ref.fold_of)
        assert new_warned == ref_warned
        ridge = {
            tuple(int(v) for v in re.search(r"fold (\d+), arm (\d+)", w).groups())
            for w in ref_warned
        }
        for f in range(folds):
            hold = ref.fold_of == f
            for k in range(ds.n_actions):
                rows = ~hold & (ds.actions == k + 1)
                Vt, scale = error_scales(
                    Z[rows], ds.outcomes[rows], ref.coef[f, k].T, (f, k + 1) in ridge
                )
                coef_gap = np.abs(new.coef[f, k] - ref.coef[f, k]).max(axis=0)
                assert np.all(coef_gap <= 1e-10 + 100 * np.abs(Vt.T) @ scale)
                mu_gap = np.abs(new.mu[hold, k] - ref.mu[hold, k]).max(axis=1)
                assert np.all(mu_gap <= 1e-10 + 100 * np.abs(Z[hold] @ Vt.T) @ scale)


@pytest.mark.parametrize("offset", [1e2, 1e3, 1e4])
def test_offset_covariates_keep_predictions(offset):
    """A covariate offset makes [1, X] ill-conditioned; solving on the
    stacked R factors keeps mu within 1e-10 of the reference, where a
    Gram-matrix solve (condition number squared) drifts by ~1e-7 at 1e4."""
    ds = offset_covariates(offset)
    for seed in range(3):
        new = fit_nuisance(ds, 5, np.random.default_rng(seed))
        ref = reference_fit(ds, 5, np.random.default_rng(seed))
        assert np.abs(new.mu - ref.mu).max() <= 1e-10


class TestDr:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_zero_nuisance_collapses_to_ipw(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, 30, d_x=3)
        pol = ThresholdPolicy("g1", float(rng.random()))
        nui = zero_nuisance(ds)
        for j in (1, 2):
            assert dr_value(ds, pol, j, nui) == pytest.approx(
                ipw_value(ds, pol, j), abs=1e-12
            )

    def test_dr_uses_out_of_fold_predictions(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, 50)
        nui = fit_nuisance(ds, 5, np.random.default_rng(13))
        scores = arm_scores(ds, nui)
        # unobserved arms keep the plain regression prediction
        hit = np.zeros((50, 2))
        hit[np.arange(50), ds.actions - 1] = 1.0
        miss = hit == 0.0
        assert np.allclose(scores[miss], nui.mu[miss])


class TestInfluenceTable:
    def test_index_map(self, spec_two_guardrails):
        rng = np.random.default_rng(14)
        ds = random_dataset(rng, 20, d_x=3)
        pols = [ThresholdPolicy("g1", 0.3), ThresholdPolicy("g1", 0.6)]
        spec, scores = spec_two_guardrails, arm_scores(ds)
        table = influence_table(ds, scores, pols, spec, UniformPolicy(2))
        assert table.values.shape == (20, 4)
        base = policy_scores(scores, UniformPolicy(2), ds.covariates)
        for p, pol in enumerate(pols, start=1):
            psi = policy_scores(scores, pol, ds.covariates)
            for s, (j, w) in enumerate(zip(spec.guardrails, spec.weights), start=1):
                # 1-based (p-1)|S| + s, so (policy 2, guardrail 2) is column 4
                column = table.values[:, (p - 1) * spec.s_count + s - 1]
                assert np.array_equal(column, psi[:, j - 1] - (1.0 + w) * base[:, j - 1])

    def test_estimates_match_value_differences(self, spec_two_guardrails):
        rng = np.random.default_rng(15)
        ds = random_dataset(rng, 40, d_x=3)
        pol = ThresholdPolicy("g2", 0.5)
        base = UniformPolicy(2)
        table = influence_table(ds, arm_scores(ds), [pol], spec_two_guardrails, base)
        for s, (j, w) in enumerate(zip((1, 2), (0.0, -0.1))):
            expect = ipw_value(ds, pol, j) - (1.0 + w) * ipw_value(ds, base, j)
            assert table.means[0, s] == pytest.approx(expect, abs=1e-12)

    def test_metadata(self, spec_two_guardrails):
        rng = np.random.default_rng(16)
        ds = random_dataset(rng, 15, d_x=3, probs=(0.4, 0.6))
        table = influence_table(
            ds, arm_scores(ds), [ThresholdPolicy("g1", 0.5)], spec_two_guardrails, UniformPolicy(2)
        )
        assert table.n == 15
        assert table.policy_count == 1
        assert table.c == pytest.approx(0.4)
        assert table.baseline_id == UniformPolicy(2).policy_id


def values_table(values, spec) -> InfluenceTable:
    """A one-policy table over the given influence columns."""
    means = values.mean(axis=0)
    return InfluenceTable(
        policy_ids=("p",),
        means=means[None, :],
        variances=np.mean((values - means) ** 2, axis=0)[None, :],
        goal=np.zeros(1),
        baseline_goal=0.0,
        spec=spec,
        baseline_id="b",
        n=values.shape[0],
        c=0.5,
        values=values,
    )


def column_table(column) -> InfluenceTable:
    values = np.asarray(column, dtype=float)[:, None]
    spec = SafetySpec(goal=1, guardrails=(1,), weights=(0.0,), alpha=0.1)
    return values_table(values, spec)


def column_variance(column) -> float:
    """The covariance asymptotic_bounds takes z* from, of a one-column table."""
    return float(_covariance(column_table(column))[0, 0])


class TestMoments:
    """The covariance of the influence columns, kept in ``bounds`` for the
    sup-t z* of ``asymptotic_bounds``."""

    def test_variance_hand_example(self):
        assert column_variance([0.0, 2.0]) == pytest.approx(1.0)

    @given(st.floats(0.0, 100.0))
    def test_symmetric_pair_variance(self, a):
        assert column_variance([-a, a]) == pytest.approx(a * a, rel=1e-9)

    def test_variance_needs_two_points(self):
        with pytest.raises(ValueError, match="n >= 2"):
            asymptotic_bounds(column_table([1.0]), 0.1, 1000, 0)

    def test_population_normalization(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert column_variance(x) == pytest.approx(float(np.var(x)), abs=1e-12)

    def test_covariance_of_independent_columns(self, spec_two_guardrails):
        rng = np.random.default_rng(17)
        values = rng.standard_normal((100_000, 2))
        cov = _covariance(values_table(values, spec_two_guardrails))
        assert abs(cov[0, 1]) < 0.02
        assert cov[0, 0] == pytest.approx(1.0, abs=0.02)
        assert np.allclose(cov, cov.T)

    def test_covariance_diagonal_matches_variance(self, spec_two_guardrails):
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, 30, d_x=3)
        table = influence_table(
            ds, arm_scores(ds), [ThresholdPolicy("g1", 0.5)], spec_two_guardrails, UniformPolicy(2)
        )
        cov = _covariance(table)
        for s in range(2):
            assert cov[s, s] == pytest.approx(float(np.var(table.values[:, s])), abs=1e-12)


class TestPolicyScores:
    def test_deterministic_policy_selects_arm_column(self):
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, 25, d_x=3)
        scores = arm_scores(ds)
        pol = ThresholdPolicy("g1", 0.5)
        out = policy_scores(scores, pol, ds.covariates)
        treat = ds.covariates[:, 0] < 0.5
        expect = np.where(treat[:, None], scores[:, 0, :], scores[:, 1, :])
        assert np.allclose(out, expect)
