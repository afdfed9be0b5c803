"""Memory order of per-row arrays. The package builds them column-major (the
observation index varies fastest), so each n-long pass is one unit-stride
loop; a caller's own arrays are kept as given. Either way every result must
carry the same bits: the column-major path is checked against datasets
built from row-major copies of the same arrays."""

import json

import numpy as np
import pytest

from snpl.algorithm import snpl_run
from snpl.baselines import bonferroni_run, hcpi_run
from snpl.core import Dataset, Hyperparams, SafetySpec
from snpl.estimators import (
    _policy_moments,
    arm_scores,
    class_stats,
    fit_nuisance,
    influence_table,
    policy_scores,
)
from snpl.harness import BenchmarkConfig, read_dataset_csv, write_dataset_csv
from snpl.synthetic import build_class, default_baseline, generate

from conftest import three_arm_class, three_arm_generate

ARRAYS = ("covariates", "actions", "outcomes", "propensities")
SPEC = SafetySpec(goal=1, guardrails=(1, 2), weights=(-0.2, -0.2), alpha=0.1)
HYPER = Hyperparams(n_sim=2000, eta=2)
FOLDS = 5


def synthetic_case():
    ds = generate(3000, np.random.default_rng(61))
    return ds, default_baseline(), build_class(20)


def three_arm_case():
    baseline, policies = three_arm_class()
    return three_arm_generate(3000, np.random.default_rng(62)), baseline, policies


CASES = {"synthetic": synthetic_case, "three-arm-tabular": three_arm_case}


def relaid(dataset: Dataset, order: str) -> Dataset:
    """A dataset of copies of the given one's arrays, in the given order."""
    return Dataset(*(np.array(getattr(dataset, name), order=order) for name in ARRAYS))


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def layers(dataset, baseline, policies, mode):
    """Every layer's output on one dataset, in a fixed order."""
    out = []
    nuisance = None
    if mode == "asymptotic":
        nuisance = fit_nuisance(dataset, FOLDS, np.random.default_rng(7))
        out += [nuisance.coef, nuisance.fold_of, nuisance.mu]
    scores = arm_scores(dataset, nuisance)
    out.append(scores)
    out += [policy_scores(scores, pol, dataset.covariates) for pol in [baseline, *policies]]
    stats = class_stats(dataset, policies, SPEC, baseline, scores)
    out += [stats.means, stats.variances, stats.goal, stats.baseline_goal]
    table = influence_table(dataset, scores, policies, SPEC, baseline)
    out += [table.values, table.means, table.variances, table.goal, table.baseline_goal]
    return out


def traces(dataset, baseline, policies, mode):
    """All five methods' trace JSON on one dataset."""
    runs = [snpl_run, bonferroni_run] + [
        lambda *args, rho=rho: hcpi_run(*args, rho=rho) for rho in (0.25, 0.5, 0.75)
    ]
    return [
        json.dumps(run(dataset, policies, SPEC, baseline, mode, HYPER, 3).to_json_dict())
        for run in runs
    ]


@pytest.mark.parametrize("mode", ("finite", "asymptotic"))
@pytest.mark.parametrize("case", CASES)
class TestLayoutReference:
    """Row-major copies of a dataset's arrays give the same bits as
    column-major ones at every layer and in every trace."""

    def test_layers(self, case, mode):
        ds, baseline, policies = CASES[case]()
        row_major, column_major = relaid(ds, "C"), relaid(ds, "F")
        assert row_major.covariates.flags.c_contiguous
        assert column_major.covariates.flags.f_contiguous
        got = layers(column_major, baseline, policies, mode)
        want = layers(row_major, baseline, policies, mode)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_bits(a, b)

    def test_traces(self, case, mode):
        ds, baseline, policies = CASES[case]()
        got = traces(relaid(ds, "F"), baseline, policies, mode)
        assert got == traces(relaid(ds, "C"), baseline, policies, mode)


class TestColumnMajor:
    """The per-row arrays the package builds keep the observation index
    fastest-varying."""

    def test_built_arrays(self, tmp_path):
        ds = generate(500, np.random.default_rng(63))
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, str(path))
        read = read_dataset_csv(str(path), BenchmarkConfig())
        side = Dataset._of_rows(ds, np.arange(0, 500, 3))
        for data in (ds, read, side):
            assert data.covariates.flags.f_contiguous and data.outcomes.flags.f_contiguous
        assert side.propensities.flags.f_contiguous
        nuisance = fit_nuisance(ds, FOLDS, np.random.default_rng(0))
        assert nuisance.mu.flags.f_contiguous
        for scores in (arm_scores(ds), arm_scores(ds, nuisance)):
            assert scores.flags.f_contiguous
        assert default_baseline().prob_matrix(ds.covariates).flags.f_contiguous
        table = influence_table(ds, arm_scores(ds), build_class(3), SPEC, default_baseline())
        assert table.values.flags.c_contiguous  # the covariance's summation order


@pytest.mark.parametrize("mode", ("finite", "asymptotic"))
def test_moment_means_are_contiguous_column_sums(mode):
    """Each policy's influence block d is column-major, so its means are
    each column's pairwise sum over its contiguous rows, divided by n; a
    row-major block would be summed row after row."""
    ds = generate(50_000, np.random.default_rng(65))
    nuisance = fit_nuisance(ds, FOLDS, np.random.default_rng(1)) if mode == "asymptotic" else None
    scores = arm_scores(ds, nuisance)
    baseline = default_baseline()
    psi0 = policy_scores(scores, baseline, ds.covariates)
    policies = build_class(3)
    moments = _policy_moments(scores, policies, ds.covariates, SPEC, psi0)
    for d, mean, _, _ in moments:
        assert d.flags.f_contiguous
        for s in range(SPEC.s_count):
            column = np.ascontiguousarray(d[:, s])
            assert mean[s].tobytes() == (column.sum() / ds.n).tobytes()
