"""Each run scores each dataset once: the per-arm score array of a dataset
(or of each split) is computed one time and passed to every later step.
Each dataset is also checked once, when it is built; a split side is taken
from checked rows and is not checked again."""

import sys

import numpy as np
import pytest

from snpl import core, estimators
from snpl.algorithm import snpl_run
from snpl.baselines import bonferroni_run, hcpi_run
from snpl.core import Hyperparams, SafetySpec
from snpl.harness import METHOD_STREAMS, BenchmarkConfig, run_benchmark
from snpl.synthetic import build_class, default_baseline, generate

SPEC = SafetySpec(goal=1, guardrails=(1, 2), weights=(-0.3, -0.3), alpha=0.1)
HYPER = Hyperparams(n_sim=2000, eta=3)


def run(method, dataset, mode):
    policies, baseline = build_class(4), default_baseline()
    if method == "snpl":
        return snpl_run(dataset, policies, SPEC, baseline, mode, HYPER, seed=1)
    if method == "bonferroni":
        return bonferroni_run(dataset, policies, SPEC, baseline, mode, HYPER, seed=1)
    return hcpi_run(dataset, policies, SPEC, baseline, mode, HYPER, seed=1, rho=0.5)


@pytest.mark.parametrize("mode", ("finite", "asymptotic"))
@pytest.mark.parametrize(
    "method,calls",
    (("snpl", 1), ("bonferroni", 1), ("ds", 2)),  # ds: the learning and the testing split
    ids=("snpl-bonferroni-normal-1", "bonferroni-bonferroni-normal-1", "ds-bonferroni-normal-2"),
)
def test_arm_scores_once_per_dataset(monkeypatch, mode, method, calls):
    seen = count_calls(monkeypatch, "arm_scores")
    run(method, generate(600, np.random.default_rng(7)), mode)
    assert len(seen) == calls


def count_calls(monkeypatch, name, module=estimators):
    """Counts calls of a library function at every module that binds it, as
    the perfbench tracer patches."""
    real, seen = getattr(module, name), []

    def counting(*args, **kwargs):
        seen.append(1)
        return real(*args, **kwargs)

    for mod in [m for key, m in sys.modules.items() if key.startswith("snpl")]:
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return seen


@pytest.mark.parametrize("mode", ("finite", "asymptotic"))
@pytest.mark.parametrize("method", ("snpl", "bonferroni", "ds"))
def test_each_policy_contracted_once(monkeypatch, mode, method):
    # one baseline contraction inside class_stats; snpl and ds-* then build
    # the influence table of the pruned or selected set (its baseline and
    # one per policy), whose contractions also give the goal values;
    # bonferroni reports the certified rows of the class statistics it
    # decided on, so it contracts nothing more
    seen = count_calls(monkeypatch, "policy_scores")
    spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(-0.9, -0.9), alpha=0.1)
    policies, baseline = build_class(4), default_baseline()
    ds = generate(3000, np.random.default_rng(7))
    if method == "snpl":
        trace = snpl_run(ds, policies, spec, baseline, mode, HYPER, seed=1)
        table = trace.pruned_ids
    elif method == "bonferroni":
        trace = bonferroni_run(ds, policies, spec, baseline, mode, HYPER, seed=1)
        table = trace.certified_ids
    else:
        trace = hcpi_run(ds, policies, spec, baseline, mode, HYPER, seed=1, rho=0.5)
        table = (trace.selected_id,)
    assert len(table) >= 1
    assert len(seen) == (1 if method == "bonferroni" else 2 + len(table))


@pytest.mark.parametrize("method,calls", (("snpl", 0), ("bonferroni", 0), ("ds", 0)))
def test_given_dataset_not_validated_again(monkeypatch, method, calls):
    # no method re-checks the data it is given, and ds-* builds its two
    # splits from those checked rows
    dataset = generate(600, np.random.default_rng(7))
    seen = count_calls(monkeypatch, "validate_dataset", core)
    run(method, dataset, "asymptotic")
    assert len(seen) == calls


def test_benchmark_replication_validates_each_dataset_once(monkeypatch):
    # the generated dataset only: the splits of the three ds-* methods
    # are taken from its checked rows
    seen = count_calls(monkeypatch, "validate_dataset", core)
    config = BenchmarkConfig(
        methods=tuple(METHOD_STREAMS), n=600, replications=1, grid_size=4, n_sim=2000, eta=3
    )
    run_benchmark(config, workers=1)
    assert len(seen) == 1


@pytest.mark.parametrize(
    "method,message",
    (
        ("snpl", "more folds than observations"),
        ("bonferroni", "more folds than observations"),
        ("ds", "more folds than observations"),
    ),
)
def test_fewer_rows_than_folds_rejected(method, message):
    # n = 4 < folds = 5: cross-fitting cannot start, so the run raises
    # instead of returning a trace
    with pytest.raises(ValueError, match=message):
        run(method, generate(4, np.random.default_rng(0)), "asymptotic")
