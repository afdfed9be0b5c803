"""Each run scores each dataset once: the per-arm score array of a dataset
(or of each split) is computed one time and passed to every later step."""

import dataclasses
import sys

import numpy as np
import pytest

from snpl import estimators
from snpl.algorithm import snpl_run
from snpl.baselines import bonferroni_run, hcpi_run
from snpl.core import Hyperparams, SafetySpec
from snpl.synthetic import build_class, default_baseline, generate

SPEC = SafetySpec(goal=1, guardrails=(1, 2), weights=(-0.3, -0.3), alpha=0.1)
HYPER = Hyperparams(n_sim=2000, eta=3)


def run(method, dataset, mode, in_loop="bonferroni-normal"):
    policies, baseline = build_class(4), default_baseline()
    if method == "snpl":
        hyper = dataclasses.replace(HYPER, in_loop=in_loop, loop_n_sim=500)
        return snpl_run(dataset, policies, SPEC, baseline, mode, hyper, seed=1)
    if method == "bonferroni":
        return bonferroni_run(dataset, policies, SPEC, baseline, mode, HYPER, seed=1)
    return hcpi_run(dataset, policies, SPEC, baseline, mode, HYPER, seed=1, rho=0.5)


@pytest.mark.parametrize("mode", ("finite", "asymptotic"))
@pytest.mark.parametrize(
    "method,in_loop,calls",
    (
        ("snpl", "bonferroni-normal", 1),
        ("snpl", "supt", 1),
        ("bonferroni", "bonferroni-normal", 1),
        ("ds", "bonferroni-normal", 2),  # the learning and the testing split
    ),
)
def test_arm_scores_once_per_dataset(monkeypatch, mode, method, in_loop, calls):
    seen = count_calls(monkeypatch, "arm_scores")
    run(method, generate(600, np.random.default_rng(7)), mode, in_loop)
    assert len(seen) == calls


def count_calls(monkeypatch, name):
    """Counts calls of an ``estimators`` function at every module that binds
    it, as the perfbench tracer patches."""
    real, seen = getattr(estimators, name), []

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
    # one baseline contraction inside class_stats, then the influence
    # table's baseline and one per policy it holds (pruned, certified or
    # selected); goal values come from those same contractions
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
    assert len(seen) == 2 + len(table)


@pytest.mark.parametrize(
    "method,message",
    (
        ("snpl", "more folds than observations"),
        ("bonferroni", "more folds than observations"),
        ("ds", "split too small for cross-fitting folds"),
    ),
)
def test_fewer_rows_than_folds_rejected(method, message):
    # n = 4 < folds = 5: cross-fitting cannot start, so the run raises
    # instead of returning a trace
    with pytest.raises(ValueError, match=message):
        run(method, generate(4, np.random.default_rng(0)), "asymptotic")
