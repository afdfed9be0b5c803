"""The one trace type every method returns, and its schema-2 JSON: which
blocks each method writes, is_baseline against the decision, the split
recorded as sizes and a row hash that the recorded seed reproduces, and
`snpl run` end to end on none-certify, all-certify and constant-guardrail
data."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from snpl import cli
from snpl.algorithm import snpl_run
from snpl.baselines import bonferroni_run, hcpi_run
from snpl.core import Dataset, Hyperparams, SafetySpec, Trace
from snpl.harness import BenchmarkConfig, write_dataset_csv, write_json
from snpl.synthetic import build_class, default_baseline, generate

SPEC = SafetySpec(goal=1, guardrails=(1, 2), weights=(-0.3, -0.3), alpha=0.1)
HYPER = Hyperparams(n_sim=2000, eta=3)
METHODS = ("snpl", "bonferroni", "ds-25", "ds-50", "ds-75")
SNPL_HYPER = {"gamma", "epsilon", "eta", "eta_source", "B", "B_floor", "p", "in_loop", "loop_n_sim"}


def run(method, dataset, mode, seed=(7, 0, 1)):
    policies, baseline = build_class(6), default_baseline()
    seed = np.random.SeedSequence(seed)
    args = (dataset, policies, SPEC, baseline, mode, HYPER, seed)
    if method == "snpl":
        return snpl_run(*args)
    if method == "bonferroni":
        return bonferroni_run(*args)
    return hcpi_run(*args, rho=int(method[3:]) / 100.0)


def learning_rows(seed: tuple, n: int, rho: float) -> np.ndarray:
    """A ds-* run's learning rows rebuilt from its recorded seed: the first
    of the four spawned streams permutes the rows."""
    split_stream = np.random.SeedSequence(seed).spawn(4)[0]
    perm = np.random.default_rng(split_stream).permutation(n)
    return np.sort(perm[: math.floor(rho * n)])


@pytest.mark.parametrize("mode", ("finite", "asymptotic"))
@pytest.mark.parametrize("method", METHODS)
def test_blocks_present_as_the_method_needs(method, mode):
    trace = run(method, generate(500, np.random.default_rng(3)), mode)
    blob = json.loads(json.dumps(trace.to_json_dict()))
    assert isinstance(trace, Trace) and blob["schema_version"] == 2
    assert blob["method"] == method and blob["mode"] == mode
    is_snpl, is_ds = method == "snpl", method.startswith("ds-")
    assert (trace.svt is not None) == is_snpl
    assert (trace.split is not None) == is_ds
    assert (trace.selected_id is not None) == is_ds
    assert ("stability" in blob, "svt" in blob) == (is_snpl, is_snpl)
    assert ("split" in blob, "learning" in blob) == (is_ds, is_ds)
    assert set(blob["hyper"]) == {"folds", "n_sim"} | (SNPL_HYPER if is_snpl else set())
    if not is_snpl:
        assert blob["pruned"] == [] and trace.scan == ()
    if is_ds:
        assert set(blob["split"]) == {"rho", "learning_count", "testing_count", "rows_sha256"}
        assert blob["learning"]["selected"] == trace.selected_id
    assert trace.is_baseline == (trace.decision == trace.baseline_id) == blob["is_baseline"]
    valued = {"snpl": trace.pruned_ids, "bonferroni": trace.certified_ids}
    assert tuple(trace.goal_values) == valued.get(method, (trace.selected_id,))


@pytest.mark.parametrize("mode", ("finite", "asymptotic"))
@pytest.mark.parametrize("method", ("ds-25", "ds-50", "ds-75"))
def test_split_hash_matches_rows_from_recorded_seed(method, mode):
    ds = generate(400, np.random.default_rng(4))
    trace = run(method, ds, mode, seed=(9, 2, 3))
    split = trace.to_json_dict()["split"]
    rows = learning_rows(trace.seed, ds.n, split["rho"])
    np.testing.assert_array_equal(trace.split.learning, rows)
    assert split["learning_count"] == len(rows)
    assert split["testing_count"] == ds.n - len(rows)
    assert split["rows_sha256"] == hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest()


def test_split_trace_size_does_not_grow_with_n():
    # n = 500 against n = 20,000: only digits of n, counts and floats change
    traces = [run("ds-50", generate(n, np.random.default_rng(5)), "finite") for n in (500, 20_000)]
    sizes = [len(json.dumps(t.to_json_dict())) for t in traces]
    assert sizes[1] < sizes[0] + 200


def test_is_baseline_is_derived_from_decision():
    trace = run("bonferroni", generate(300, np.random.default_rng(6)), "finite")
    for decision in (trace.baseline_id, "g2@0.5"):
        moved = dataclasses.replace(trace, decision=decision)
        assert moved.is_baseline == (decision == trace.baseline_id)
        assert moved.to_json_dict()["is_baseline"] == moved.is_baseline


class TestSnplRunCommand:
    """`snpl run` on a CSV: exit 0 with a non-baseline decision, 3 on the
    baseline fallback, and a schema-2 snpl trace either way."""

    def run_cli(self, tmp_path, dataset, **config):
        data, cfg, out = (str(tmp_path / f) for f in ("data.csv", "config.json", "trace.json"))
        write_dataset_csv(dataset, data)
        config = BenchmarkConfig(methods=("snpl",), grid_size=20, eta=3, **config)
        write_json(config.to_json_dict(), cfg)
        code = cli.main(["run", "--data", data, "--config", cfg, "--out", out])
        with open(out, encoding="utf-8") as fh:
            blob = json.load(fh)
        assert blob["schema_version"] == 2 and blob["method"] == "snpl"
        assert code == (3 if blob["is_baseline"] else 0)
        return code, blob

    def test_none_certify(self, tmp_path):
        # n = 200 with w = 0: the Bernstein widths dwarf every margin
        ds = generate(200, np.random.default_rng(0))
        code, blob = self.run_cli(tmp_path, ds, mode="finite", weights=(0.0, 0.0))
        assert code == 3 and blob["pruned"] and blob["certified"] == []
        assert blob["decision"] == blob["baseline"]

    def test_all_certify(self, tmp_path):
        # w = -0.9 leaves every guardrail wide slack at n = 4,000
        ds = generate(4000, np.random.default_rng(0))
        code, blob = self.run_cli(tmp_path, ds, mode="finite", weights=(-0.9, -0.9))
        assert code == 0 and len(blob["pruned"]) == 3
        assert blob["certified"] == blob["pruned"]
        assert blob["decision"] in blob["pruned"]

    def test_constant_guardrail_outcome(self, tmp_path):
        # Y2 = 1 on every row: the cross-fitted DR influence column of
        # guardrail 2 has zero variance, so its width is 0 and its margin
        # the constant -w_2 * 1 = 0.1
        ds = generate(1000, np.random.default_rng(0))
        outcomes = ds.outcomes.copy()
        outcomes[:, 1] = 1.0
        ds = Dataset(ds.covariates, ds.actions, outcomes, ds.propensity)
        code, blob = self.run_cli(
            tmp_path, ds, mode="asymptotic", weights=(-0.3, -0.1), n_sim=2000
        )
        assert code == 0 and blob["pruned"]
        second = [e for e in blob["final_bounds"]["entries"] if e["guardrail"] == 2]
        assert len(second) == len(blob["pruned"])
        for e in second:
            assert e["width"] == 0.0
            assert e["margin"] == pytest.approx(0.1, abs=1e-12)
