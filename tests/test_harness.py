import csv
import json
import math
import os
import sys
import types

import numpy as np
import pytest

from snpl import harness
from snpl.core import Dataset, Hyperparams
from snpl.harness import (
    BenchmarkConfig,
    METHOD_STREAMS,
    load_config,
    load_csv_inputs,
    read_dataset_csv,
    run_benchmark,
    run_single,
    worker_count,
    write_dataset_csv,
    write_gamma_grid_csv,
    write_json,
    write_report_csv,
)
from snpl.synthetic import generate, truth_table

from conftest import three_arm_generate


def tiny_config(**kwargs) -> BenchmarkConfig:
    base = dict(
        methods=("bonferroni",),
        mode="finite",
        n=150,
        replications=4,
        grid_size=5,
        master_seed=11,
    )
    base.update(kwargs)
    return BenchmarkConfig(**base)


class TestBenchmarkConfig:
    def test_defaults_mirror_benchmark(self):
        cfg = BenchmarkConfig()
        assert cfg.alpha == 0.1 and cfg.gamma == 0.1 and cfg.weights == (0.0, -0.1)
        assert cfg.baseline().policy_id == "g1@0.5"
        assert cfg.spec().s_count == 2
        assert cfg.hyper().folds == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="replications"):
            BenchmarkConfig(replications=0)
        with pytest.raises(ValueError, match="unrecognized method tag"):
            BenchmarkConfig(methods=("ds-33",))
        with pytest.raises(ValueError, match="mode"):
            BenchmarkConfig(mode="bootstrap")
        with pytest.raises(ValueError, match="w length"):
            BenchmarkConfig(guardrails=(1,), weights=(0.0, -0.1))

    def test_n_sim_checked_when_built(self):
        assert BenchmarkConfig(n_sim=100).n_sim == 100
        with pytest.raises(ValueError, match="n_sim must be >= 100"):
            BenchmarkConfig(n_sim=50)
        with pytest.raises(ValueError, match="n_sim must be >= 100"):
            BenchmarkConfig.from_json_dict({"n_sim": 50})

    @pytest.mark.parametrize(
        "methods, message",
        [((), "at least one method"), (("snpl", "snpl"), "must not repeat")],
        ids=("empty", "repeated"),
    )
    def test_methods_checked_when_built(self, methods, message):
        with pytest.raises(ValueError, match=message):
            BenchmarkConfig(methods=methods)
        with pytest.raises(ValueError, match=message):
            BenchmarkConfig.from_json_dict({"methods": list(methods)})

    @pytest.mark.parametrize(
        "setting, message",
        [({"baseline_cutoff": 2.0}, r"cutoff must lie in \[0, 1\]"),
         ({"baseline_feature": "g9"}, "unknown feature function 'g9'")],
        ids=("cutoff", "feature"),
    )
    def test_baseline_built_once_when_built(self, setting, message):
        with pytest.raises(ValueError, match=message):
            BenchmarkConfig(**setting)
        cfg = BenchmarkConfig(baseline_feature="g2", baseline_cutoff=0.25)
        assert cfg.baseline() is cfg.baseline()
        assert cfg.baseline().policy_id == "g2@0.25"

    @pytest.mark.parametrize("mode", ["asymptotic", "finite"])
    def test_largest_accepted_gamma_runs(self, mode):
        # alpha'(delta*) falls like exp(-gamma^2 / 2): the edge of the
        # accepted gammas sits a factor 4 of alpha' inside the gammas where
        # 3 eta |S| / alpha' overflows (alpha' near 1e-308), and snpl runs
        # there at any n, its B finite
        from snpl.algorithm import snpl_run
        from snpl.synthetic import build_class

        lo, hi = 1.0, 100.0
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            try:
                BenchmarkConfig(mode=mode, gamma=mid, grid_size=2)
                lo = mid
            except ValueError as err:
                assert "too small for snpl's bounds" in str(err)
                hi = mid
        assert 36.0 < lo < 37.0
        cfg = BenchmarkConfig(mode=mode, gamma=lo, grid_size=2)
        for n in (40, 1000, 54321):
            ds = generate(n, np.random.default_rng(n))
            trace = snpl_run(ds, build_class(2), cfg.spec(), cfg.baseline(), mode, cfg.hyper())
            assert 0.0 < trace.svt.alpha_prime < 1e-300 and math.isfinite(trace.svt.B)

    def test_hyperparameter_defaults_are_hyperparams_own(self):
        assert BenchmarkConfig().hyper() == Hyperparams()

    def test_spec_errors_raised_when_built(self):
        with pytest.raises(ValueError, match="nonpositive"):
            BenchmarkConfig(weights=(0.5, 0.0))

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"gamma": -1}, "gamma must be positive"),
            ({"folds": 1}, "folds must be >= 2"),
            ({"eta": 0}, "eta must be >= 1"),
            ({"p": 1, "methods": ("bonferroni",)}, "p must be < 1"),
        ],
        ids=("gamma", "folds", "eta", "p-bonferroni"),
    )
    def test_hyperparameter_errors_raised_when_built(self, setting, message):
        with pytest.raises(ValueError, match=message):
            BenchmarkConfig(**setting)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"n": 3}, "more folds than observations"),
            ({"n": 8, "methods": ("ds-50",)}, "'ds-50' splits n = 8 rows into 4 and 4"),
            ({"n": 19, "methods": ("ds-25",)}, "'ds-25' splits n = 19 rows into 4 and 15"),
            ({"n": 3, "methods": ("ds-25",), "mode": "finite"}, "each side needs at least 1"),
            ({"n": 1, "methods": ("ds-75",), "mode": "finite"}, "into 0 and 1"),
            ({"n": 1, "mode": "finite"}, "method 'snpl' needs n >= 2 rows, got n = 1"),
        ],
        ids=("snpl-n-below-folds", "ds-50", "ds-25", "ds-25-finite", "ds-75-finite",
             "snpl-finite-n-1"),
    )
    def test_sample_size_errors_raised_when_built(self, setting, message, monkeypatch):
        # n is checked where it makes rows: the config builds, and
        # run_benchmark raises before it generates any data
        from snpl import harness

        def no_data(*args):
            raise AssertionError("data generated for a config that cannot run")

        monkeypatch.setattr(harness, "generate", no_data)
        cfg = BenchmarkConfig(replications=1, **setting)
        with pytest.raises(ValueError, match=message):
            run_benchmark(cfg, workers=1)

    @pytest.mark.parametrize(
        "setting",
        [
            {"n": 5},
            {"n": 10, "methods": ("ds-50",)},
            {"n": 20, "methods": ("ds-25", "ds-50", "ds-75")},
            {"n": 4, "methods": ("ds-25", "ds-75"), "mode": "finite"},
            {"n": 2, "methods": ("snpl", "bonferroni", "ds-50"), "mode": "finite"},
            {"n": 1, "methods": ("bonferroni",), "mode": "finite"},
        ],
        ids=("asymptotic-n-equals-folds", "ds-50", "ds-all", "finite-ds", "finite-tiny",
             "finite-bonferroni-n-1"),
    )
    def test_smallest_sample_sizes_accepted(self, setting, monkeypatch):
        # run_benchmark passes its sample-size check and goes on to generate
        from snpl import harness

        class Generated(Exception):
            pass

        def generated(*args):
            raise Generated

        monkeypatch.setattr(harness, "generate", generated)
        cfg = BenchmarkConfig(replications=1, grid_size=2, **setting)
        assert cfg.n == setting["n"]
        with pytest.raises(Generated):
            run_benchmark(cfg, workers=1)

    def test_json_round_trip(self):
        cfg = tiny_config(eta=7, senses=("lower", "upper"), weights=(0.0, 0.0))
        back = BenchmarkConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            BenchmarkConfig.from_json_dict({"grid": 10})

    @pytest.mark.parametrize(
        "version, message",
        [
            (99, "'schema_version' must be 1: 99"),
            (2, "'schema_version' must be 1: 2"),
            ("abc", "'schema_version' must be an integer"),
            (True, "'schema_version' must be an integer"),
            (1.0, "'schema_version' must be an integer"),
        ],
    )
    def test_schema_version_other_than_one_rejected(self, version, message):
        with pytest.raises(ValueError, match=message):
            BenchmarkConfig.from_json_dict({"schema_version": version})

    @pytest.mark.parametrize("obj", [{}, {"schema_version": None}, {"schema_version": 1}])
    def test_schema_version_one_or_absent_accepted(self, obj):
        assert BenchmarkConfig.from_json_dict(obj) == BenchmarkConfig()

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            BenchmarkConfig.from_json_dict([1, 2])

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read config"):
            load_config(str(tmp_path / "none.json"))

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="cannot read config"):
            load_config(str(path))

    def test_load_config_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "c.json"
        write_json(cfg.to_json_dict(), str(path))
        assert load_config(str(path)) == cfg


class TestWorkerCount:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("SNPL_THREADS", "7")
        assert worker_count(10, workers=3) == 3

    def test_capped_at_replications(self):
        assert worker_count(2, workers=8) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SNPL_THREADS", "2")
        assert worker_count(5) == 2

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("SNPL_THREADS", "many")
        with pytest.raises(ValueError, match="SNPL_THREADS"):
            worker_count(5)

    def test_default_at_least_one(self, monkeypatch):
        monkeypatch.delenv("SNPL_THREADS", raising=False)
        assert worker_count(100) >= 1


class TestSeeding:
    def test_deterministic(self):
        a = np.random.default_rng((3, 5, 1)).random(4)
        b = np.random.default_rng((3, 5, 1)).random(4)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        draws = {}
        for r in range(3):
            for slot in range(6):
                key = float(np.random.default_rng((0, r, slot)).random())
                draws[(r, slot)] = key
        assert len(set(draws.values())) == len(draws)

    def test_method_slots_fixed(self):
        assert METHOD_STREAMS == {
            "snpl": 1, "ds-25": 2, "ds-50": 3, "ds-75": 4, "bonferroni": 5,
        }


class TestRunBenchmark:
    def test_smoke_and_shapes(self):
        report = run_benchmark(tiny_config(), workers=1)
        res = report.result("bonferroni")
        assert res.reps == 4
        assert 0.0 <= res.detection <= 1.0
        assert res.detection_se >= 0.0
        blob = report.to_json_dict()
        assert blob["schema_version"] == 1
        assert blob["config"]["replications"] == 4
        assert len(blob["results"]) == 1

    def test_inline_matches_pool(self, tmp_path):
        cfg = tiny_config(
            methods=tuple(METHOD_STREAMS), mode="asymptotic", replications=3, n_sim=2000,
            save_traces=True,
        )
        files = {}
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            write_report_csv(run_benchmark(cfg, workers=workers, out_dir=str(out)),
                             str(out / "report.csv"))
            files[workers] = {
                p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()
            }
        assert len(files[1]) == 1 + 3 * len(METHOD_STREAMS)
        assert files[1] == files[2]

    def test_report_deterministic(self, tmp_path):
        cfg = tiny_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(run_benchmark(cfg, workers=1), str(p1))
        write_report_csv(run_benchmark(cfg, workers=1), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_traces_saved_and_consistent(self, tmp_path):
        cfg = tiny_config(save_traces=True)
        report = run_benchmark(cfg, workers=1, out_dir=str(tmp_path))
        paths = sorted(os.listdir(tmp_path / "traces"))
        assert paths == [f"bonferroni_r{r:05d}.json" for r in range(4)]
        # EI must equal the truth-oracle gain over trace decisions
        from snpl.synthetic import build_class

        policies = build_class(cfg.grid_size)
        truth = truth_table(policies, cfg.baseline(), cfg.spec())
        gains = []
        for p in paths:
            blob = json.loads((tmp_path / "traces" / p).read_text())
            gains.append(
                truth.value(blob["decision"], cfg.goal) - truth.value("g1@0.5", cfg.goal)
            )
        res = report.result("bonferroni")
        assert res.ei == pytest.approx(float(np.mean(gains)), abs=1e-12)

    def test_scores_match_the_full_class_truth(self, tmp_path):
        # truth is taken for the decided policies only; every score must
        # equal the one the whole class's truth table gives
        cfg = tiny_config(
            methods=tuple(METHOD_STREAMS), mode="asymptotic", n=800, replications=3,
            grid_size=8, n_sim=2000, save_traces=True,
        )
        report = run_benchmark(cfg, workers=1, out_dir=str(tmp_path))
        from snpl.synthetic import build_class

        truth = truth_table(build_class(cfg.grid_size), cfg.baseline(), cfg.spec())
        base_id, M = cfg.baseline().policy_id, cfg.replications
        detected = 0
        for method in cfg.methods:
            decisions = [
                json.loads((tmp_path / "traces" / f"{method}_r{r:05d}.json").read_text())[
                    "decision"
                ]
                for r in range(M)
            ]
            nonbase = [d for d in decisions if d != base_id]
            detected += len(nonbase)
            gains = np.array(
                [truth.value(d, cfg.goal) - truth.value(base_id, cfg.goal) for d in decisions]
            )
            det = len(nonbase) / M
            res = report.result(method)
            assert res.detection == det
            assert res.detection_se == math.sqrt(det * (1.0 - det) / M)
            assert res.ei == float(gains.mean())
            assert res.ei_se == float(gains.std(ddof=1) / math.sqrt(M))
            if nonbase:
                type1 = sum(not truth.safe[d] for d in nonbase) / len(nonbase)
                assert res.type1 == type1
                assert res.type1_se == math.sqrt(type1 * (1.0 - type1) / len(nonbase))
            else:
                assert res.type1 is None and res.type1_se is None
        # the decisions mix the baseline and class members
        assert 0 < detected < M * len(cfg.methods)

    def test_zero_detection_gives_null_type1(self, tmp_path):
        # 25 candidates, n=60, w=(0,0): Bernstein widths dwarf any margin,
        # so nothing ever certifies
        cfg = tiny_config(n=60, replications=3, weights=(0.0, 0.0))
        report = run_benchmark(cfg, workers=1)
        res = report.result("bonferroni")
        assert res.detection == 0.0
        assert res.type1 is None and res.type1_se is None
        path = tmp_path / "r.csv"
        write_report_csv(report, str(path))
        rows = path.read_text().splitlines()
        assert rows[0] == "method,detection,detection_se,type1,type1_se,ei,ei_se,reps"
        assert rows[1].split(",")[3] == "" and rows[1].split(",")[4] == ""

    def test_no_traces_without_save_traces(self, tmp_path):
        run_benchmark(tiny_config(replications=1), workers=1, out_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("workers", (1, 2))
    def test_replication_failure_names_method_and_seed(self, monkeypatch, workers):
        real_run = harness.snpl_run

        def failing_run(*args):
            if args[-1][1] == 1:
                raise ArithmeticError("boom")
            return real_run(*args)

        monkeypatch.setattr(harness, "snpl_run", failing_run)
        cfg = tiny_config(methods=("snpl",), replications=3, master_seed=0)
        message = r"^method 'snpl' failed in replication 1 \(seed \(0, 1, 1\)\): boom$"
        with pytest.raises(RuntimeError, match=message):
            run_benchmark(cfg, workers=workers)
        assert harness._POOL_STATE == {}

    def test_flat_guardrails_complete_in_asymptotic_mode(self):
        # w = 0 on both guardrails: a ds-* learning side picks a twin of the
        # baseline (d = 0 everywhere), whose final table has no variance
        cfg = BenchmarkConfig(
            methods=tuple(METHOD_STREAMS), n=200, grid_size=100, replications=1,
            weights=(0.0, 0.0), n_sim=1000, master_seed=3,
        )
        report = run_benchmark(cfg, workers=1)
        assert [r.detection for r in report.results] == [0.0] * len(METHOD_STREAMS)

    def test_unknown_method_in_report_lookup(self):
        report = run_benchmark(tiny_config(), workers=1)
        with pytest.raises(KeyError):
            report.result("snpl")

    def test_sets_the_heap_thresholds_once_per_run(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        libc = types.SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: libc)
        run_benchmark(tiny_config(replications=2), workers=1)
        assert calls == [(-1, 32 << 20), (-3, 32 << 20)]  # M_TRIM_, M_MMAP_THRESHOLD

    @pytest.mark.parametrize("libc", ("raises", "no-mallopt"))
    def test_heap_setting_is_a_no_op_without_mallopt(self, monkeypatch, libc):
        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(
            harness.ctypes, "CDLL", no_libc if libc == "raises" else lambda name: object()
        )
        assert harness._keep_heap_mapped() is None
        report = run_benchmark(tiny_config(replications=2), workers=1)
        assert report.result("bonferroni").reps == 2


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        ds = generate(25, np.random.default_rng(0))
        path = tmp_path / "d.csv"
        write_dataset_csv(ds, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,a,y1,y2,e1,e2"
        back = read_dataset_csv(str(path), tiny_config())
        assert np.array_equal(back.actions, ds.actions)
        assert np.array_equal(back.outcomes, ds.outcomes)
        assert np.allclose(back.covariates, ds.covariates, atol=5e-7)
        assert np.array_equal(back.propensities, ds.propensities)

    def test_constant_propensity_round_trip(self, tmp_path):
        # the default config's (0.5, 0.5) must not replace the written columns
        ds = generate(25, np.random.default_rng(0))
        ds = Dataset(ds.covariates, ds.actions, ds.outcomes, np.broadcast_to([0.3, 0.7], (25, 2)))
        path = tmp_path / "d.csv"
        write_dataset_csv(ds, str(path))
        back = read_dataset_csv(str(path), tiny_config())
        assert np.array_equal(back.propensities, ds.propensities)
        assert back.c == 0.3

    def test_missing_propensity_columns_take_config_vector(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,x3,a,y1,y2\n0.1,0.2,0.3,1,1,0\n0.5,0.6,0.7,2,0,1\n")
        ds = read_dataset_csv(str(path), tiny_config(propensity=(0.3, 0.7)))
        assert np.array_equal(ds.propensities, [[0.3, 0.7]] * 2)
        assert ds.c == 0.3

    def test_explicit_propensity_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "x1,x2,x3,a,y1,y2,e1,e2\n"
            "0.1,0.2,0.3,1,1,0,0.4,0.6\n"
            "0.5,0.6,0.7,2,0,1,0.3,0.7\n"
        )
        ds = read_dataset_csv(str(path), tiny_config())
        assert np.array_equal(ds.propensities, [[0.4, 0.6], [0.3, 0.7]])
        assert ds.c == 0.3

    def test_tabular_propensity_round_trip(self, tmp_path):
        ds = three_arm_generate(40, np.random.default_rng(3))
        path = tmp_path / "d.csv"
        write_dataset_csv(ds, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,a,y1,y2,e1,e2,e3"
        # the config's constant vector must not replace the written columns
        back = read_dataset_csv(str(path), tiny_config())
        assert np.array_equal(back.propensities, ds.propensities)
        assert np.array_equal(back.actions, ds.actions)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,a,x2,y1\n0.1,1,0.2,0\n")
        with pytest.raises(ValueError, match="data header mismatch"):
            read_dataset_csv(str(path), tiny_config())

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,x3,a,y1,y2\n0.1,0.2,0.3,1,1\n")
        with pytest.raises(ValueError, match="wrong field count at data row 1"):
            read_dataset_csv(str(path), tiny_config())

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "x1,x2,x3,a,y1,y2\n0.1,0.2,0.3,1,1,0\n0.1,0.2,oops,2,0,1\n"
        )
        with pytest.raises(ValueError, match="unparseable value at data row 2"):
            read_dataset_csv(str(path), tiny_config())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty data file"):
            read_dataset_csv(str(path), tiny_config())

    def test_no_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,x3,a,y1,y2\n")
        with pytest.raises(ValueError, match="no rows"):
            read_dataset_csv(str(path), tiny_config())

    def test_validation_wrapped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,x3,a,y1,y2\n0.1,0.2,0.3,1,2.5,0\n")
        with pytest.raises(ValueError, match="outcome out of range at row 0"):
            read_dataset_csv(str(path), tiny_config())

    def test_propensity_vector_length_sets_actions(self, tmp_path):
        # K is the vector's length; the two-action threshold class then
        # refuses the three-action data
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,x3,a,y1,y2\n0.1,0.2,0.3,1,1,0\n")
        cfg = tiny_config(propensity=(0.2, 0.3, 0.5))
        assert read_dataset_csv(str(path), cfg).n_actions == 3
        cpath = tmp_path / "c.json"
        write_json(cfg.to_json_dict(), str(cpath))
        with pytest.raises(ValueError, match="two-action; the data has 3 actions"):
            load_csv_inputs(str(path), str(cpath))

    def test_short_propensity_columns_fail_validation(self, tmp_path):
        # a lone e-column implies K=1; the dataset check rejects it
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,x3,a,y1,y2,e1\n0.1,0.2,0.3,2,1,0,1.0\n")
        with pytest.raises(ValueError, match="at least two actions"):
            read_dataset_csv(str(path), tiny_config())


class TestGammaGridCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "g.csv"
        write_gamma_grid_csv(str(path), alpha_steps=3, gamma_steps=4)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "gamma", "ratio"]
        assert len(rows) == 1 + 3 * 4
        alphas = sorted({float(r[0]) for r in rows[1:]})
        gammas = sorted({float(r[1]) for r in rows[1:]})
        assert alphas[0] == pytest.approx(0.01) and alphas[-1] == pytest.approx(0.5)
        assert gammas[0] == pytest.approx(0.01) and gammas[-1] == pytest.approx(0.8)
        for r in rows[1:]:
            assert 0.0 < float(r[2]) <= 1.0

    @pytest.mark.parametrize("name", ["alpha_steps", "gamma_steps"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_step_count_below_one_is_a_value_error(self, tmp_path, name, count):
        path = tmp_path / "g.csv"
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {count}$"):
            write_gamma_grid_csv(str(path), **{name: count})
        assert not path.exists()


class TestRunSingle:
    def prepare(self, tmp_path, **cfg_kwargs):
        ds = generate(300, np.random.default_rng(42))
        data = tmp_path / "data.csv"
        write_dataset_csv(ds, str(data))
        merged = dict(methods=("snpl",), eta=3)
        merged.update(cfg_kwargs)
        cfg = tiny_config(**merged)
        cpath = tmp_path / "config.json"
        write_json(cfg.to_json_dict(), str(cpath))
        return str(data), str(cpath), cfg

    def test_runs_and_reports_exit_code(self, tmp_path):
        data, cpath, cfg = self.prepare(tmp_path)
        out = tmp_path / "out.json"
        code = run_single(data, cpath, str(out))
        blob = json.loads(out.read_text())
        assert blob["method"] == "snpl"
        assert code == (3 if blob["is_baseline"] else 0)

    def test_byte_identical_reruns(self, tmp_path):
        data, cpath, _ = self.prepare(tmp_path)
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert run_single(data, cpath, str(out1)) == run_single(data, cpath, str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_matches_library_call(self, tmp_path):
        from snpl.algorithm import snpl_run
        from snpl.synthetic import build_class

        data, cpath, cfg = self.prepare(tmp_path)
        out = tmp_path / "out.json"
        run_single(data, cpath, str(out))
        blob = json.loads(out.read_text())

        ds = read_dataset_csv(data, cfg)
        trace = snpl_run(
            ds, build_class(cfg.grid_size), cfg.spec(), cfg.baseline(), cfg.mode, cfg.hyper(),
            (cfg.master_seed, 0, METHOD_STREAMS["snpl"]),
        )
        assert blob == trace.to_json_dict()

    def test_first_method_selected(self, tmp_path):
        data, cpath, _ = self.prepare(tmp_path, methods=("ds-50", "snpl"))
        out = tmp_path / "out.json"
        run_single(data, cpath, str(out))
        assert json.loads(out.read_text())["method"] == "ds-50"

    def test_guardrail_bounds_checked(self, tmp_path):
        data, cpath, _ = self.prepare(tmp_path, guardrails=(1, 3), weights=(0.0, 0.0))
        with pytest.raises(ValueError, match="guardrail index 3 exceeds the 2 outcomes"):
            run_single(data, cpath, str(tmp_path / "out.json"))


class TestCli:
    def test_gamma_grid_command(self, tmp_path):
        from snpl.cli import main

        out = tmp_path / "grid.csv"
        assert main(["gamma-grid", "--out", str(out), "--alpha-steps", "2",
                     "--gamma-steps", "3"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("flag", ["--alpha-steps", "--gamma-steps"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_gamma_grid_step_count_below_one_exits_two(self, tmp_path, capsys, flag, count):
        from snpl.cli import main

        out = tmp_path / "grid.csv"
        assert main(["gamma-grid", "--out", str(out), flag, str(count)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {flag} must be >= 1, got {count}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "bounds-scatter", "gamma-grid"])
    @pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
    def test_unwritable_out_exits_two_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, where
    ):
        from snpl import cli

        def no_work(*args):
            raise AssertionError("work done for an --out that cannot be written")

        for name in ("load_csv_inputs", "run_single", "write_gamma_grid_csv"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "missing" / "o.json" if where == "missing-dir" else tmp_path
        args = ["--out", str(out)]
        if command != "gamma-grid":
            args += ["--data", str(tmp_path / "d.csv"), "--config", str(tmp_path / "c.json")]
        assert cli.main([command, *args]) == 2
        err = capsys.readouterr().err.splitlines()
        expect = "no directory" if where == "missing-dir" else "is a directory"
        assert len(err) == 1 and err[0].startswith("error: cannot write output: ")
        assert expect in err[0]

    def test_simulate_out_on_a_file_exits_two(self, tmp_path, capsys):
        from snpl.cli import main

        cpath = tmp_path / "c.json"
        write_json(tiny_config(replications=1).to_json_dict(), str(cpath))
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert main(["simulate", "--config", str(cpath), "--out", str(blocker / "sim")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot create output directory")

    def test_run_command_exit_codes(self, tmp_path):
        from snpl.cli import main

        ds = generate(300, np.random.default_rng(1))
        data = tmp_path / "d.csv"
        write_dataset_csv(ds, str(data))
        cfg = tiny_config(methods=("snpl",), eta=3)
        cpath = tmp_path / "c.json"
        write_json(cfg.to_json_dict(), str(cpath))
        out = tmp_path / "o.json"
        code = main(["run", "--data", str(data), "--config", str(cpath), "--out", str(out)])
        assert code in (0, 3)
        assert out.exists()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        from snpl.cli import main

        cpath = tmp_path / "c.json"
        cpath.write_text("{broken")
        code = main(["simulate", "--config", str(cpath), "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_small_n_sim_exits_two(self, tmp_path, capsys):
        from snpl.cli import main

        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps({"n_sim": 50, "replications": 1}))
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cpath), "--out", str(out_dir)]) == 2
        assert "n_sim must be >= 100" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"gamma": -1}, "gamma must be positive"),
            ({"folds": 1}, "folds must be >= 2"),
            ({"eta": 0}, "eta must be >= 1"),
            ({"p": 1, "methods": ["bonferroni"]}, "p must be < 1"),
            ({"in_loop": "supt"}, "unknown config fields: ['in_loop']"),
            ({"loop_n_sim": 500}, "unknown config fields: ['loop_n_sim']"),
            ({"epsilon": 0.05}, "unknown config fields: ['epsilon']"),
            ({"guardrails": 2}, "'guardrails' must be an array, each entry an integer"),
            ({"methods": "snpl"}, "'methods' must be an array, each entry a string"),
            ({"weights": [0, "-0.1"]}, "'weights' must be an array, each entry a number"),
            ({"n": "1000"}, "'n' must be an integer"),
            ({"grid_size": "5"}, "'grid_size' must be an integer"),
            ({"replications": True}, "'replications' must be an integer"),
            ({"alpha": "0.1"}, "'alpha' must be a number"),
            ({"save_traces": "no"}, "'save_traces' must be a boolean"),
            ({"mode": 1}, "'mode' must be a string"),
            ({"gamma": 40}, "too small for snpl's bounds; lower gamma"),
            ({"gamma": 40, "mode": "finite"}, "too small for snpl's bounds; lower gamma"),
            ({"schema_version": 99}, "'schema_version' must be 1: 99"),
            ({"schema_version": "abc"}, "'schema_version' must be an integer"),
        ],
        ids=(
            "gamma", "folds", "eta", "p-bonferroni", "in_loop", "loop_n_sim", "epsilon",
            "guardrails-scalar", "methods-string", "weights-entry", "n-string",
            "grid_size-string", "replications-bool", "alpha-string", "save_traces-string",
            "mode-number", "gamma-40", "gamma-40-finite", "schema-99", "schema-string",
        ),
    )
    def test_malformed_config_exits_two_before_any_data(
        self, tmp_path, capsys, monkeypatch, setting, message
    ):
        from snpl import harness
        from snpl.cli import main

        def no_data(*args):
            raise AssertionError("data generated for a malformed config")

        monkeypatch.setattr(harness, "generate", no_data)
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps({"replications": 1, "n": 100, "grid_size": 2, **setting}))
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cpath), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not (out_dir / "report.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "run"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"methods": []}, "methods must list at least one method"),
            ({"methods": ["snpl", "snpl"]}, "methods must not repeat"),
            ({"baseline_cutoff": 2.0}, "cutoff must lie in [0, 1]"),
        ],
        ids=("no-methods", "repeated-method", "baseline-cutoff"),
    )
    def test_bad_methods_or_baseline_exit_two_before_any_data(
        self, tmp_path, capsys, monkeypatch, command, setting, message
    ):
        from snpl import harness
        from snpl.cli import main

        def no_data(*args):
            raise AssertionError("data generated or read for a malformed config")

        monkeypatch.setattr(harness, "generate", no_data)
        monkeypatch.setattr(harness, "read_dataset_csv", no_data)
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps({"replications": 1, "n": 100, "grid_size": 2, **setting}))
        out = tmp_path / "out"
        args = ["--config", str(cpath), "--out", str(out)]
        if command == "run":
            args += ["--data", str(tmp_path / "d.csv")]
        assert main([command, *args]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"n": 3, "methods": ["snpl"]}, "more folds than observations"),
            ({"n": 8, "methods": ["ds-50"], "replications": 1}, "method 'ds-50' splits"),
            (
                {"n": 1, "mode": "finite", "replications": 1, "grid_size": 2},
                "method 'snpl' needs n >= 2",
            ),
            (
                {"n": 200, "guardrails": [1, 3], "weights": [0, -0.1]},
                "guardrail index 3 exceeds the 2 outcomes",
            ),
            ({"n": 200, "goal": 3}, "goal index 3 exceeds the 2 outcomes"),
        ],
        ids=(
            "n-below-folds", "ds-50-split", "snpl-finite-n-1", "guardrail-3", "goal-3",
        ),
    )
    def test_sample_size_errors_exit_two_before_any_data(
        self, tmp_path, capsys, monkeypatch, setting, message
    ):
        from snpl import harness
        from snpl.cli import main

        def no_data(*args):
            raise AssertionError("data generated for a config that cannot run")

        monkeypatch.setattr(harness, "generate", no_data)
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(setting))
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cpath), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert sorted(os.listdir(out_dir)) == []

    def test_config_n_sizes_only_simulated_data(self, tmp_path, capsys, monkeypatch):
        # a CSV run takes its rows from the file, so a config whose n is
        # too small for five folds stops only simulate, before any data
        from snpl import harness
        from snpl.cli import main

        data = tmp_path / "d.csv"
        write_dataset_csv(generate(1000, np.random.default_rng(6)), str(data))

        def no_data(*args):
            raise AssertionError("data generated for a config that cannot run")

        monkeypatch.setattr(harness, "generate", no_data)
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps({"n": 3, "methods": ["snpl"], "grid_size": 5}))
        io = ["--data", str(data), "--config", str(cpath), "--out"]
        assert main(["run", *io, str(tmp_path / "t.json")]) in (0, 3)
        assert main(["bounds-scatter", *io, str(tmp_path / "s.csv")]) == 0
        assert capsys.readouterr().err == ""
        assert main(["simulate", "--config", str(cpath), "--out", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: more folds than observations: n = 3, folds = 5"]

    @pytest.mark.parametrize("command", ["run", "bounds-scatter"])
    def test_outcome_index_beyond_data_exits_two(self, tmp_path, capsys, command):
        # one outcome column against the default guardrails (1, 2)
        from snpl.cli import main

        ds = generate(60, np.random.default_rng(5))
        ds = Dataset(ds.covariates, ds.actions, ds.outcomes[:, :1], ds.propensities)
        data = tmp_path / "d.csv"
        write_dataset_csv(ds, str(data))
        cpath = tmp_path / "c.json"
        write_json(tiny_config(methods=("snpl",)).to_json_dict(), str(cpath))
        out = tmp_path / "out"
        code = main([command, "--data", str(data), "--config", str(cpath), "--out", str(out)])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: guardrail index 2 exceeds the 1 outcome"]

    def test_simulate_command(self, tmp_path):
        from snpl.cli import main

        cfg = tiny_config(replications=2)
        cpath = tmp_path / "c.json"
        write_json(cfg.to_json_dict(), str(cpath))
        out_dir = tmp_path / "results"
        assert main(["simulate", "--config", str(cpath), "--out", str(out_dir)]) == 0
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "report.json").exists()
        blob = json.loads((out_dir / "report.json").read_text())
        assert blob["results"][0]["method"] == "bonferroni"

    def test_simulate_at_gamma_ten(self, tmp_path):
        # 1 - alpha'(delta*) / (eta |S|) rounds to 1 here; snpl's bounds
        # take the quantile at the level itself
        from snpl.cli import main

        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps({"gamma": 10, "replications": 1, "n": 200, "grid_size": 2}))
        out_dir = tmp_path / "results"
        assert main(["simulate", "--config", str(cpath), "--out", str(out_dir)]) == 0
        rows = list(csv.DictReader(open(out_dir / "report.csv", encoding="utf-8")))
        assert [r["method"] for r in rows][0] == "snpl"

    @pytest.mark.parametrize("command", ["run", "bounds-scatter"])
    @pytest.mark.parametrize(
        "case, message",
        [("three-arm", "two-action; the data has 3 actions"), ("two-covariate", "needs columns x1..x3")],
    )
    def test_data_the_threshold_class_cannot_use(self, tmp_path, capsys, command, case, message):
        from snpl.cli import main

        if case == "three-arm":
            ds = three_arm_generate(60, np.random.default_rng(4))
        else:
            ds = generate(60, np.random.default_rng(5))
            ds = Dataset(ds.covariates[:, :2], ds.actions, ds.outcomes, ds.propensities)
        data = tmp_path / "d.csv"
        write_dataset_csv(ds, str(data))
        cpath = tmp_path / "c.json"
        write_json(tiny_config(methods=("snpl",)).to_json_dict(), str(cpath))
        out = tmp_path / "out"
        code = main([command, "--data", str(data), "--config", str(cpath), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err

    def test_bounds_scatter_command(self, tmp_path):
        from snpl.cli import main

        ds = generate(250, np.random.default_rng(2))
        data = tmp_path / "d.csv"
        write_dataset_csv(ds, str(data))
        cfg = tiny_config(methods=("snpl",), eta=2)
        cpath = tmp_path / "c.json"
        write_json(cfg.to_json_dict(), str(cpath))
        out = tmp_path / "scatter.csv"
        assert main(["bounds-scatter", "--data", str(data), "--config", str(cpath),
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["policy_id", "estimate_1", "bound_1", "threshold_1"]
        assert rows[1][0] == "g1@0.5"  # baseline row first
        assert float(rows[1][1]) == 0.0  # baseline difference is identically zero
        # exactly one row carries the selected flag
        sel = [r for r in rows[1:] if r[-2] == "1"]
        assert len(sel) == 1
        assert len(rows) == 1 + 25  # baseline + the 24 non-baseline grid policies


class TestBoundsScatter:
    @pytest.mark.parametrize(
        "mode,senses", (("asymptotic", None), ("asymptotic", ("lower", "upper")), ("finite", None))
    )
    def test_pruned_rows_reproduce_final_margins(self, tmp_path, mode, senses, monkeypatch):
        from snpl import estimators
        from snpl.algorithm import snpl_run
        from snpl.harness import emit_bounds_scatter
        from snpl.synthetic import build_class

        cfg = tiny_config(
            methods=("snpl",), mode=mode, eta=3, grid_size=8, n_sim=2000,
            weights=(-0.3, -0.3), senses=senses,
        )
        ds = generate(400, np.random.default_rng(3))
        policies = build_class(cfg.grid_size)
        out = tmp_path / "scatter.csv"
        # the scatter reuses the run's arm scores: the run's own nuisance
        # fit is the only one, wherever a module binds fit_nuisance
        fits = []
        real_fit = estimators.fit_nuisance
        for mod in [m for name, m in sys.modules.items() if name.startswith("snpl.")]:
            if getattr(mod, "fit_nuisance", None) is real_fit:
                monkeypatch.setattr(mod, "fit_nuisance", lambda *a: fits.append(1) or real_fit(*a))
        emit_bounds_scatter(ds, policies, cfg, str(out))
        monkeypatch.undo()
        assert len(fits) == (mode == "asymptotic")
        with open(out) as fh:
            rows = list(csv.DictReader(fh))

        # one row per policy: the baseline first, then the class in order
        base_id = cfg.baseline().policy_id
        ids = [r["policy_id"] for r in rows]
        assert ids == [base_id] + [p.policy_id for p in policies if p.policy_id != base_id]

        trace = snpl_run(
            ds, policies, cfg.spec(), cfg.baseline(), mode, cfg.hyper(),
            (cfg.master_seed, 0, METHOD_STREAMS["snpl"]),
        )
        assert trace.pruned_ids
        spec = cfg.spec()
        pruned = [r for r in rows if r["pruned"] == "1"]
        assert [r["policy_id"] for r in pruned] == sorted(trace.pruned_ids, key=ids.index)
        for r in pruned:
            margin = trace.final.margins[trace.final.policy_ids.index(r["policy_id"])]
            for s in range(spec.s_count):
                gap = float(r[f"bound_{s+1}"]) - float(r[f"threshold_{s+1}"])
                assert spec.sign(s) * gap == pytest.approx(margin[s], abs=1e-12)
        selected = [r["policy_id"] for r in rows if r["selected"] == "1"]
        assert selected == [trace.decision]  # the baseline row on fallback

    def test_finite_empty_pruned_set_uses_eta(self, tmp_path):
        # nothing is pruned here, so the widths are the in-loop ones: the
        # Bernstein width at alpha' with |Pi~| = eta = 3, not |Pi~| = 1
        from snpl.algorithm import snpl_run
        from snpl.bounds import finite_bounds
        from snpl.estimators import arm_scores, influence_table
        from snpl.harness import emit_bounds_scatter
        from snpl.core import ThresholdPolicy
        from snpl.synthetic import build_class

        ds = generate(300, np.random.default_rng(28))
        cfg = BenchmarkConfig(mode="finite", grid_size=20, master_seed=28, eta=3)
        policies = build_class(cfg.grid_size)
        out = tmp_path / "scatter.csv"
        emit_bounds_scatter(ds, policies, cfg, str(out))
        with open(out) as fh:
            rows = {r["policy_id"]: r for r in csv.DictReader(fh)}

        trace = snpl_run(
            ds, policies, cfg.spec(), cfg.baseline(), "finite", cfg.hyper(),
            (cfg.master_seed, 0, METHOD_STREAMS["snpl"]),
        )
        assert trace.pruned_ids == () and trace.svt.eta == 3
        table = influence_table(
            ds, arm_scores(ds), [ThresholdPolicy("g1", 0.0)], cfg.spec(), cfg.baseline()
        )
        want = finite_bounds(table, trace.svt.alpha_prime, assumed_class_size=3)
        row = rows["g1@0"]
        width = float(row["estimate_1"]) - float(row["bound_1"])
        assert width == pytest.approx(want.widths[0, 0], abs=1e-12)
        assert width == pytest.approx(0.330, abs=5e-4)
        assert all(r["pruned"] == "0" and r["pruned_size"] == "0" for r in rows.values())

    def test_baseline_twin_writes_finite_values(self, tmp_path):
        # w = 0: the pruned twin g1@0.4995 treats the baseline's rows, so no
        # row of the final table varies and every width is 0
        from snpl.core import ThresholdPolicy
        from snpl.harness import emit_bounds_scatter

        cfg = BenchmarkConfig(methods=("snpl",), weights=(0.0, 0.0), eta=1, n_sim=1000)
        ds = generate(200, np.random.default_rng(0))
        out = tmp_path / "s.csv"
        emit_bounds_scatter(ds, [cfg.baseline(), ThresholdPolicy("g1", 0.4995)], cfg, str(out))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["policy_id"], r["pruned"], r["selected"]) for r in rows] == [
            ("g1@0.5", "0", "1"), ("g1@0.4995", "1", "0"),
        ]
        for r in rows:
            for s in (1, 2):
                assert math.isfinite(float(r[f"bound_{s}"]))
                assert r[f"bound_{s}"] == r[f"estimate_{s}"]

    @pytest.mark.parametrize("mode", ("finite", "asymptotic"))
    def test_statistics_reuse_the_runs_grouping(self, tmp_path, mode, monkeypatch):
        # the scatter scores the candidates snpl_run just grouped on this
        # dataset: inside its class_stats call only the baseline's
        # contraction reads a feature
        from snpl.core import ThresholdPolicy
        from snpl.harness import emit_bounds_scatter
        from snpl.synthetic import build_class

        cfg = tiny_config(methods=("snpl",), mode=mode, eta=3, grid_size=8, n_sim=2000)
        inside, read = [], []
        real_values, real_stats = ThresholdPolicy.feature_values, harness.class_stats

        def values(self, X):
            if inside:
                read.append(self.policy_id)
            return real_values(self, X)

        def stats(*args):
            inside.append(True)
            try:
                return real_stats(*args)
            finally:
                inside.clear()

        monkeypatch.setattr(ThresholdPolicy, "feature_values", values)
        monkeypatch.setattr(harness, "class_stats", stats)
        ds = generate(400, np.random.default_rng(3))
        emit_bounds_scatter(ds, build_class(cfg.grid_size), cfg, str(tmp_path / "s.csv"))
        assert read == [cfg.baseline().policy_id]
