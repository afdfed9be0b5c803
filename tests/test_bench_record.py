import importlib.util
import json
import pathlib

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_src_lines_counts_package_lines_like_wc(tmp_path):
    pkg = tmp_path / "src" / "snpl"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\nw = 4")  # no final newline: wc -l counts 1
    (pkg / "notes.txt").write_text("not source\n")
    assert bench_record._src_lines(str(tmp_path)) == 3


def test_spread_takes_inclusive_quartiles():
    out = bench_record.spread([4.0, 1.0, 3.0, 2.0, 5.0])
    assert out == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [4.0, 1.0, 3.0, 2.0, 5.0]}


def test_compare_resolves_on_nine_of_ten_pairs_outside_the_parents_spread():
    higher = {"better": "higher", "bound": 0.25}
    lower = {"better": "lower", "bound": 0.25}
    parent = bench_record.spread([10.0 + i for i in range(10)])  # median 14.5, IQR 4.5
    close = bench_record.spread([14.0 + i for i in range(9)] + [1.0])  # gain 3, 9 of 10
    assert bench_record.compare(parent, close, higher) == {
        "better_pairs": 9, "pairs": 10, "resolved": False, "regressed": False,
    }
    faster = bench_record.spread([20.0 + i for i in range(9)] + [1.0])  # gain 9, 9 of 10
    assert bench_record.compare(parent, faster, higher)["resolved"] is True
    few = bench_record.spread([30.0 + i for i in range(8)] + [1.0, 2.0])  # gain 18, 8 of 10
    assert bench_record.compare(parent, few, higher)["resolved"] is False
    # read with lower = better, the faster runs are a rise of 62% > 25%
    assert bench_record.compare(parent, faster, lower) == {
        "better_pairs": 1, "pairs": 10, "resolved": False, "regressed": True,
    }
    slight = bench_record.spread([x * 1.2 for x in parent["runs"]])  # +20%, inside 25%
    assert bench_record.compare(parent, slight, lower)["regressed"] is False


def test_record_alternates_the_checkouts_and_stores_spreads(tmp_path, monkeypatch):
    bench = {
        "run_seconds": 3,
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "ops_per_s", "better": "higher", "bound": 0.25},
            {"name": "op_ms.p50", "better": "lower", "bound": 0.25},
        ],
    }
    roots = {"parent": str(tmp_path / "p"), "change": str(tmp_path / "c")}
    for root in roots.values():
        pathlib.Path(root).mkdir()
    (tmp_path / "c" / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def fake_perfbench(root, workload, seed, seconds, trace):
        calls.append((root, trace))
        k = sum(1 for c in calls if c == (root, trace))  # this side's run count
        ops = (10.0 if root == roots["parent"] else 12.0) + k
        return {
            "metrics": {"ops_per_s": ops, "op_ms.p50": 1000.0 / ops, "layer.ms": float(trace)},
            "attempted": 10 * k,
            "failed": 0,
            "decisions_sha": "abc",
            "method_ms_p50": {"snpl": float(k)},
            "stages": {"scan": 1.0},
        }

    monkeypatch.setattr(bench_record, "_perfbench", fake_perfbench)
    monkeypatch.setattr(bench_record, "_checkout", lambda root: {"git_sha": root})
    monkeypatch.setattr(bench_record, "PAIRS", 3)
    out = bench_record.record(roots, seed=0, seconds=None)

    p, c = roots["parent"], roots["change"]
    assert calls == [(p, 0), (c, 0), (c, 0), (p, 0), (p, 0), (c, 0), (c, 1), (p, 1)]
    assert out["parent"]["git_sha"] == p and out["change"]["pairs"] == 3
    assert out["change"]["seconds"] == 3
    parent, change = out["parent"]["workloads"]["w"], out["change"]["workloads"]["w"]
    assert parent["end_to_end_spread"]["ops_per_s"] == {
        "median": 12.0, "q1": 11.5, "q3": 12.5, "runs": [11.0, 12.0, 13.0],
    }
    assert change["end_to_end"] == {"ops_per_s": 14.0, "op_ms.p50": 1000.0 / 14.0}
    assert change["method_ms_p50"] == {"snpl": 2.0}
    assert change["per_layer"]["layer.ms"] == 1.0 and change["stages_self_ms"] == {"scan": 1.0}
    assert change["decisions_sha"] == {"untraced": ["abc"], "traced": "abc"}
    assert change["ops"] == {"untraced": 60, "traced": 10}
    assert change["vs_parent"] == {
        "ops_per_s": {"better_pairs": 3, "pairs": 3, "resolved": True, "regressed": False},
        "op_ms.p50": {"better_pairs": 3, "pairs": 3, "resolved": True, "regressed": False},
    }
    assert "vs_parent" not in parent


def test_unwritable_out_dir_exits_two_before_any_run(tmp_path, monkeypatch, capsys):
    def no_record(*args):
        raise AssertionError("record ran")

    monkeypatch.setattr(bench_record, "record", no_record)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "sub"  # under a regular file: cannot be created
    argv = ["--label", "x", "--parent", str(tmp_path), "--out-dir", str(out_dir)]
    assert bench_record.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write to --out-dir {out_dir}")


def test_missing_out_dir_is_created_before_the_runs(tmp_path, monkeypatch):
    out_dir = tmp_path / "new" / "dir"

    def fake_record(roots, seed, seconds):
        assert out_dir.is_dir()
        return {side: {"git_sha": side} for side in bench_record.SIDES}

    monkeypatch.setattr(bench_record, "record", fake_record)
    argv = ["--label", "x", "--parent", str(tmp_path), "--out-dir", str(out_dir)]
    assert bench_record.main(argv) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["BENCH_x.json", "BENCH_x_parent.json"]
    assert json.loads((out_dir / "BENCH_x_parent.json").read_text()) == {
        "label": "x_parent", "git_sha": "parent",
    }
