"""Tests of the benchmark itself; run with `python3 -m pytest perfbench`.

Smoke runs use the tiny input size, so each takes a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(cwd, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload):
    shas = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        for name, unit in expected.items():
            assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
                       for line in lines), name
        sha_line = next(line for line in lines if "decisions_sha" in line)
        shas.extend(sha_line.replace("(traced", "").replace(")", "").split()[2:])
    # Untraced run, traced run and the traced run's untraced half agree.
    assert len(shas) == 3 and len(set(shas)) == 1, shas


def test_flipped_margin_counts_as_failure(tmp_path, monkeypatch):
    from snpl import harness

    write_json = harness.write_json
    flipped = []

    def corrupting_write_json(obj, path):
        entries = [e for e in obj["final_bounds"]["entries"] if e["policy"] == obj["decision"]]
        if not obj["is_baseline"] and entries and not flipped:
            entries[0]["margin"] = -entries[0]["margin"]
            flipped.append(obj["method"])
        write_json(obj, path)

    wl = workloads.make("paper", "tiny", 0, str(tmp_path))
    monkeypatch.setattr(harness, "write_json", corrupting_write_json)
    for i in range(20):
        op = wl.op(i)
        if flipped:
            break
    assert flipped, "no non-baseline decision to corrupt in 20 replications"
    assert any("strictly positive final margins" in err for err in op.errors), op.errors


def test_check_trace_accepts_a_certified_decision():
    trace = {
        "method": "snpl",
        "decision": "g2@0.25",
        "is_baseline": False,
        "final_bounds": {"entries": [{"policy": "g2@0.25", "margin": 0.01},
                                     {"policy": "g2@0.25", "margin": 0.02}]},
    }
    known = {"g2@0.25", "g1@0.5"}
    assert workloads.check_trace(trace, known, "g1@0.5") == []
    trace["decision"] = "g3@0.1"
    assert workloads.check_trace(trace, known, "g1@0.5")


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, BENCHMARK["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
