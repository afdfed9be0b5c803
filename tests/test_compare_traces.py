import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_traces.py"
_spec = importlib.util.spec_from_file_location("compare_traces", _SCRIPT)
compare_traces = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_traces)

TRACE = {"decision": "g1@0.2", "is_baseline": False, "final_bounds": {"margin": 0.125}}


def write_dump(root, trace=None):
    """A dump holding one trace file, or none when trace is None."""
    root.mkdir(parents=True)
    if trace is not None:
        (root / "paper" / "traces").mkdir(parents=True)
        (root / "paper" / "traces" / "snpl_0000.json").write_text(json.dumps(trace))
    return str(root)


def run_diff(tmp_path, left, right, tol="0"):
    return compare_traces.main(
        ["diff", write_dump(tmp_path / "a", left), write_dump(tmp_path / "b", right), "--tol", tol]
    )


def test_identical_dumps_pass(tmp_path):
    assert run_diff(tmp_path, TRACE, dict(TRACE)) == 0


@pytest.mark.parametrize("tol,code", (("1e-3", 1), ("1e-2", 0)))
def test_float_gap_checked_against_tol(tmp_path, tol, code):
    moved = dict(TRACE, final_bounds={"margin": 0.125 + 5e-3})
    assert run_diff(tmp_path, TRACE, moved, tol=tol) == code


def test_changed_decision_fails(tmp_path):
    other = dict(TRACE, decision="g2@0.4")
    assert run_diff(tmp_path, TRACE, other, tol="1") == 1


def test_empty_dumps_fail(tmp_path):
    assert run_diff(tmp_path, None, None) == 1


def test_missing_dumps_fail(tmp_path):
    assert compare_traces.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1


def test_dump_of_one_tree_diffs_clean(tmp_path):
    # every shape, scatter and CSV case builds its configs from this tree's
    # fields, so a renamed or removed field fails here
    src = str(_SCRIPT.parents[1] / "src")
    for side in ("a", "b"):
        assert compare_traces.main(["dump", "--src", src, "--out", str(tmp_path / side)]) == 0
    assert (tmp_path / "a" / "paper" / "traces" / "snpl_r00000.json").exists()
    assert compare_traces.main(["diff", str(tmp_path / "a"), str(tmp_path / "b"), "--tol", "0"]) == 0


def test_one_line_per_shape_and_method(tmp_path, capsys):
    # two shapes x two methods; one float moves in paper/snpl and one in
    # mid/bonferroni, by different amounts
    moves = {("paper", "snpl"): 5e-3, ("mid", "bonferroni"): 2e-3}
    for side in ("a", "b"):
        for shape in ("paper", "mid"):
            traces = tmp_path / side / shape / "traces"
            traces.mkdir(parents=True)
            for method in ("snpl", "bonferroni"):
                gap = moves.get((shape, method), 0.0) if side == "b" else 0.0
                trace = dict(TRACE, final_bounds={"margin": 0.125 + gap})
                for r in range(2):
                    (traces / f"{method}_r{r:05d}.json").write_text(json.dumps(trace))
    capsys.readouterr()
    args = ["diff", str(tmp_path / "a"), str(tmp_path / "b"), "--tol", "1"]
    code = compare_traces.main(args)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "identical: 4; float-only differences: 4" in lines
    start = lines.index("per (top directory, method):")
    assert lines[start + 1 :] == [
        "  mid bonferroni: identical 0; float-only 2; max 0.002"
        " at mid/traces/bonferroni_r00000.json.final_bounds.margin",
        "  mid snpl: identical 2; float-only 0; max 0",
        "  paper bonferroni: identical 2; float-only 0; max 0",
        "  paper snpl: identical 0; float-only 2; max 0.005"
        " at paper/traces/snpl_r00000.json.final_bounds.margin",
    ]


@pytest.mark.parametrize("decision,code", (("g1@0.2", 0), ("g2@0.4", 1)))
def test_closed_output_keeps_the_exit_code(tmp_path, decision, code):
    # as under ``| head``: the reader is gone before the first line
    left = write_dump(tmp_path / "a", TRACE)
    right = write_dump(tmp_path / "b", dict(TRACE, decision=decision))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, str(_SCRIPT), "diff", left, right, "--tol", "0"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == code
