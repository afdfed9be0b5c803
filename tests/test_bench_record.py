import importlib.util
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
