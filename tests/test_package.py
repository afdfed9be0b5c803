"""The package's shape: README's library examples run as written, the
top-level names are the ones README's module map lists, and the modules
keep their import layering (only the benchmark harness and the CLI use the
synthetic generator; no module imports another module's private names),
every name the scripts import from the package exists, and no runtime path
imports scipy, a test-only dependency."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import typing

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "snpl")


def readme_section(title: str) -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def test_readme_library_examples_run():
    # the entry-point example, then the bound-construction one that reuses
    # its data; the later split snippet reads a trace file
    blocks = re.findall(r"```python\n(.*?)```", readme_section("Library entry points"), re.S)
    blocks = blocks[:2]
    assert "snpl_run(" in blocks[0] and "finite_bounds(" in blocks[1]
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    assert len(out.getvalue().splitlines()) == 3


def test_top_level_names_are_the_module_map_row():
    import snpl

    row = next(
        line for line in readme_section("Module map").splitlines() if line.startswith("| `snpl` ")
    )
    assert sorted(re.findall(r"`(\w+)`", row.split("|")[2])) == sorted(snpl.__all__)


def test_bound_builders_take_context_from_the_record():
    # a builder that takes a statistics record reads its spec, n and c from
    # it, so nothing can pass a spec or rows that disagree with the record
    from snpl import bounds
    from snpl.estimators import ClassStats

    builders = []
    for name, fn in vars(bounds).items():
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != bounds.__name__:
            continue
        params = list(inspect.signature(fn).parameters)
        first = typing.get_type_hints(fn).get(params[0])
        if isinstance(first, type) and issubclass(first, ClassStats):
            builders.append(name)
            assert not {"spec", "n", "c"} & set(params[1:]), name
    assert {"union_table", "finite_bounds", "asymptotic_bounds"} <= set(builders)
    assert {"bonferroni_normal_bounds", "joint_bounds"} <= set(builders)


def from_imports(path: str, level: int):
    """(module, imported name) of every ``from module import name`` in a
    file, at any depth, with ``level`` leading dots (1 for ``from .module``;
    ``from . import name`` gives the module '')."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == level:
            for alias in node.names:
                yield node.module or "", alias.name


MODULES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))


@pytest.mark.parametrize("module", MODULES)
def test_import_layering(module):
    imports = list(from_imports(os.path.join(SRC, f"{module}.py"), 1))
    uses_synthetic = any("synthetic" in (source, name) for source, name in imports)
    assert uses_synthetic == (module in ("harness", "cli"))
    assert [name for _, name in imports if name.startswith("_")] == []


SCRIPTS = os.path.join(ROOT, "scripts")


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(SCRIPTS) if f.endswith(".py")))
def test_script_imports_resolve(script):
    # no test runs every script, so a deleted or renamed public name would
    # otherwise break one silently; the scripts import the package inside
    # functions, after choosing its source tree
    for module, name in from_imports(os.path.join(SCRIPTS, script), 0):
        if module == "snpl" or module.startswith("snpl."):
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_no_runtime_path_imports_scipy():
    # scipy is the tests' oracle for the bounds numerics, not a dependency:
    # a stray import would bring back its import time and memory. The run
    # takes the exact z* (d <= 2, ds-50) and the Monte Carlo one (d >= 3,
    # snpl with eta = 3); one replication keeps it in this process.
    script = textwrap.dedent(
        """
        import importlib, json, pkgutil, sys
        import numpy as np
        import snpl
        from snpl import bounds
        from snpl.harness import BenchmarkConfig, run_benchmark

        for info in pkgutil.iter_modules(snpl.__path__):
            importlib.import_module(f"snpl.{info.name}")
        dims, supt = [], bounds.supt_quantile

        def spy(cov, level, n_sim, rng):
            dims.append(int(bounds._active(np.diag(cov)).sum()))
            return supt(cov, level, n_sim, rng)

        bounds.supt_quantile = spy
        run_benchmark(BenchmarkConfig(
            methods=("snpl", "ds-50"), mode="asymptotic", n=300, replications=1,
            grid_size=3, eta=3, n_sim=100, master_seed=0,
        ))
        scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(json.dumps({"dims": dims, "scipy": scipy}))
        """
    )
    path = os.pathsep.join(filter(None, [os.path.dirname(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    seen = json.loads(done.stdout)
    assert min(seen["dims"]) <= 2 < max(seen["dims"])
    assert seen["scipy"] == []
