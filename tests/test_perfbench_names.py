"""perfbench's tracer wraps library functions by module and name, so each
name its ``TRACED`` table lists must still be a callable of that ``snpl``
module, or ``perfbench/run.py --trace 1`` fails. The tracer file is parsed
as text, not imported."""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py")


def traced_names() -> dict:
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "TRACED"
        ]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TRACED table")


def test_traced_names_resolve():
    traced = traced_names()
    missing = [
        f"snpl.{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"snpl.{layer}"), name, None))
    ]
    assert missing == []
