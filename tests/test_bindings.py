"""The traced benchmark run wraps avekit functions by name, and
``from avekit import *`` reads ``__all__``; a rename or removal must fail
here, not only in those."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    """The ``(module, name)`` pairs of ``TRACED`` in perfbench/spans.py,
    read from its source without running it."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_traced_functions_resolve():
    traced = traced_names()
    assert traced
    for module, name in traced:
        assert module == "avekit" or module.startswith("avekit."), (module, name)
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_public_names_resolve():
    avekit = importlib.import_module("avekit")
    missing = [name for name in avekit.__all__ if not hasattr(avekit, name)]
    assert not missing
