"""The traced benchmark run wraps avekit functions by name, and
``from avekit import *`` reads ``__all__``; a rename or removal must fail
here, not only in those."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_functions_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, name in spans.TRACED:
        assert module.startswith("avekit.")
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_public_names_resolve():
    avekit = importlib.import_module("avekit")
    missing = [name for name in avekit.__all__ if not hasattr(avekit, name)]
    assert not missing
