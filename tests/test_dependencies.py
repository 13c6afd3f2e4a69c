"""Every third-party module the package imports is a declared dependency,
so an install from ``pyproject.toml`` alone can import all of it."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules():
    names = set()
    for path in (ROOT / "src" / "avekit").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    third_party = imported_top_level_modules() - set(sys.stdlib_module_names) - {"avekit"}
    assert "numpy" in third_party
    assert third_party <= declared, third_party - declared
