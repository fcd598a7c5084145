"""The package's shape: exported names exist, operators are drawn in one place.

Tools that walk ``__all__`` (the benchmark's tracer calls ``getattr`` on
each entry) break on a stale name left behind by a deletion.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jlkit

MODULES = ["jlkit"] + [f"jlkit.{info.name}" for info in pkgutil.iter_modules(jlkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_operators_are_built_in_one_place():
    # Every Monte-Carlo harness draws through projection.projections, which
    # owns the seed scheme, the trials check and the operator kind; a new
    # hand-written seed loop shows up here as a new build_operator caller.
    callers = set()
    for path in Path(jlkit.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) == "build_operator":
                    callers.add((path.stem, getattr(top, "name", None)))
    assert {c for c in callers if c[0] != "projection"} == {
        ("cli", "_cmd_project"), ("reproduce", "_figure_distortion"),
    }
