"""The package's shape: exported names exist, public functions are used,
operators are drawn in one place.

Tools that walk ``__all__`` (the benchmark's tracer calls ``getattr`` on
each entry) break on a stale name left behind by a deletion.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jlkit
from tests.test_readme import claim_map_functions

SRC = Path(jlkit.__file__).parent
BENCH = SRC.parent.parent / "bench"
MODULES = ["jlkit"] + [f"jlkit.{info.name}" for info in pkgutil.iter_modules(jlkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def _called(path):
    # The name every call in the file calls, bare (f()) or by attribute
    # (m.f()): a field or module of the same name is not a use.
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)}


def test_public_functions_have_a_use():
    # A public function earns its place by a call in another module of the
    # package or in the benchmark, or by a claim-map row.
    files = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    assert BENCH / "run.py" in files
    names = {path: _called(path) for path in files}
    claimed = set(claim_map_functions())
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and (path.stem, node.name) not in claimed
        and not any(node.name in names[other] for other in files if other != path)
    ]
    assert unused == []


def test_operators_are_built_in_one_place():
    # Every Monte-Carlo harness draws through projection.projections, which
    # owns the seed scheme, the trials check and the operator kind; a new
    # hand-written seed loop shows up here as a new build_operator caller.
    callers = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) == "build_operator":
                    callers.add((path.stem, getattr(top, "name", None)))
    assert {c for c in callers if c[0] != "projection"} == {
        ("cli", "_cmd_project"), ("reproduce", "_figure_distortion"),
    }


def _private_reads(path):
    # (owner, name) of every underscore name the file takes from another module
    # of the package: imported from it, or read as an attribute of it.
    tree = ast.parse(path.read_text())
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_private_names_read_across_modules():
    # A module that reads another's internals ties the owner's refactors to
    # itself; a policy two modules share is a public name of its owner.
    reads = {(path.stem, owner, name) for path in SRC.glob("*.py") for owner, name in _private_reads(path)}
    assert reads == set()


def _package_imports(path):
    # Every jlkit module the file imports, relatively or by its full name.
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jlkit"):
            names |= {node.module.partition(".")[2] or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[2] for alias in node.names if alias.name.startswith("jlkit.")}
    return names


def test_oracle_imports_only_errors():
    # The exact oracle is a leaf: its internals can be replaced (by the
    # subset dynamic program, say) without touching another module.
    assert _package_imports(SRC / "oracle.py") == {"errors"}
