"""Every name a jlkit module exports in ``__all__`` must exist.

Tools that walk ``__all__`` (the benchmark's tracer calls ``getattr`` on
each entry) break on a stale name left behind by a deletion.
"""

import importlib
import pkgutil

import pytest

import jlkit

MODULES = ["jlkit"] + [f"jlkit.{info.name}" for info in pkgutil.iter_modules(jlkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
