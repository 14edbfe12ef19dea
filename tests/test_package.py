"""Tests of the package's public surface: every exported name resolves.

Each submodule's ``__all__`` is the one hand-kept list; the package
star-imports the submodules and builds its ``__all__`` from theirs.  A stale
entry in a submodule's ``__all__`` breaks star imports and silently hides the
name from tools that enumerate ``__all__``."""

import importlib

import pytest

import phase_bifurcate

SUBMODULES = ("linalg", "models", "analysis", "continuation")


@pytest.mark.parametrize("module_name", ["phase_bifurcate"] + [f"phase_bifurcate.{m}" for m in SUBMODULES])
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    names = module.__all__
    assert len(names) == len(set(names)), f"{module_name}.__all__ repeats a name"
    missing = [n for n in names if not hasattr(module, n)]
    assert missing == [], f"{module_name}.__all__ names missing attributes: {missing}"


def test_package_reexports_every_submodule_export():
    exported = set(phase_bifurcate.__all__)
    for m in SUBMODULES:
        module = importlib.import_module(f"phase_bifurcate.{m}")
        assert set(module.__all__) <= exported, f"{m}: {sorted(set(module.__all__) - exported)}"


def test_star_import_succeeds():
    namespace = {}
    exec("from phase_bifurcate import *", namespace)
    assert set(phase_bifurcate.__all__) <= set(namespace)
