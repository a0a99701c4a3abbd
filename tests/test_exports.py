"""Each module's `__all__` is its public API: every name resolves, no name is
listed twice, and the package re-exports exactly the library modules' lists."""

import importlib
import pkgutil

import pytest

import splineqi

# the library modules whose names the package re-exports, in its order; the
# command line in splineqi.cli keeps its names to itself
REEXPORTED = ("knots", "bspline", "quasi_interp", "nearbest", "simplex", "applications")
MODULES = [importlib.import_module(f"splineqi.{info.name}")
           for info in pkgutil.iter_modules(splineqi.__path__)]
LISTS = {module.__name__: module.__all__ for module in MODULES if hasattr(module, "__all__")}


@pytest.mark.parametrize("modname", ["splineqi", *LISTS])
def test_every_export_resolves(modname):
    module = importlib.import_module(modname)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_module_lists_its_names():
    assert sorted(LISTS) == sorted(module.__name__ for module in MODULES)


def test_package_reexports_the_library_lists():
    expected = ["__version__"]
    for name in REEXPORTED:
        expected += LISTS[f"splineqi.{name}"]
    assert splineqi.__all__ == expected


def test_no_name_in_two_lists():
    names = [name for names in LISTS.values() for name in names]
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
