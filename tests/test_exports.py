"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib

import pytest


@pytest.mark.parametrize("modname", ["splineqi", "splineqi.applications"])
def test_every_export_resolves(modname):
    module = importlib.import_module(modname)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
