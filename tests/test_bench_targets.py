"""Every function the benchmark's tracer wraps must exist in the package.

`perfbench/spans.py` names the layer functions it times as (module,
attribute) pairs; a rename or deletion in the package would otherwise only
show when a traced benchmark run fails. The module is loaded by path: it
imports only the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(modname, attr) for modname, attr, _ in module.TARGETS]


@pytest.mark.parametrize("modname,attr", _targets())
def test_target_resolves(modname, attr):
    obj = importlib.import_module(f"splineqi.{modname}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
