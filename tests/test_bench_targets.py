"""The benchmark's contract with the package.

`perfbench/spans.py` names the layer functions it times as (module,
attribute) pairs; a rename or deletion in the package would otherwise only
show when a traced benchmark run fails. The module is loaded by path: it
imports only the standard library. A package change can also stop calling
a wrapped function on some workload, which empties the figures built on it,
or break what a workload checks: a tiny traced run of every workload must
report correct outputs and a finite number for every per-layer figure.
`approx_large` builds no near-best operator, so its LP figures come from
the traced probe alone.
"""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


@pytest.mark.parametrize("workload", ["approx_large", "nearbest_graded", "cli_studies"])
def test_traced_smoke_run_fills_every_figure(workload):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    empty = [name for name, figure in result["metrics"].items()
             if not isinstance(figure["value"], (int, float)) or not math.isfinite(figure["value"])]
    assert not empty
