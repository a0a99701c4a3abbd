"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q

They run the benchmark as the command in BENCHMARK.json runs it, in a
separate process, and check the shape of its result line; the reference
computations in oracles.py are checked on cases with known answers.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *BENCH["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), name


def test_same_seed_same_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads

    lib = run.fresh_import()
    for w in workloads.WORKLOADS.values():
        first, again = w.inputs(lib, 5, True), w.inputs(lib, 5, True)
        other = w.inputs(lib, 6, True)
        key = (lambda i: i["argv"]) if "argv" in first[0] else (lambda i: list(i["kv"].t))
        assert [key(i) for i in first] == [key(i) for i in again]
        assert [key(i) for i in first] != [key(i) for i in other]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_steadiness_command_smoke():
    proc = subprocess.run([sys.executable, str(HERE / "steady.py"), "--smoke", "--workloads",
                           "nearbest_graded"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert "nearbest_graded: 2 runs per set" in proc.stdout, proc.stdout + proc.stderr
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s"):
        assert name in proc.stdout


def test_de_boor_reproduces_a_cubic():
    m = 3
    t = np.concatenate([[0.0] * 4, [0.1, 0.35, 0.4, 0.8], [1.0] * 4])
    x = np.linspace(0.0, 1.0, 17)
    # Marsden: x^k = sum_j (e_k(window_j) / C(m, k)) B_j(x)
    for k in range(m + 1):
        c = [oracles.symmetric_moments(oracles.knot_window(t, m, j), m)[k]
             for j in range(len(t) - m - 1)]
        assert np.allclose(oracles.de_boor(t, c, m, x), x**k, atol=1e-14)
        if k:
            assert np.allclose(oracles.de_boor(t, c, m, x, derivative=1), k * x ** (k - 1),
                               atol=1e-12)


def test_l1_minimum_by_vertices():
    # w0 + w1 + w2 = 1 and w1 - w2 = 0: the optimum puts all weight on w0
    V = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, -1.0]])
    assert oracles.l1_min_vertices(V, np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_closed_form_integrals():
    assert oracles.integral_poly([1.0, 0.0, 3.0], 0.0, 2.0) == pytest.approx(10.0)
    assert oracles.BUILTIN_INTEGRALS["sin"](0.0, math.pi) == pytest.approx(2.0)
    assert oracles.integral_bump(1.0, 0.0, -1.0, 1.0) == pytest.approx(math.pi / 2)


def test_harrell_davis_matches_scipy():
    mstats = pytest.importorskip("scipy.stats.mstats")
    import run

    x = np.random.default_rng(0).lognormal(0.0, 1.0, 140)
    for p in (0.5, 0.9):
        assert run.hd_quantile(x, p) == pytest.approx(float(mstats.hdquantiles(x, [p])[0]), rel=1e-8)
