"""Benchmark of splineqi: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload approx_large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src. With --trace 0 the run times a fixed number of whole rounds of the
workload's operations, as many as fill --seconds at reference speed and at
least MIN_ROUNDS, and reports the end-to-end metrics in reference-speed
time: each duration is scaled by CALIBRATION_REF_S over the time of a fixed
calibration kernel measured next to it (see README).
With --trace 1 it runs a plain round, the same round traced, a traced
probe of every layer at n = 10^3, 10^4 and 10^5, and a plain round again,
and reports the per-layer metrics; the spans go to perfbench/out/. Either way the outputs of the first round
are checked against independent computations after the timing, and the
last line of stdout is {"correct", "attempted", "failed", "metrics"}.
--smoke swaps in tiny inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: OpenBLAS reads these once, at start-up.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15
# Whole rounds every run times however short --seconds is: the 90th
# percentile of approx_large rests on a few of its costliest operations, and
# it takes six samples of each to keep its run-to-run spread within a third
# of its bound on a noisy machine.
MIN_ROUNDS = 6
# The calibration kernel's time on the reference machine (a 2-vCPU 2.1 GHz
# Xeon VM, Python 3.11.7, numpy 2.4.6) when nothing else slows it down.
CALIBRATION_REF_S = 2.3e-3
CALIBRATION_WINDOW = 3
PROBE_SIZES = ((10**3, "n1e3"), (10**4, "n1e4"), (10**5, "n1e5"))


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_version,
            "nproc": os.cpu_count(), "blas_threads": blas_threads()}


_rng = np.random.default_rng(12345)
_CAL_T = np.concatenate([[0.0] * 4, np.sort(_rng.uniform(0.0, 1.0, 2000)), [1.0] * 4])
_CAL_C = _rng.uniform(-1.0, 1.0, len(_CAL_T) - 4)
_CAL_X = _rng.uniform(0.0, 1.0, 4000)


def calibration_s() -> float:
    """Time of a fixed kernel shaped like the package's work: de Boor over an
    array of points, then a scalar recurrence over small numpy slices.

    The machine this benchmark was tuned on has spells, tens of seconds
    long, in which all code runs up to 1.8 times slower; dividing by this
    time measured next to each operation takes most of that out.
    """
    import oracles

    start = time.perf_counter()
    acc = float(oracles.de_boor(_CAL_T, _CAL_C, 3, _CAL_X).sum())
    for k in range(150):
        w = _CAL_T[k + 1 : k + 9]
        v = np.zeros(4)
        v[0] = 1.0
        for j in range(1, 4):
            saved = 0.0
            for r in range(j):
                tmp = v[r] / (w[r + 1] - w[r] + 1.0)
                v[r] = saved + w[r] * tmp
                saved = tmp
            v[j] = saved
        acc += float(np.dot(v, w[:4]))
    return time.perf_counter() - start


def scaled(times, cals) -> np.ndarray:
    """Durations in reference-speed seconds: each one times the reference
    over the median calibration of the operations around it."""
    times, cals = np.asarray(times), np.asarray(cals)
    k = CALIBRATION_WINDOW
    local = np.array([np.median(cals[max(0, i - k) : i + k + 1]) for i in range(len(cals))])
    return times * CALIBRATION_REF_S / local


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density, which moves
    less from run to run than any single order statistic."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    g = np.linspace(0.0, 1.0, 100001)[1:-1]
    log_pdf = (a - 1) * np.log(g) + (b - 1) * np.log1p(-g)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    return float(np.diff(np.interp(np.arange(n + 1) / n, g, cdf)) @ x)


def fresh_import() -> SimpleNamespace:
    """Import splineqi from this checkout, dropping any earlier copy first so
    every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "splineqi" or n.startswith("splineqi.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{m: importlib.import_module(f"splineqi.{m}") for m in (
        "knots", "bspline", "quasi_interp", "nearbest", "simplex", "applications", "cli")})


def set_up(workload, seed: int, smoke: bool):
    """Import, generate the round's inputs, and warm up on a tiny round. The
    warm-up round is the same for every seed, so that set-up time varies
    with the seed only through the inputs it generates."""
    start = time.perf_counter()
    lib = fresh_import()
    inputs = workload.inputs(lib, seed, smoke)
    for inp in workload.inputs(lib, 0, True):
        workload.run(lib, inp)
    return lib, inputs, time.perf_counter() - start


def setup_seconds(workload, seed: int, smoke: bool):
    """Set up SETUP_REPEATS times; the median set-up in reference-speed time,
    each scaled by the calibrations taken just before and just after it."""
    def cal() -> float:
        return statistics.median(calibration_s() for _ in range(7))

    scaled_s = []
    before = cal()
    for _ in range(1 if smoke else SETUP_REPEATS):
        lib, inputs, seconds = set_up(workload, seed, smoke)
        after = cal()
        scaled_s.append(seconds * 2 * CALIBRATION_REF_S / (before + after))
        before = after
    return lib, inputs, statistics.median(scaled_s)


class Round:
    """Times one pass over the inputs, each operation after a calibration;
    keeps digests and output fingerprints."""

    def __init__(self, workload, lib, inputs, keep_digests: bool) -> None:
        self.times: list[float] = []
        self.cals: list[float] = []
        self.digests: list = []
        self.prints: list = []
        self.failed = 0
        for inp in inputs:
            gc.collect()
            cal = calibration_s()
            start = time.perf_counter()
            try:
                out = workload.run(lib, inp)
            except Exception:  # an operation that fails is counted, not fatal
                self.failed += 1
                self.digests.append(None)
                self.prints.append(None)
                traceback.print_exc(file=sys.stderr)
                continue
            self.times.append(time.perf_counter() - start)
            self.cals.append(cal)
            if keep_digests:
                self.digests.append(workload.digest(inp, out))
            fingerprint = getattr(workload, "fingerprint", None)
            self.prints.append(fingerprint(out) if fingerprint else None)
            del out


def check(workload, lib, inputs, rounds) -> list[str]:
    bad = []
    first = rounds[0]
    for inp, digest in zip(inputs, first.digests):
        if digest is not None:
            bad += workload.check(inp, digest)
    fingerprint = getattr(workload, "fingerprint", None)
    if fingerprint:
        for r in rounds[1:]:
            if r.prints != first.prints:
                bad.append(f"{workload.name}: a repeated round printed different bytes")
        for inp, expect in list(zip(inputs, first.prints))[:3]:
            if fingerprint(workload.run(lib, inp)) != expect:
                bad.append(f"{workload.name}: repeating `{' '.join(inp['argv'])}` changed its output")
    return bad


def end_to_end(rounds, setup_s: float) -> dict:
    raw = [t for r in rounds for t in r.times]
    cals = [c for r in rounds for c in r.cals]
    ms = scaled(raw, cals) * 1e3
    print(f"# {len(raw)} operations in {len(rounds)} rounds; raw: {len(raw) / sum(raw):.4g} ops/s, "
          f"p50 {np.percentile(raw, 50) * 1e3:.4g} ms, p90 {np.percentile(raw, 90) * 1e3:.4g} ms; "
          f"calibration median {statistics.median(cals) * 1e3:.4g} ms "
          f"(reference {CALIBRATION_REF_S * 1e3:.4g} ms)")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": {"value": ms.size * 1e3 / float(ms.sum()), "unit": "1/s"},
        "op_p50_ms": {"value": hd_quantile(ms, 0.5), "unit": "ms"},
        "op_p90_ms": {"value": hd_quantile(ms, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def traced(workload, lib, inputs, seed: int, smoke: bool):
    """A plain round, the same round traced, the layer probe traced, and a
    plain round again; the overhead is taken against the two plain rounds."""
    import spans
    import workloads

    plain = Round(workload, lib, inputs, keep_digests=True)
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        inputs = workload.inputs(lib, seed, smoke)  # once more, so partitions are traced
        again = Round(workload, lib, inputs, keep_digests=False)
        for n, tag in PROBE_SIZES:
            tracer.phase = f"probe.{tag}"
            n = max(n // 100, 20) if smoke else n
            workloads.probe_layers(lib, seed, n, with_lp=tag != "n1e5", with_dense=tag == "n1e3")
            if tag == "n1e3":
                workloads.probe_cli(lib, seed)
    finally:
        tracer.uninstall()
    tracer.resolve()
    after = Round(workload, lib, inputs, keep_digests=False)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
    metrics, fell_back = spans.per_layer_metrics(tracer.spans)
    n = max(PROBE_SIZES[0][0] // 100, 20) if smoke else PROBE_SIZES[0][0]
    metrics["applications.diffmat_mb"] = {"value": workloads.diffmat_peak_mb(lib, seed, n),
                                          "unit": "MB"}
    plain_s = float(scaled(plain.times + after.times, plain.cals + after.cals).sum()) / 2
    traced_s = float(scaled(again.times, again.cals).sum())
    print(f"# traced round {traced_s:.3f} s, plain round {plain_s:.3f} s in reference-speed time "
          f"(tracing overhead {100 * (traced_s / plain_s - 1):+.1f}%), {len(tracer.spans)} spans")
    if fell_back:
        print(f"# not called by {workload.name}, reported from the probe: {', '.join(fell_back)}")
    return [plain, again, after], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "splineqi" / "__init__.py").is_file():
        print(f"error: no splineqi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(), sort_keys=True))

    lib, inputs, setup_s = setup_seconds(workload, args.seed, args.smoke)

    if args.trace:
        rounds, metrics = traced(workload, lib, inputs, args.seed, args.smoke)
    else:
        count = 1 if args.smoke else max(MIN_ROUNDS, round(args.seconds / workload.round_s))
        rounds = [Round(workload, lib, inputs, keep_digests=k == 0) for k in range(count)]
        metrics = end_to_end(rounds, setup_s)

    bad = check(workload, lib, inputs, rounds)
    for line in bad[:20]:
        print(f"# check failed: {line}", file=sys.stderr)
    attempted = sum(len(r.times) + r.failed for r in rounds)
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": sum(r.failed for r in rounds), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
