"""Steadiness check: two sets of runs of every workload, compared.

    python3 perfbench/steady.py                # 2 sets x 10 seeds x every workload
    python3 perfbench/steady.py --workloads approx_large
    python3 perfbench/steady.py --smoke        # tiny inputs, 2 seeds a set, for the tests

Each run is its own process (`python3 perfbench/run.py ...`), and the runs
alternate between workloads so that a slow spell of the machine is shared
among them. Every run uses another seed. For each end-to-end metric the
table gives each set's median and quartiles, the spread (Q3 - Q1) / median
of each set, and how far the second median lies from the first, both
against the metric's bound in BENCHMARK.json. Every spread must stay below a
third of the bound; the drift, either way, must stay within the bound; and
the share of failed operations must be the same in both sets. All results
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10  # runs per workload and set; 2 with --smoke


def run_once(workload: str, seed: int, seconds: int, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next((json.loads(ln[6:]) for ln in lines if ln.startswith("# env ")), None)
    return {"workload": workload, "seed": seed, "wall_s": wall, "env": env,
            "result": json.loads(lines[-1])}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(bench: dict, sets: list[list[dict]]) -> bool:
    ok = True
    workloads = sorted({r["workload"] for s in sets for r in s})
    for w in workloads:
        runs = [[r["result"] for r in s if r["workload"] == w] for s in sets]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs]
        wrong = sum(not r["correct"] for rs in runs for r in rs)
        print(f"\n{w}: {len(runs[0])} runs per set, failed share {shares}, "
              f"runs with a failed check: {wrong}")
        ok &= wrong == 0 and len(set(shares)) == 1
        print(f"  {'metric':14} {'set':>3} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'drift':>8} {'bound':>6}  verdict")
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            meds = []
            for k, rs in enumerate(runs):
                values = [r["metrics"][name]["value"] for r in rs]
                q1, med, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 3
                meds.append(med)
                spread = (q3 - q1) / med
                drift = (med - meds[0]) / meds[0]
                verdict = ""
                if spread > bound / 3:
                    verdict += " spread>bound/3"
                if abs(drift) > bound:
                    verdict += " drift>bound"
                ok &= not verdict
                print(f"  {name:14} {k + 1:>3} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:8.3f} {drift:8.3f} {bound:6.2f}  {verdict.strip() or 'ok'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, 2 runs a set")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    runs = 2 if args.smoke else RUNS
    sets = []
    for k in range(SETS):
        rows = []
        for i in range(runs):
            for w in names:
                seed = args.seed0 + k * runs + i
                rows.append(run_once(w, seed, bench["run_seconds"], args.smoke))
                r = rows[-1]
                print(f"set {k + 1} seed {seed:3d} {w:16} {r['wall_s']:6.1f} s "
                      + " ".join(f"{m}={v['value']:.5g}" for m, v in r["result"]["metrics"].items()),
                      flush=True)
        sets.append(rows)
    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({"sets": sets}, indent=1))
    ok = report(bench, sets)
    print(f"\n{'steady' if ok else 'NOT steady'}; results in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
