"""Byte sweep of the `splineqi` command line: one line per command with its
argv, exit code, and the SHA-256 of what it wrote to stdout and stderr.

The output starts with a header of the Python, numpy and BLAS versions and
the CPU kernel ("core") that OpenBLAS selected at start-up, on lines that
begin with "#": the hashes fix numpy's rounding and summation order, which
an upgrade of either, or another core (`OPENBLAS_CORETYPE` picks one), may
change. It is committed as
`tests/cli_sweep.txt`, and `tests/test_cli_sweep.py` runs the sweep again and
compares. A change that means to change some bytes regenerates the file:

    python tests/cli_sweep.py > tests/cli_sweep.txt

The package is imported from this checkout's `src`. Every command runs in
this process through `cli.main`. The commands are:

- the `cli_studies` benchmark commands of seeds 1 to 10, taken from
  `perfbench/workloads.py`, which is loaded without writing bytecode;
- every command x kind x degree m = 1..5 x radius p in {1, m, m+1} x every
  q the near-best LP accepts (0 .. min(m, p + 1)), in CSV and JSON;
- refusals: configuration errors (exit 2), and windows past 2^16 supports,
  among them one past the enumeration's bound;
- scale: commands on intervals from 1e60 to 1.7e308 long, which either
  print what they print on [0, 1] or refuse with exit 2;
- graded: near-best commands at m = 7 on geometric ratio 100, past the
  grid's m = 5, whose optima hang on the rounding of the right-hand sides,
  and audits on geometric ratio 100 and 1000 whose truncated windows have
  optimal supports on normalized sites about 1e-12 apart;
- large: `norms` and `quad` of the three-point operators on 20,000
  subintervals, which pin the band build and apply at the size where they
  cost most;
- edges: `exp` sampled past x = log(max float64), and just below it where
  the quadrature sum or the differenced coefficients overflow, a near-best
  window whose normalized sites coincide in floating point, and geometric
  ratio 1000 spaces whose centered second moments underflow;
- studies: convergence and diffmat ladders of four or five sizes, which pin
  the running and fitted orders, among them a fit whose h_max values differ
  only by rounding and a derivative error that sits at the rounding floor.

A command that raises is recorded with "raised" and the exception's class
in place of its exit code, and the sweep goes on.

Warnings are written as "Category: message", without the file and line a
default warning names, so two checkouts in different directories agree.
This file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib.util
import io
import os
import platform
import shlex
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("norms", "nearbest", "convergence", "quad", "diffmat", "audit")
SPACE = ["--family", "geometric", "--ratio", "1.5"]


def benchmark_commands() -> list[list[str]]:
    """The cli_studies commands of seeds 1 to 10, as the benchmark builds them."""
    spec = importlib.util.spec_from_file_location(
        "sweep_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    studies = workloads.CliStudies()
    return [inp["argv"] for seed in range(1, 11)
            for inp in studies.inputs(None, seed, smoke=False)]


def grid_commands(cli) -> list[list[str]]:
    """Every command, kind, degree, radius and accepted q, in both formats."""
    cmds = []
    for command in COMMANDS:
        # nearbest and audit build the near-best operator whatever --kind says
        kinds = ("nearbest",) if command in ("nearbest", "audit") else cli.KINDS
        for kind in kinds:
            for m in range(1, 6):
                radii = dict.fromkeys((1, m, m + 1)) if cli._KINDS[kind].takes_p else (None,)
                for p in radii:
                    qs = range(min(m, p + 1) + 1) if kind == "nearbest" else (None,)
                    for q in qs:
                        for fmt in cli.FORMATS:
                            argv = [command]
                            if command not in ("nearbest", "audit"):
                                argv += ["--kind", kind]
                            argv += ["--m", str(m)]
                            argv += [] if p is None else ["--p", str(p)]
                            argv += [] if q is None else ["--q", str(q)]
                            if command in ("convergence", "diffmat"):
                                argv += ["--sizes", "12,24", "--f", "exp"]
                            else:
                                argv += ["--n", "20"]
                            if command == "quad":
                                argv += ["--f", "sin"]
                            cmds.append(argv + SPACE + ["--fmt", fmt])
    return cmds


REFUSALS = [
    # exit 2: the configuration or the operator is refused
    ["norms", "--kind", "q2star", "--p", "2"],
    ["norms", "--kind", "qp2star", "--m", "3"],
    ["norms", "--kind", "qp2star", "--m", "4", "--p", "2"],
    ["norms", "--kind", "dqi"],
    ["quad", "--kind", "dqi"],
    ["nearbest", "--m", "2"],
    ["nearbest", "--m", "2", "--p", "1", "--q", "3"],
    ["nearbest", "--m", "4", "--p", "2", "--q", "4", "--n", "20"],
    ["audit", "--m", "3", "--p", "2", "--q", "4"],
    ["nearbest", "--m", "0", "--p", "1"],
    ["norms", "--n", "1"],
    ["norms", "--m", "two"],
    ["norms", "--a", "1", "--b", "0"],
    ["norms", "--ratio", "-1", "--family", "geometric"],
    ["convergence", "--sizes", "8,1"],
    ["convergence", "--f", "cosh"],
    ["audit", "--m", "2", "--p", "2", "--audit", "true"],
    ["norms", "--kind", "cubic"],
    ["norms", "--config", "/nonexistent/run.cfg"],
    ["norms", "--family", "geometric", "--ratio", "2.0", "--a", "0.25", "--b", "1.25",
     "--n", "55"],
    ["norms", "--b", "inf"],
    ["norms", "--a", "-inf"],
    ["norms", "--a", "-1.7e308", "--b", "1.7e308"],
    ["norms", "--a", "-1.7e308", "--b", "1.7e308", "--family", "random"],
    ["norms", "--family", "arithmetic", "--ratio", "inf"],
    ["norms", "--family", "arithmetic", "--ratio", "1e308"],
    ["norms", "--family", "geometric", "--ratio", "inf"],
    ["norms", "--family", "random", "--seed", "-1"],
    ["unknown-command"],
    # windows past 2^16 supports, which the enumeration solves, and one past
    # its 2^20 bound (exit 2)
    ["nearbest", "--m", "7", "--p", "10", "--q", "7", "--n", "60"],
    ["nearbest", "--m", "5", "--p", "12", "--q", "5", "--n", "60"],
    ["nearbest", "--m", "7", "--p", "12", "--q", "7", "--n", "60"],
]

SCALE = [
    ["norms", "--m", "3", "--b", "1e110"],
    ["norms", "--b", "1.8e155"],
    ["norms", "--a", "0", "--b", "1e200"],
    ["norms", "--a", "0", "--b", "1.7e308"],
    ["norms", "--a", "1e308", "--b", "1.5e308"],
    ["norms", "--a=-1e308", "--b=-0.5e308"],
    ["nearbest", "--m", "3", "--p", "3", "--n", "20", "--b", "1e150"],
    ["nearbest", "--m", "3", "--p", "3", "--n", "20", "--a", "0", "--b", "1e200"],
    ["nearbest", "--m", "3", "--p", "3", "--q", "3", "--n", "30", "--a", "0", "--b", "1e110"],
    ["nearbest", "--m", "7", "--p", "7", "--q", "7", "--n", "20", "--a", "0", "--b", "1e60"],
    ["nearbest", "--m", "2", "--p", "10", "--n", "40", "--b", "4e154"],
    ["audit", "--m", "2", "--p", "2", "--n", "20", "--a", "0", "--b", "1e200"],
    ["convergence", "--kind", "dqi", "--m", "7", "--a", "0", "--b", "1e60", "--sizes", "8,16"],
]

GRADED = [
    ["audit", "--m", "7", "--p", "2", "--q", "3", "--n", "80", "--family", "geometric",
     "--ratio", "100"],
    ["nearbest", "--m", "7", "--p", "5", "--q", "6", "--n", "80", "--family", "geometric",
     "--ratio", "100"],
    # windows on normalized sites from about -1e-12 to 1; the truncated one
    # at index 1 has eight sites for eight exactness rows, one feasible point
    ["nearbest", "--m", "7", "--p", "6", "--q", "7", "--n", "12", "--family", "geometric",
     "--ratio", "100", "--audit"],
    # truncated windows whose enumerated optimum has normalized sites about
    # 1e-12 apart, below a simplex tableau's 1e-11 pivot tolerance
    ["audit", "--m", "5", "--p", "3", "--q", "4", "--n", "10", "--family", "geometric",
     "--ratio", "1000"],
    ["audit", "--m", "6", "--p", "5", "--q", "5", "--n", "14", "--family", "geometric",
     "--ratio", "100"],
    ["audit", "--m", "5", "--p", "6", "--q", "1", "--n", "12", "--family", "geometric",
     "--ratio", "100"],
]

LARGE = [[command, "--kind", kind, "--m", "3", *radius, "--n", "20000",
          "--family", "random", "--seed", "3"]
         for kind, radius in (("q2star", []), ("qp2star", ["--p", "3"]))
         for command in ("norms", "quad")]


EDGES = [
    ["quad", "--kind", "q2star", "--m", "2", "--n", "8", "--b", "800", "--f", "exp"],
    ["quad", "--kind", "q2star", "--m", "2", "--n", "8", "--b", "709", "--f", "exp"],
    ["diffmat", "--kind", "q2star", "--m", "2", "--b", "709", "--f", "exp", "--sizes", "8,16"],
    ["convergence", "--kind", "dqi", "--m", "3", "--b", "800", "--f", "exp"],
    ["audit", "--m", "7", "--p", "14", "--family", "geometric", "--ratio", "1000", "--n", "40"],
    ["norms", "--kind", "qp2star", "--m", "3", "--p", "3", "--family", "geometric", "--ratio",
     "1000", "--n", "64"],
    ["audit", "--m", "3", "--p", "3", "--family", "geometric", "--ratio", "1000", "--n", "64"],
]

STUDIES = [
    ["convergence", "--kind", "q2star", "--m", "2", "--family", "geometric", "--ratio", "3.0",
     "--f", "exp", "--sizes", "16,32,64,128"],
    ["diffmat", "--kind", "q2star", "--m", "3", "--a", "700", "--b", "700.00000001", "--f", "sin",
     "--sizes", "8,16,32,64,128"],
    ["convergence", "--kind", "dqi", "--m", "4", "--family", "random", "--seed", "4", "--f",
     "runge", "--sizes", "8,16,32,64"],
    ["diffmat", "--kind", "nearbest", "--m", "3", "--p", "3", "--q", "3", "--family", "random",
     "--seed", "2", "--f", "sin", "--sizes", "12,24,48,96"],
]


def blas_core() -> str | None:
    """The core the OpenBLAS that numpy loaded runs on, looked up as
    `perfbench/run.py` looks up its thread count; None without OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                    "scipy_openblas_get_corename", "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def versions() -> list[str]:
    """The header lines: the versions and the BLAS core whose arithmetic the
    hashes depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')}", f"# blas core {blas_core()}"]


def sweep_line(cli, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # a fresh filter state: each command shows its warnings as a new
        # process would, once per place
        warnings.simplefilter("default")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on arguments it rejects
            code = exc.code
        except Exception as exc:  # a crash is recorded, not fatal to the sweep
            code = f"raised {type(exc).__name__}"
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return "\t".join([shlex.join(argv), str(code), *digests])


def main() -> None:
    sys.dont_write_bytecode = True
    # argparse wraps its usage text at the terminal width
    os.environ["COLUMNS"] = "80"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from splineqi import cli

    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    print("\n".join(versions()), flush=True)
    lists = REFUSALS + SCALE + GRADED + LARGE + EDGES + STUDIES
    for argv in benchmark_commands() + grid_commands(cli) + lists:
        print(sweep_line(cli, argv), flush=True)


if __name__ == "__main__":
    main()
