"""Byte sweep of the `splineqi` command line: one line per command with its
argv, exit code, and the SHA-256 of what it wrote to stdout and stderr.

Run it from two checkouts and diff the outputs to see which commands changed
their bytes:

    python tests/cli_sweep.py > sweep.txt

The package is imported from this checkout's `src`. Every command runs in
this process through `cli.main`. The commands are:

- the `cli_studies` benchmark commands of seeds 1 to 10, taken from
  `perfbench/workloads.py`, which is loaded without writing bytecode;
- every command x kind x degree m = 1..5 x radius p in {1, m, m+1} x every
  q the near-best LP accepts (0 .. min(m, 2p)), in CSV and JSON;
- refusals: configuration errors (exit 2) and numerical failures (exit 3).

Warnings are written as "Category: message", without the file and line a
default warning names, so two checkouts in different directories agree.
This file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
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
                    qs = range(min(m, 2 * p) + 1) if kind == "nearbest" else (None,)
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
    ["unknown-command"],
    # exit 3: a numerical failure
    ["nearbest", "--m", "7", "--p", "10", "--q", "7", "--n", "60"],
    ["nearbest", "--m", "5", "--p", "12", "--q", "5", "--n", "60"],
]


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
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return "\t".join([shlex.join(argv), str(code), *digests])


def main() -> None:
    sys.dont_write_bytecode = True
    # argparse wraps its usage text at the terminal width
    os.environ["COLUMNS"] = "80"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from splineqi import cli

    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    for argv in benchmark_commands() + grid_commands(cli) + REFUSALS:
        print(sweep_line(cli, argv), flush=True)


if __name__ == "__main__":
    main()
