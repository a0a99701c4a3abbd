"""The committed byte sweep: `tests/cli_sweep.py`, run again, must print the
lines of `tests/cli_sweep.txt`, so a change that alters what a command writes
shows here. On a mismatch the test counts the changed commands per
subcommand, lists first those whose exit code changed, then the rest, and
names any difference in the Python, numpy or BLAS version of the header."""

import collections
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_sweep.txt"


def _split(lines):
    """The header lines and the command lines."""
    header = [line for line in lines if line.startswith("#")]
    return header, [line for line in lines if not line.startswith("#")]


def _report(want, got):
    """The lines that say how the command lines ``got`` differ from ``want``."""
    # each line is argv, exit code and two hashes, separated by tabs
    old, new = ({line.split("\t")[0]: line for line in lines} for lines in (want, got))
    changed = [argv for argv in dict.fromkeys([*old, *new]) if old.get(argv) != new.get(argv)]
    counts = collections.Counter(argv.split()[0] for argv in changed)
    code = {argv: [lines[argv].split("\t")[1] if argv in lines else "none" for lines in (old, new)]
            for argv in changed}
    refusals = [f"  {argv}: exit {a} -> {b}" for argv, (a, b) in code.items() if a != b]
    report = [f"{len(changed)} of {len(want)} commands changed their line "
              f"(regenerate with: python tests/cli_sweep.py > tests/cli_sweep.txt):",
              ", ".join(f"{command}: {count}" for command, count in sorted(counts.items()))]
    if refusals:
        report += [f"{len(refusals)} changed their exit code:", *refusals]
    same = [f"  {argv}" for argv, (a, b) in code.items() if a == b]
    if same:
        report += ["same exit code, other bytes:", *same]
    return report


def test_report_lists_exit_code_changes_first():
    want = ["audit --m 2\t0\taa\tbb", "audit --m 3\t0\taa\tbb", "norms --n 4\t0\taa\tbb",
            "quad --n 4\t0\taa\tbb"]
    got = ["audit --m 2\t0\tcc\tbb", "audit --m 3\t3\taa\tdd", "norms --n 4\t0\taa\tbb",
           "diffmat --n 4\t0\taa\tbb"]
    assert _report(want, got) == [
        "4 of 4 commands changed their line "
        "(regenerate with: python tests/cli_sweep.py > tests/cli_sweep.txt):",
        "audit: 2, diffmat: 1, quad: 1",
        "3 changed their exit code:",
        "  audit --m 3: exit 0 -> 3",
        "  quad --n 4: exit 0 -> none",
        "  diffmat --n 4: exit none -> 0",
        "same exit code, other bytes:",
        "  audit --m 2",
    ]


def test_sweep_matches_committed_lines():
    proc = subprocess.run([sys.executable, str(HERE / "cli_sweep.py")], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    want_header, want = _split(GOLDEN.read_text(encoding="utf-8").splitlines())
    got_header, got = _split(proc.stdout.splitlines())
    if got == want:
        return
    report = _report(want, got)
    versions = [f"{old} -> {new}" for old, new in zip(want_header, got_header) if old != new]
    if versions:
        report += ["versions differ from the committed header:", *versions]
    pytest.fail("\n".join(report), pytrace=False)
