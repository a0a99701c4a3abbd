"""The committed byte sweep: `tests/cli_sweep.py`, run again, must print the
lines of `tests/cli_sweep.txt`, so a change that alters what a command writes
shows here. On a mismatch the test counts the changed commands per
subcommand, lists first those whose exit code changed, then the rest, and
names any difference in the Python, numpy or BLAS version or the BLAS core
of the header."""

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
    """The lines that say how the sweep's lines ``got`` differ from the
    committed ``want``, header lines included."""
    (want_header, want), (got_header, got) = _split(want), _split(got)
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
    versions = [f"  {old} -> {new}" for old, new in zip(want_header, got_header) if old != new]
    if versions:
        report += ["the header differs; the hashes hold for the versions and the BLAS core "
                   "the committed one names:", *versions]
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


def test_report_names_a_blas_core_mismatch():
    # another OpenBLAS core rounds some sums differently: the report says so
    want = ["# numpy 2.4.6", "# blas core SkylakeX", "quad --n 4\t0\taa\tbb"]
    got = ["# numpy 2.4.6", "# blas core Haswell", "quad --n 4\t0\tcc\tbb"]
    assert _report(want, got)[-2:] == [
        "the header differs; the hashes hold for the versions and the BLAS core "
        "the committed one names:",
        "  # blas core SkylakeX -> # blas core Haswell",
    ]


def test_sweep_matches_committed_lines():
    proc = subprocess.run([sys.executable, str(HERE / "cli_sweep.py")], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    want, got = GOLDEN.read_text(encoding="utf-8").splitlines(), proc.stdout.splitlines()
    if _split(got)[1] == _split(want)[1]:
        return
    pytest.fail("\n".join(_report(want, got)), pytrace=False)
