"""The committed byte sweep: `tests/cli_sweep.py`, run again, must print the
lines of `tests/cli_sweep.txt`, so a change that alters what a command writes
shows here. On a mismatch the test names the commands whose line changed and
any difference in the Python, numpy or BLAS version of the header."""

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


def test_sweep_matches_committed_lines():
    proc = subprocess.run([sys.executable, str(HERE / "cli_sweep.py")], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    want_header, want = _split(GOLDEN.read_text(encoding="utf-8").splitlines())
    got_header, got = _split(proc.stdout.splitlines())
    if got == want:
        return
    # each line is argv, exit code and two hashes, separated by tabs
    changed = dict.fromkeys(line.split("\t")[0] for line in set(want) ^ set(got))
    report = [f"{len(changed)} of {len(want)} commands changed their line "
              f"(regenerate with: python tests/cli_sweep.py > tests/cli_sweep.txt):",
              *changed]
    versions = [f"{old} -> {new}" for old, new in zip(want_header, got_header) if old != new]
    if versions:
        report += ["versions differ from the committed header:", *versions]
    pytest.fail("\n".join(report), pytrace=False)
