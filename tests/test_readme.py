"""The README's examples run as written: every ```python block, and every
`splineqi` line of the "Command line" section through `cli.main`."""

import re
import shlex
from pathlib import Path

import pytest

from splineqi.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


PYTHON_BLOCKS = _blocks(README, "python")
COMMAND_LINES = [
    line
    for line in _blocks(README.split("\n## Command line\n")[1].split("\n## ")[0], "sh")[0]
    .splitlines()
    if line.startswith("splineqi ")
]


def test_readme_has_examples():
    assert PYTHON_BLOCKS and COMMAND_LINES


@pytest.mark.parametrize("source", PYTHON_BLOCKS,
                         ids=[f"block{k}" for k in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(source, capsys):
    exec(compile(source, "README.md", "exec"), {})


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_exits_zero(line, capsys):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
