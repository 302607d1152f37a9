"""Keep the examples in the docstrings and the README honest."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from looplab import algebra, cli, closedform, ez, gf2, homology, rng, steenrod, thom

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", [algebra, closedform, ez, gf2, homology, rng, steenrod, thom])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_exit_zero(capsys):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("looplab ")
    ]
    assert commands
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
