"""Every ```python block of README.md runs as written against the package,
and every ``fsnlab`` command line of its ```sh blocks parses."""

import re
import shlex
from pathlib import Path

import pytest

from fsnlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```",
                                         README.read_text(), re.M | re.S)
            for line in block.splitlines() if line.startswith("fsnlab ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda s: s.splitlines()[0])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
