"""The README's Quickstart block prints the line the README states, and
every command of its "Command line" block succeeds.

The blocks are read from README.md itself, so drift in either the code or the
text fails here.  The stated error, 5.65e-14, is reached by a 1,500-step
geometric subgradient run, so a change of any bit on that path shows too.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from bideconv.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_quickstart_prints_the_stated_line():
    quickstart = README.split("## Quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", quickstart, re.S).group(1)
    stated = re.search(r"prints `([^`]+)`", quickstart).group(1)
    assert stated == "relative error: 5.65e-14"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == stated + "\n"


def readme_commands() -> list[list[str]]:
    """The argument lists of the ``bideconv`` commands in the Command line block."""
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("bideconv ")]


def test_readme_lists_the_five_commands():
    assert [argv[0] for argv in readme_commands()] == [
        "solve", "phase", "init", "sweep-q", "rip-probe"
    ]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_command_line_example_succeeds(argv, capsys):
    assert main(argv) == 0, capsys.readouterr().err
