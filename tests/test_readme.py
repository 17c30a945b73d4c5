"""Every command of README's "Command line" block runs and exits with the
code the block gives it: 0 unless its comment says "(exit N)"."""

import io
import re
import shlex
from pathlib import Path

import pytest

from scalg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    commands = []
    for line in block.splitlines():
        if line.startswith("scalg "):
            command, _, comment = line.partition("#")
            code = re.search(r"\(exit (\d)\)", comment)
            commands.append((shlex.split(command)[1:], int(code.group(1)) if code else 0))
    return commands


def test_the_block_lists_every_example():
    assert len(readme_commands()) == 11


@pytest.mark.parametrize("argv,code", readme_commands(),
                         ids=lambda arg: " ".join(arg) if isinstance(arg, list) else None)
def test_readme_command_exits_as_documented(argv, code):
    assert main(argv, stdout=io.StringIO()) == code
