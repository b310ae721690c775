"""Every hypersfda command in the README's sh blocks parses with today's CLI."""
import re
import shlex
from pathlib import Path

import pytest

from hypersfda.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                            flags=re.DOTALL | re.MULTILINE):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("hypersfda ") and "..." not in line:
                commands.append(" ".join(line.split()))
    return commands


def test_readme_has_commands():
    assert len(readme_commands()) >= 4


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command, comments=True)[1:]
    build_parser().parse_args(argv)
