"""The README's command-line examples against their recorded output.

Each `boolform ...` line of the README runs through cli.run in-process; its
exit code and stdout must match tests/data/readme_cli.txt, where each block
is a `$ boolform ...` line, an `exit <code>` line and the stdout verbatim.
"""

import shlex
from pathlib import Path

import pytest

from boolform.cli import _COMMANDS, run

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "data" / "readme_cli.txt"


def readme_commands() -> list[str]:
    lines = (ROOT / "README.md").read_text().splitlines()
    return [line for line in lines if line.startswith("boolform ")]


def recorded_blocks() -> dict:
    blocks, command = {}, None
    for line in RECORDED.read_text().splitlines(keepends=True):
        if line.startswith("$ boolform "):
            command = line[2:].rstrip("\n")
            blocks[command] = ""
        else:
            blocks[command] += line
    return blocks


def render(command: str, capsys) -> str:
    code = run(shlex.split(command)[1:])
    return "exit %d\n%s" % (code, capsys.readouterr().out)


def test_readme_lists_the_recorded_commands():
    assert readme_commands() == list(recorded_blocks())


def test_readme_shows_every_command():
    assert {shlex.split(c)[1] for c in readme_commands()} == set(_COMMANDS)


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_output(command, capsys):
    assert render(command, capsys) == recorded_blocks()[command]
