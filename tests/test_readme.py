"""Every command line of README's "Command line" block runs as written.

Continuation lines are joined and ``#`` comments stripped; each line runs
through ``cli.main`` in a fresh directory and must exit 0 with nothing on
stderr.
"""

import pathlib
import re
import shlex

import pytest

from spinforge.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _command_lines() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", text, re.M | re.S)
    joined = block.group(1).replace("\\\n", " ")
    return [argv for line in joined.splitlines() if (argv := shlex.split(line, comments=True))]


COMMANDS = _command_lines()


def test_the_block_holds_only_spinforge_commands():
    assert COMMANDS
    assert all(argv[0] == "spinforge" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[1:3]))
def test_command_exits_0_with_empty_stderr(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert captured.err == ""
