"""The README's CLI block and library example run as documented."""

import re
import shlex
from pathlib import Path

import pytest

from macrobox.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the ``heading`` line."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [line.split("#", 1)[0].strip()
             for line in fenced_block("## CLI", "sh").splitlines()
             if line.startswith("macrobox ")]


def run_readme_line(capsys, line):
    code = main(shlex.split(line)[1:])
    return code, capsys.readouterr().out


def test_cli_block_is_found():
    assert len(CLI_LINES) >= 10


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_exits_zero(capsys, line):
    code, out = run_readme_line(capsys, line)
    assert code == 0
    assert out


@pytest.mark.parametrize("line, expected", [
    ("macrobox effective --box pr --n 4", "chsh: 1/1"),
    ("macrobox rohrlich --box pr --n 5 --alice-setting 1", "0/1"),
])
def test_cli_stated_outputs(capsys, line, expected):
    assert line in CLI_LINES
    _, out = run_readme_line(capsys, line)
    assert expected in out.splitlines()


def test_library_example_prints_its_comments(capsys):
    example = fenced_block("## Library example", "python")
    exec(compile(example, "README.md", "exec"), {})
    # Each ``print(...)  # shown -> remark`` line states what it prints.
    stated = [line.split("#", 1)[1].split("->", 1)[0].strip()
              for line in example.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == stated
