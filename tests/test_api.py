"""The package's public names: every export resolves, listed once, in
order, and every Python example and CLI command in the README runs."""

import re
import shlex
from pathlib import Path

import nkline
from nkline import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in nkline.__all__ if not hasattr(nkline, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert list(nkline.__all__) == sorted(set(nkline.__all__))


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_commands_exit_0(tmp_path, monkeypatch, capsys):
    # the block under "## CLI", run in order, so `verify` reads the file
    # that the `construct` before it wrote
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", text, re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert len(commands) >= 6 and all(c[0] == "nkline" for c in commands)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert cli.main(command[1:]) == 0, command
