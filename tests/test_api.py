"""The package's public names: every export resolves, listed once, in
order, and every Python example and CLI command in the README runs."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import nkline
from nkline import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(nkline.__file__).resolve().parents[1]


def _fresh_python(script, *argv):
    """The last stdout line of `script`, run by a new interpreter, as JSON."""
    run = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


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


def test_cold_start_loads_only_the_modules_a_command_uses(tmp_path):
    f = tmp_path / "e.txt"
    assert cli.main(["construct", "--n", "16", "--k", "11", "--mode", "explicit", "--out", str(f)]) == 0
    script = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'nkline')\n"
        "import nkline, nkline.cli\n"
        "imported = loaded()\n"
        "code = nkline.cli.main(['verify', '--in', sys.argv[1]])\n"
        "print(json.dumps([imported, code, loaded(), 'hashlib' in sys.modules]))\n"
    )
    imported, code, verified, hashlib_loaded = _fresh_python(script, f)
    assert imported == ["nkline", "nkline.cli"]
    assert code == 0
    assert verified == ["nkline", "nkline.cli", "nkline.grid", "nkline.pointfile", "nkline.secants"]
    assert not hashlib_loaded


def test_star_import_and_dir_list_every_export():
    script = (
        "import json, nkline\n"
        "listed = dir(nkline)\n"
        "names = {}\n"
        "exec('from nkline import *', names)\n"
        "print(json.dumps([nkline.__all__, listed, sorted(set(names) - {'__builtins__'})]))\n"
    )
    exports, listed, bound = _fresh_python(script)
    assert bound == sorted(exports)
    assert set(exports) <= set(listed)
