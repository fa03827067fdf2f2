"""The package's public names: every export resolves, listed once, in
order, and every Python example in the README runs."""

import re
from pathlib import Path

import nkline

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
