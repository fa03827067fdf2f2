"""The package's public names: every export resolves, listed once, in order."""

import nkline


def test_every_exported_name_resolves():
    missing = [name for name in nkline.__all__ if not hasattr(nkline, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert list(nkline.__all__) == sorted(set(nkline.__all__))
