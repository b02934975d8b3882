"""Checks on the package source itself."""

import ast
from pathlib import Path

import dgk

PACKAGE_DIR = Path(dgk.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # an assert vanishes under python -O; the package checks with raise, and
    # the cross-checks of its closed forms live in the tests
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(paths) >= 9
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_every_public_name_resolves():
    missing = [name for name in dgk.__all__ if not hasattr(dgk, name)]
    assert missing == []
    assert len(set(dgk.__all__)) == len(dgk.__all__)
