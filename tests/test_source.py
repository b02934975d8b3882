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


def test_every_imported_name_is_used():
    # __init__.py re-exports by design; an import marked "# noqa" is kept on
    # purpose (search.py's eshape_catalog is a tracing target)
    paths = sorted(p for p in PACKAGE_DIR.rglob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 8
    unused = []
    for path in paths:
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_chain_fractions_stay_off_the_fork_path():
    # a fork's twig sums are integers from barks.fork_sums; the Fraction
    # invariants chains.e, e_tilde and delta serve only the chain commands
    # of the command line (chains.py defines them, __init__.py re-exports)
    fractions = {"e", "e_tilde", "delta"}
    users = set()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name in ("chains.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in fractions:
                if isinstance(node.value, ast.Name) and node.value.id == "chains":
                    users.add(path.name)
            if isinstance(node, ast.ImportFrom) and node.module and node.module.endswith("chains"):
                if fractions & {alias.name for alias in node.names}:
                    users.add(path.name)
    assert users == {"cli.py"}
