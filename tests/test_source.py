"""Checks on the package source itself."""

import ast
import subprocess
import sys
from collections import Counter
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


def test_import_loads_no_dataclasses():
    # the records are NamedTuples: dataclasses, and the inspect and ast it
    # pulls in, took more than half of the import; the packaged files are
    # read beside the module, without importlib.resources.  -S keeps site
    # hooks out
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dgk, dgk.cli;"
        " print(sorted({'dataclasses', 'inspect', 'ast', 'importlib.resources'}"
        " & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE_DIR.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


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


def test_chains_come_from_one_integer_inversion():
    # chains.chain_of expands a continued fraction in integers, and the
    # chains of a fraction, an adjoint or a discriminant all come from it:
    # no Fraction in its body, and oriented_chains_with_d keeps no stack
    tree = ast.parse((PACKAGE_DIR / "chains.py").read_text())
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}

    def names(fn):
        return {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
        }

    assert "Fraction" not in names(functions["chain_of"])
    for name in ("chain_from_e", "adjoint_chain", "oriented_chains_with_d"):
        assert "chain_of" in names(functions[name])
    enumeration = functions["oriented_chains_with_d"]
    assert not any(isinstance(n, ast.While) for n in ast.walk(enumeration))
    assert not {"stack", "pop", "push", "append"} & names(enumeration)


def test_only_the_fiber_module_reads_adjacency():
    # pairs.FiberTree fixes a rebuilt fiber's conventions (U is vertex 0 and
    # a tip, the other curves in creation order), so it alone walks the tree:
    # every other module reads a fiber through its methods
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name == "pairs.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "adj"
        ]
    assert found == []


# Functions that only the tests call, each waiting for a reason to stay: the
# paper checks that are to become entries of `dgk verify`, and the chain
# functions the benchmark's queries workload calls (its other one,
# chains.invariants, is the checked route of chains.e and chains.delta).
# Every other function only the tests call is a reference route and belongs
# in tests/reference.py.
AWAITING_MANIFEST = {
    "ruling.tail_chain_23_branch",
    "ruling.second_fiber_square_branch",
    "ruling.two_run_twig_branch",
    "ruling.minimalized_section_side_32",
    "ruling.reconstruct_t3",
    "chains.classify_e_plus_alpha",
    "pairs.mu_sums",
    "predicates.lambda_and_p_square",
    "chains.adjoint_chain",
    "chains.chain_from_e",
}


def _references(node) -> Counter:
    # a name, an attribute, or a string (run_search looks searches up by name)
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


def _attributes(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _functions(node, prefix):
    """(qualified name, node) of every function and method below ``node``."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
        yield from _functions(child, name)


def test_no_package_function_is_only_called_by_tests():
    # __init__.py re-exports by design, so its names are no callers.  A
    # property is read as an attribute, so only attributes of its name count
    # for it; a name shared with a field or another property counts as read.
    paths = sorted(p for p in PACKAGE_DIR.rglob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 8
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    everywhere = sum(map(_references, trees.values()), Counter())
    read = sum(map(_attributes, trees.values()), Counter())
    uncalled = set()
    for module, tree in trees.items():
        for qualname, fn in _functions(tree, module):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            if any(isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list):
                if read[fn.name] == _attributes(fn)[fn.name]:
                    uncalled.add(qualname)
            elif everywhere[fn.name] == _references(fn)[fn.name]:
                uncalled.add(qualname)
    # the set is exact: a listed name that gains a caller must leave it
    assert uncalled == AWAITING_MANIFEST


def test_no_package_function_calls_itself():
    # a deep input must not meet Python's recursion limit: a walk whose
    # depth grows with the input keeps an explicit stack instead.  Only a
    # bare call of the function's own name counts; an attribute call such
    # as super().__init__() reaches another function, and so does a bare
    # name inside a method, which resolves in the module and not the class.
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(paths) >= 9
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {
            id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body
        }
        for qualname, fn in _functions(tree, path.stem):
            if id(fn) in methods:
                continue
            for n in ast.walk(fn):
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == fn.name:
                    found.append(f"{qualname}:{n.lineno}")
    assert found == []


def _named(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_each_predicate_is_named_once_in_the_table():
    # predicates.py names a predicate only as a key of PREDICATES: the
    # report, the verdict and PREDICATE_NAMES all read the table
    from dgk.predicates import PREDICATE_NAMES

    tree = ast.parse((PACKAGE_DIR / "predicates.py").read_text())
    tables = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and [getattr(t, "id", None) for t in node.targets] == ["PREDICATES"]
    ]
    keys = [key for table in tables for key in table.keys]
    stray = [
        f"{n.lineno}: {n.value}" for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
        and n.value in PREDICATE_NAMES and not any(n is key for key in keys)
    ]
    assert stray == []
    assert len(tables) == 1
    assert tuple(key.value for key in keys) == PREDICATE_NAMES


def test_the_scans_ask_for_a_verdict_without_a_report():
    # the decision passes ask for the verdict; the joins, whose hits the
    # cache keeps for every predicate list, ask for neither it nor a report
    for module, name in (("search", "_decide"), ("ruling", "solve_two_fiber")):
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
        (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
        assert "evaluate_predicates" not in _named(fn), name
        assert "passes" in _named(fn), name
    search, ruling = _definitions("search"), _definitions("ruling")
    joins = [search[name] for name in ("_scan_triples", "_join", "_final_bounds_join",
                                       "_xy_join", "_knonpos_join", "_fiber_pairs_join")]
    for fn in joins + [ruling["two_fiber_candidates"]]:
        assert not {"evaluate_predicates", "passes"} & _named(fn), fn.name


def test_the_decisions_build_no_fraction():
    # passes and each PREDICATES test decide in integers, and so does every
    # module-level function or class they name; Fraction is for the
    # witnesses only
    tree = ast.parse((PACKAGE_DIR / "predicates.py").read_text())
    functions = {
        n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets]
        == ["PREDICATES"]
    ]
    tests = [row.args[0] for row in table.values]
    assert len(tests) == len(table.keys)
    route = [functions["passes"]] + [functions.get(getattr(t, "id", None), t) for t in tests]
    seen = set()
    while route:
        node = route.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        assert "Fraction" not in _named(node), getattr(node, "name", node.lineno)
        route += [functions[name] for name in _named(node) if name in functions]


def test_the_scan_hands_its_record_to_the_verdict():
    # _scan_triples forms the record (b, D, S, E, Et) from its twig sums and
    # keeps it in the hit; _decide passes it on.  Neither recomputes it from
    # the fork
    search = _definitions("search")
    scan, decide = search["_scan_triples"], search["_decide"]
    assert "fork_invariants" not in _named(scan) | _named(decide)
    assert "ForkInvariants" in _named(scan)
    assert "passes" in _named(decide)


def test_the_scan_steps_the_twig_sums_through_barks():
    # the twig sums have one route: barks.fork_sums_along forms each pair's
    # coefficients and steps them along the third twigs, fork_sums reads
    # one triple through it, and the scan takes its sums from it alone; no
    # other function of barks.py or search.py reads a record's d' or
    # d(T[:-1]), so neither holds a second copy of the linear forms
    tree = ast.parse((PACKAGE_DIR / "search.py").read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_scan_triples"]
    assert not {"fork_sums", "fork_invariants", "d_prime", "d_prime_rev"} & _named(fn)
    assert "fork_sums_along" in _named(fn)
    readers = set()
    for module in ("barks", "search"):
        for qualname, node in _functions(ast.parse((PACKAGE_DIR / f"{module}.py").read_text()),
                                         module):
            if {"d_prime", "d_prime_rev"} & set(_attributes(node)):
                readers.add(qualname)
    assert readers == {"barks.fork_sums_along"}
    assert "fork_sums_along" in _named(_definitions("barks")["fork_sums"])


def test_one_reader_for_the_bracket_notation():
    # chains and fibers share one grammar: graphs.py compiles its one entry
    # regex, and no other module of the package imports re to read brackets
    importers, compiles = set(), Counter()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and "re" in [a.name for a in node.names]:
                importers.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "re":
                importers.add(path.name)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compile"
                and getattr(node.func.value, "id", None) == "re"
            ):
                compiles[path.name] += 1
    assert importers == {"graphs.py"}
    assert compiles == Counter({"graphs.py": 1})


def _definitions(module: str) -> dict:
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    return {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}


def test_the_index_and_the_names_build_no_shape():
    # every family, forks too, is read from its constants and its integers:
    # the index keys and steps its slices without a shape and without asking
    # which kind of family a slice is, the catalog's slices pass no gate, and
    # a name resolves to a spec; only the shapes resolved are built
    barks = _definitions("barks")
    index = _named(barks["SpecIndex"])
    assert not {"shape_of", "_make_shape", "weights", "branch"} & index
    assert {"offset", "_slice_continuants"} <= index
    assert not [n for n in _named(barks["_catalog_slices"]) if "admissible" in n]
    lookups = (
        barks["specs_by_name"],
        _definitions("search")["_named_specs"],
        _definitions("cli")["cmd_solve"],
    )
    for fn in lookups:
        assert not {"eshape_catalog", "_make_shape", "ExceptionalShape"} & _named(fn), fn.name
    assert "specs_by_name" in _named(lookups[1]) and "specs_by_name" in _named(lookups[2])


def test_the_searches_share_one_twig_table():
    # the four searches take their oriented twigs from the cached
    # search._records_with_d; no other function of search.py enumerates them
    tree = ast.parse((PACKAGE_DIR / "search.py").read_text())
    namers = {
        qualname for qualname, fn in _functions(tree, "search")
        if "oriented_chains_with_d" in _named(fn)
    }
    assert namers == {"search._records_with_d"}


FLOAT_MATH = {"sqrt", "log", "exp"}


def _float_uses(tree):
    """Float literals, the name float, and sqrt, log or exp taken from math."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Constant) and isinstance(n.value, (float, complex)):
            yield n
        elif isinstance(n, ast.Name) and n.id == "float":
            yield n
        elif isinstance(n, ast.ImportFrom) and n.module == "math":
            if FLOAT_MATH & {alias.name for alias in n.names}:
                yield n
        elif isinstance(n, ast.Attribute) and n.attr in FLOAT_MATH:
            if isinstance(n.value, ast.Name) and n.value.id == "math":
                yield n


def test_the_package_computes_without_floats():
    # all arithmetic is exact: integers and Fraction.  The one float is the
    # type chains.chain_from_e refuses
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(paths) >= 9
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        # a node inside nested functions is named by the innermost one
        owner = {
            id(n): qualname for qualname, fn in _functions(tree, path.stem) for n in ast.walk(fn)
        }
        found += [f"{owner.get(id(n), path.stem)}: {ast.unparse(n)}" for n in _float_uses(tree)]
    assert found == ["chains.chain_from_e: float"]
