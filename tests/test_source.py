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
# paper checks that are to become entries of `dgk verify`, the chain
# functions the benchmark's queries workload calls (its other one,
# chains.invariants, is the checked route of chains.e and chains.delta), and
# the report's verdict PredicateReport.passes, which the benchmark's
# fiber-pairs check calls.  Every other function only the tests call is a
# reference route and belongs in tests/reference.py.
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
    "predicates.PredicateReport.passes",
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
    # the decision passes ask predicates.decide for the verdicts; the joins,
    # whose hits the cache keeps for every predicate list, ask for neither
    # them nor a report
    verdicts = {"evaluate_predicates", "decide"}
    for module, name in (("search", "_decide"), ("ruling", "solve_two_fiber")):
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
        (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
        assert "evaluate_predicates" not in _named(fn), name
        assert "decide" in _named(fn), name
    search, ruling = _definitions("search"), _definitions("ruling")
    joins = [search[name] for name in ("_scan_triples", "_join", "_rule_join",
                                       "_knonpos_join", "_fiber_pairs_join")]
    for fn in joins + [ruling["two_fiber_candidates"]]:
        assert not verdicts & _named(fn), fn.name
    # the one route of every search: the flags, the join, the decision;
    # the join's miss runs the one box parser
    route = _named(search["_decided"])
    assert {"_parse_flags", "_join", "_decide"} <= route
    assert not verdicts & route
    assert "parse_bounds" in _named(search["_join"])


def test_no_join_reads_a_flag():
    # a join is handed the whole Bounds, flags too, and the cache keeps its
    # hits per box: a join that read a flag would answer every flag variant
    # of the box as the first
    flags = {"predicates", "group_order_mode", "exclude_eps2_chains", "description"}
    search, ruling = _definitions("search"), _definitions("ruling")
    joins = [search[name] for name in ("_scan_triples", "_rule_join", "_knonpos_join",
                                       "_fiber_pairs_join", "_check_catalog_reach",
                                       "_case1_pairs", "_case2_triples")]
    for fn in joins + [ruling["two_fiber_candidates"]]:
        assert not flags & _named(fn), fn.name


def test_only_the_predicate_module_names_the_verdict():
    # predicates.decide is the one decision pass: it alone asks a PREDICATES
    # test for a verdict, outside the report, and the searches and the
    # two-fiber solver hand it their hits; the per-hit verdict passes is gone
    readers, deciders = set(), set()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if {"PREDICATES", "test"} <= _named(node):
                    readers.add(f"{path.name}:{node.name}")
        if "decide" in _named(tree):
            deciders.add(path.name)
    assert readers == {"predicates.py:decide", "predicates.py:evaluate_predicates"}
    assert {"search.py", "ruling.py"} <= deciders
    assert "passes" not in _definitions("predicates")


def test_decide_is_one_walk_over_the_names():
    # a Hits comes sorted, so decide is the mask walk alone: one loop over
    # the names, no first walk writing bytes, no sort and no kept sort keys,
    # and its indices are its one output.  decide names no Hits: the walk
    # would reach Hits.report and the report's Fraction witnesses
    predicates = _definitions("predicates")
    decide = predicates["decide"]
    loops = [n for n in ast.walk(decide)
             if isinstance(n, ast.For) and getattr(n.iter, "id", None) == "names"]
    assert len(loops) == 1
    assert not {"Hits", "sort", "sorted", "sort_key"} & _named(decide)
    assert "indices" not in [a.arg for a in decide.args.args + decide.args.kwonlyargs]
    assert "_Masks" not in predicates
    assert "sort_keys" not in _named(ast.parse((PACKAGE_DIR / "predicates.py").read_text()))


def test_each_result_forms_its_sort_key_alone():
    # a sort key reads its own result and the shape's stored key, so no
    # caller hands it a memo; decide starts from every hit, and the
    # epsilon = 2 exclusion is search._decide's filter on the survivors
    keyed = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, fn in _functions(tree, path.stem):
            if fn.name == "sort_key":
                args = fn.args
                keyed.append(qualname)
                assert [a.arg for a in args.posonlyargs + args.args] == ["self"], qualname
                assert not (args.kwonlyargs or args.vararg or args.kwarg), qualname
        stray = {"TwigKeys", "eps2_start", "_eps2_start"} & (
            set(_references(tree)) | {n.name for n in ast.walk(tree) if hasattr(n, "name")}
            | {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
        )
        assert not stray, (path.name, stray)
    assert keyed == ["predicates.BoundaryCandidate.sort_key", "ruling.TwoFiberSolution.sort_key"]
    predicates = _definitions("predicates")
    new = next(fn for fn in predicates["Hits"].body if getattr(fn, "name", None) == "__new__")
    assert "key" not in _named(new)
    args = predicates["decide"].args
    assert [a.arg for a in args.posonlyargs + args.args] == ["hits", "names", "group_order_mode"]
    assert not (args.kwonlyargs or args.vararg or args.kwarg)


def test_the_verdicts_live_in_the_one_join_cache():
    # the verdict tables ride on the hits search._join keeps, so a flag
    # variant reads them without a cache of its own: predicates.py caches
    # nothing, and search.py's caches are the twig table and _join alone
    cached = {}
    for module in ("predicates", "search", "ruling"):
        for name, node in _definitions(module).items():
            for deco in getattr(node, "decorator_list", ()):
                call = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(call, "id", None) in ("lru_cache", "cache"):
                    cached[f"{module}.{name}"] = deco
    assert set(cached) == {"search._records_with_d", "search._join"}
    (size,) = cached["search._join"].keywords
    assert (size.arg, size.value.id) == ("maxsize", "JOIN_CACHE_SIZE")


def test_each_search_builds_and_checks_its_box_only_in_its_join():
    # a search_* function asks _decided for its lists and keeps only its
    # output form; the pairs, shapes and index of a box, and the checks on
    # them, are its join's, so a joined box is neither built nor checked again
    from dgk.search import SEARCHES

    search = _definitions("search")
    box_work = {
        "parse_bounds", "_join", "catalog_index", "SpecIndex", "_rule_pairs",
        "_case1_pairs", "_case2_triples", "_groups", "shape_of", "_check_catalog_reach",
        "check_two_fiber_shape",
    }
    for row in SEARCHES.values():
        named = _named(search[row.function])
        assert "_decided" in named and not box_work & named, row.function
        assert isinstance(search[row.join], ast.FunctionDef), row.join


def test_the_row_searches_print_through_the_kept_rows():
    # final-bounds and knonpos read each survivor's row off the join's hits
    # (Hits.rows), which prints it once per hit; neither calls to_dict itself
    search = _definitions("search")
    for name in ("search_final_bounds", "search_k_nonpositive"):
        named = _named(search[name])
        assert "to_dict" not in named and "rows" in named, name
    (hits,) = [n for n in _definitions("predicates")["Hits"].body
               if isinstance(n, ast.FunctionDef) and n.name == "rows"]
    assert "to_dict" in _named(hits)


def test_the_two_rule_searches_share_one_join():
    # xy's edges parse into d_rules, so xy and final-bounds name one join
    # and the per-search rule joins are gone
    from dgk.search import SEARCHES

    search = _definitions("search")
    assert not {"_xy_join", "_xy_rules", "_final_bounds_join"} & set(search)
    assert SEARCHES["xy"].join == SEARCHES["final-bounds"].join == "_rule_join"
    assert isinstance(search["_rule_join"], ast.FunctionDef)


def test_the_decisions_build_no_fraction():
    # decide and each PREDICATES test decide in integers, and so does every
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
    route = [functions["decide"]]
    route += [functions.get(getattr(t, "id", None), t) for t in tests]
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
    # keeps it in the hit; _decide hands it to predicates.decide.  Neither
    # recomputes it from the fork
    search = _definitions("search")
    scan, decide = search["_scan_triples"], search["_decide"]
    assert "fork_invariants" not in _named(scan) | _named(decide)
    assert "ForkInvariants" in _named(scan)
    assert "decide" in _named(decide)


def test_the_scan_steps_the_twig_sums_through_barks():
    # the twig sums have one route: barks.fork_sums_along alone forms a
    # pair's coefficients, once per third discriminant, and fork_sums and
    # the scan each add one third's own terms to what it returns.  So only
    # these three functions of barks.py and search.py read a record's d' or
    # d(T[:-1]), and fork_sums and the scan read them of one record, the
    # third, so neither module holds a second copy of a pair's linear forms.
    # The scan calls fork_sums_along once per block of thirds, outside its
    # loop over the thirds
    readers = {}
    for module in ("barks", "search"):
        for qualname, node in _functions(ast.parse((PACKAGE_DIR / f"{module}.py").read_text()),
                                         module):
            records = {
                ast.unparse(n.value) for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr in ("d_prime", "d_prime_rev")
            }
            if records:
                readers[qualname] = records
    assert readers.keys() == {"barks.fork_sums_along", "barks.fork_sums", "search._scan_triples"}
    for qualname in ("barks.fork_sums", "search._scan_triples"):
        assert len(readers[qualname]) == 1, (qualname, readers[qualname])
    assert "fork_sums_along" in _named(_definitions("barks")["fork_sums"])
    scan = _definitions("search")["_scan_triples"]
    assert not {"fork_sums", "fork_invariants"} & _named(scan)
    calls = [
        n for n in ast.walk(scan)
        if isinstance(n, ast.Call) and ast.unparse(n.func) == "fork_sums_along"
    ]
    (third,) = readers["search._scan_triples"]
    (loop,) = [
        n for n in ast.walk(scan) if isinstance(n, ast.For) and ast.unparse(n.target) == third
    ]
    assert len(calls) == 1 and calls[0] not in set(ast.walk(loop))


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
        barks["_catalog_names"],
        barks["specs_named"],
        _definitions("search")["_named_specs"],
        _definitions("cli")["cmd_solve"],
    )
    for fn in lookups:
        assert not {"eshape_catalog", "_make_shape", "ExceptionalShape"} & _named(fn), fn.name
    assert "_catalog_names" in _named(lookups[1])
    assert all("specs_named" in _named(fn) for fn in lookups[2:])


def test_the_bucket_build_lists_no_line_of_three_or_more_specs():
    # a bucket keys positions stepped along each line: no line's specs are
    # listed, a line of fewer than three specs (a fork, a single spec) has
    # its specs built one by one, and a longer line only its first three,
    # whose products start the stepping
    barks = _definitions("barks")
    build = barks["SpecIndex"].body
    missing = next(n for n in build if getattr(n, "name", None) == "__missing__")
    stepping = barks["_slice_continuants"]
    for fn in (missing, stepping):
        assert "specs" not in _named(fn), fn.name
    assert not {"spec", "_chain_continuants", "_continuants"} & _named(missing)
    short = [n for n in ast.walk(stepping) if isinstance(n, ast.If)
             and ast.unparse(n.test) == "line.count < 3"]
    starts = [n for n in ast.walk(stepping) if isinstance(n, ast.GeneratorExp)
              and ast.unparse(n.generators[0].iter) == "range(3)"]
    assert len(short) == len(starts) == 1
    inside = {id(n) for node in (*short[0].body, starts[0]) for n in ast.walk(node)}
    spec_uses = [n for n in ast.walk(stepping)
                 if isinstance(n, ast.Attribute) and n.attr == "spec"]
    assert len(spec_uses) == 2 and all(id(n) in inside for n in spec_uses)


def test_one_function_refuses_each_fork_and_each_group_order_mode():
    # barks.require_admissible_fork is the one refusal of a fork and
    # barks.group_order_reader the one reader of a group-order mode: no
    # other function raises either refusal, tests a mode against its
    # spelling, or spells the modes out
    raisers = {"is not admissible": set(), "group order mode": set()}
    spellers = set()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, fn in _functions(tree, path.stem):
            for raise_ in (n for n in ast.walk(fn) if isinstance(n, ast.Raise)):
                text = " ".join(
                    n.value for n in ast.walk(raise_)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                )
                raisers.update({k: v | {qualname} for k, v in raisers.items() if k in text})
        defaults = {
            id(d) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for d in fn.args.defaults + fn.args.kw_defaults if d is not None
        }
        owner = {
            id(n): qualname for qualname, fn in _functions(tree, path.stem) for n in ast.walk(fn)
        }
        for n in ast.walk(tree):
            if (isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in defaults
                    and (n.value in ("actual", "h1") or "'actual'" in n.value)):
                spellers.add(owner.get(id(n), path.stem))
    assert raisers == {
        "is not admissible": {"barks.require_admissible_fork"},
        "group order mode": {"barks.group_order_reader"},
    }
    # the one table of modes, at module level in barks beside its reader
    assert spellers == {"barks"}
    assert "group_order_reader" in _named(_definitions("search")["_is_group_order_mode"])
    assert "group_order_reader" in _named(_definitions("predicates")["decide"])
    methods = {n.name: n for n in _definitions("barks")["ExceptionalShape"].body
               if isinstance(n, ast.FunctionDef)}
    assert "group_order_reader" in _named(methods["group_order_for"])


def test_one_function_reads_each_input():
    # graphs.require_admissible is the one check, and the one refusal, of a
    # twig, and barks.specs_named the one reader of a shape name: the bounds
    # files and the command line normalise no name of their own
    raisers = set()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, fn in _functions(tree, path.stem):
            for raise_ in (n for n in ast.walk(fn) if isinstance(n, ast.Raise)):
                if any(
                    isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and "is not a nonempty admissible chain" in n.value
                    for n in ast.walk(raise_)
                ):
                    raisers.add(qualname)
    assert raisers == {"graphs.require_admissible"}
    for fn in (_definitions("search")["_named_specs"], _definitions("cli")["cmd_solve"]):
        assert not {"canonical_chain", "specs_by_name"} & _named(fn), fn.name


def test_the_searches_share_one_twig_table():
    # the four searches take their oriented twigs from the cached
    # search._records_with_d; no other function of search.py enumerates them
    tree = ast.parse((PACKAGE_DIR / "search.py").read_text())
    namers = {
        qualname for qualname, fn in _functions(tree, "search")
        if "oriented_chains_with_d" in _named(fn)
    }
    assert namers == {"search._records_with_d"}


def test_the_solver_reads_the_join_twig_table():
    # the solver takes the search's twig records as rows (d, records): its
    # sweep builds no record and no memo of its own, solve_two_fiber alone
    # wraps its one T2 in a record, and the table keeps the order its twigs
    # are enumerated in
    tree = ast.parse((PACKAGE_DIR / "ruling.py").read_text())
    ruling = _definitions("ruling")
    for name in ("_equation_solutions", "two_fiber_candidates"):
        fn = ruling[name]
        assert "chain_record" not in _named(fn), name
        dicts = [n for n in ast.walk(fn) if isinstance(n, (ast.Dict, ast.DictComp))
                 or isinstance(n, ast.Call) and getattr(n.func, "id", None) == "dict"]
        assert dicts == [], name
    callers = {qualname for qualname, fn in _functions(tree, "ruling")
               if "chain_record" in _named(fn)}
    assert callers == {"ruling.solve_two_fiber"}
    assert "sorted" not in _named(_definitions("search")["_records_with_d"])


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
