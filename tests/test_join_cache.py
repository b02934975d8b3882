"""The join cache: each search is a flag-free join, kept per box, and a
decision pass that applies the flags to its hits.

A warm result must equal the cold one and the reference route's, for every
flag variant of every box; a change to any one box field must miss the
cache.  These tests carry completeness: a check that every output passes
its flags cannot see an output that is missing.
"""

import json
import random
from collections import Counter
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgk import chains
from dgk import predicates as dgk_predicates
from dgk import search as dgk_search
from dgk.barks import SpecIndex, catalog_index, shape_of
from dgk.predicates import PREDICATE_NAMES, BoundaryCandidate
from dgk.ruling import _assemble_solution
from dgk.search import (
    GOLDEN_FILES,
    INDEX_PREDICATES,
    SEARCHES,
    _case1_pairs,
    _case2_triples,
    _groups,
    _rule_pairs,
    load_bounds,
    parse_bounds,
    search_final_bounds,
    search_xy,
)
from reference import reference_equation_solutions, reference_report, reference_scan_triples
from test_cli import BRACKET_TEXT, JSON_VALUE

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "src" / "dgk" / "golden"

CHECKED_IN = [
    ("final-bounds", "final_bounds"), ("final-bounds", "final_bounds_relaxed"),
    ("xy", "xy"), ("knonpos", "k_nonpositive"), ("fiber-pairs", "fiber_pairs"),
]

# Three box levels per search, each with its (b, delta_gmin) profile, in the
# style of the exploration benchmark's: the largest final-bounds, knonpos and
# fiber-pairs levels are the checked-in boxes, and xy stays inside its box.
PROFILES = (([2], None), ([1], 2), ([1, 2], None))
LEVELS = {
    "final-bounds": [
        {"d_rules": [
            {"x": 3, "y_min": 3, "y_max": 3, "z_max": 5},
            {"x": 2, "y_min": 3, "y_max": 5, "z_max": z},
        ]}
        for z in (20, 30, 41)
    ],
    "xy": [
        {"x_max": 2, "y_max": 11, "z_max": 41},
        {"x_max": 3, "y_max": 8, "z_max": 30},
        {"x_max": 4, "y_max": 6, "z_max": 25},
    ],
    "knonpos": [
        {"d2_max": 6, "d3_max": 20, "case2_k_max": 5},
        {"d2_max": 8, "d3_max": 30, "case2_k_max": 7},
        {"d2_max": 11, "d3_max": 42, "case2_k_max": 9},
    ],
    "fiber-pairs": [{"twig_d_max": m} for m in (4, 5, 6)],
}
BASE_FILE = {name: search.bounds_file for name, search in SEARCHES.items()}


def level_boxes():
    """(name, bounds) of the three levels of each search."""
    for i, name in enumerate(SEARCHES):
        for level, box in enumerate(LEVELS[name]):
            cfg = dict(load_bounds(BASE_FILE[name]), **box)
            if name != "fiber-pairs":
                b, gmin = PROFILES[(level + i) % len(PROFILES)]
                cfg.update(b=b, delta_gmin=gmin)
            yield f"{name}-{level}", name, cfg


FILE_BOXES = [
    (f"{name}-{file_name}", name, load_bounds(file_name)) for name, file_name in CHECKED_IN
]
BOXES = FILE_BOXES + list(level_boxes())


def variants(cfg, name, seed, count=4):
    """The box's own flags, then ``count`` seeded flag variants of it."""
    rng = random.Random(seed)
    yield cfg
    others = [p for p in PREDICATE_NAMES if p not in INDEX_PREDICATES]
    for _ in range(count):
        out = dict(cfg, group_order_mode=rng.choice(("actual", "h1")))
        if name == "fiber-pairs":  # the solver's list need not hold the index predicates
            out["predicates"] = [p for p in PREDICATE_NAMES if rng.random() < 0.5]
        else:
            out["predicates"] = list(INDEX_PREDICATES) + [p for p in others if rng.random() < 0.5]
            out["exclude_eps2_chains"] = rng.random() < 0.5
        yield out


def run(name, cfg):
    """The search's output as its golden form."""
    return SEARCHES[name].golden_form(getattr(dgk_search, SEARCHES[name].function)(cfg))


# The output lists of the searches that print rows, as their golden forms hold them.
ROW_LISTS = {
    "final-bounds": lambda form: [form["candidates"]],
    "knonpos": lambda form: [form["case1"], form["case2"]],
}


def cold_rows(name, cfg):
    """The ``to_dict()`` of each result a cold join keeps under ``cfg``'s
    flags, per output list; the join is left in the cache."""
    spec = parse_bounds(name, cfg)
    dgk_search._join.cache_clear()
    return [[hits[i][3].to_dict() for i in dgk_search._decide(hits, spec)]
            for hits in dgk_search._join(name, dgk_search._written(cfg))]


# ---------------------------------------------------------------------------
# the reference route: the scan one triple at a time over the unjoined
# sweep, and the fiber-pairs solver's Fraction sweep with the reference report


@cache
def fiber_pair_solutions(twig_d_max, specs):
    """Every rebuilt solution with b in {1, 2} of the reference sweep, before
    any predicate."""
    sweep = [ws for dd in range(2, twig_d_max + 1) for ws in chains.oriented_chains_with_d(dd)]
    found = []
    for es in map(shape_of, specs):
        for t1 in sweep:
            for t2 in sweep:
                for tup in reference_equation_solutions(t1, t2, es):
                    sol = _assemble_solution(tup, t1, t2, es)
                    if sol is not None and sol.b in (1, 2):
                        found.append(sol)
    return found


def flatten(groups):
    """The (r1, r2, r3) triples of a sweep's (r1, r2, blocks) groups, in
    order, each block (z, thirds) holding thirds of discriminant z."""
    triples = []
    for r1, r2, blocks in groups:
        for z, thirds in blocks:
            assert all(r3.d == z for r3 in thirds), (r1.ws, r2.ws, z)
            triples += [(r1, r2, r3) for r3 in thirds]
    return triples


def reference_run(name, cfg):
    """The search's golden form by the reference route."""
    spec = parse_bounds(name, cfg)
    if name == "fiber-pairs":
        sols = [
            sol for sol in fiber_pair_solutions(spec.twig_d_max, spec.eshapes)
            if reference_report(BoundaryCandidate(sol.b, (sol.t1, sol.t2, sol.t3), sol.eshape),
                                spec.group_order_mode).passes(spec.predicates)
        ]
        return [sol.to_dict() for sol in sorted(sols, key=lambda s: s.sort_key())]
    if name == "xy":
        found = reference_scan_triples(flatten(_groups(_rule_pairs(spec.d_rules))), spec,
                                       SpecIndex.of_specs(spec.eshapes))
        return [cand.to_dict() for cand in found]
    index = catalog_index(spec.catalog_max_size)
    if name == "final-bounds":
        found = reference_scan_triples(flatten(_groups(_rule_pairs(spec.d_rules))), spec, index)
        return {"eshapes": sorted({cand.eshape.key() for cand in found}),
                "candidates": [cand.to_dict() for cand in found]}
    case1 = [
        t for t in flatten(_groups(_case1_pairs(spec)))
        if not (t[1].ws == spec.t1 and t[2].ws[-2:] == (3, 2))
    ]
    return {
        case: [cand.to_dict() for cand in reference_scan_triples(triples, spec, index)]
        for case, triples in (("case1", case1), ("case2", flatten(_case2_triples(spec))))
    }


@pytest.mark.parametrize("label, name, cfg", BOXES, ids=[label for label, _, _ in BOXES])
def test_flag_variants_of_a_box_match_a_cold_join_and_the_reference(label, name, cfg):
    dgk_search._join.cache_clear()
    seen = set()
    for i, variant in enumerate(variants(cfg, name, label)):
        hits = dgk_search._join.cache_info().hits
        warm = run(name, variant)
        # every variant after the first finds its box joined
        assert dgk_search._join.cache_info().hits == hits + (i > 0)
        assert warm == reference_run(name, variant), (label, i)
        if name in ROW_LISTS:  # the kept rows are those a cold join prints
            assert ROW_LISTS[name](warm) == cold_rows(name, variant), (label, i)
        dgk_search._join.cache_clear()
        assert run(name, variant) == warm, (label, i)
        seen.add(json.dumps(warm, sort_keys=True))
    # the flags reach the output: the variants do not all agree, except on
    # knonpos level 1, whose b = [2] leaves the box without a hit
    assert len(seen) > 1 or label == "knonpos-1", label


# ---------------------------------------------------------------------------
# xy's reports, kept on the joined hits per (group-order mode, hit)

XY_BOXES = [(label, cfg) for label, name, cfg in BOXES if name == "xy"]


@pytest.mark.parametrize("label, cfg", XY_BOXES, ids=[label for label, _ in XY_BOXES])
def test_xy_keeps_each_report_on_its_joined_hits(monkeypatch, label, cfg):
    evaluated = Counter()
    real = dgk_predicates.evaluate_predicates

    def counted(cand, *, group_order_mode):
        evaluated[cand, group_order_mode] += 1
        return real(cand, group_order_mode=group_order_mode)

    monkeypatch.setattr(dgk_predicates, "evaluate_predicates", counted)
    flags = [dict(cfg, group_order_mode=mode, exclude_eps2_chains=eps2)
             for mode in ("actual", "h1") for eps2 in (True, False)]
    cold = []
    for variant in flags:
        dgk_search._join.cache_clear()
        cold.append(search_xy(variant))
    dgk_search._join.cache_clear()
    evaluated.clear()
    reports = 0
    for variant, want in zip(flags, cold):
        got = search_xy(variant)
        assert got == want, (label, variant)
        for cand, report in got:
            assert report == reference_report(cand, variant["group_order_mode"]), cand
            reports += 1
    # one report per (candidate, mode), whichever variant asked for it first
    assert reports and set(evaluated.values()) == {1}, label
    evaluated.clear()
    for variant, want in zip(flags, cold):
        got = search_xy(variant)
        assert got == want, (label, variant)
        for _, report in got:
            with pytest.raises(TypeError):
                report.entries["noether"] = (False, "written by a caller")
    assert not evaluated, label
    assert dgk_search._join.cache_info().misses == 1
    assert search_xy(flags[0]) == cold[0]


# ---------------------------------------------------------------------------
# final-bounds' and knonpos's rows, kept on the joined hits per hit

ROW_BOXES = [(label, name, cfg) for label, name, cfg in BOXES if name in ROW_LISTS]


@pytest.mark.parametrize("label, name, cfg", ROW_BOXES, ids=[label for label, _, _ in ROW_BOXES])
def test_each_row_is_printed_once_and_handed_out_as_a_copy(monkeypatch, label, name, cfg):
    printed = Counter()
    real = BoundaryCandidate.to_dict

    def counted(cand):
        printed[cand] += 1
        return real(cand)

    monkeypatch.setattr(BoundaryCandidate, "to_dict", counted)
    flags = [dict(cfg, predicates=list(INDEX_PREDICATES), group_order_mode=mode,
                  exclude_eps2_chains=eps2)
             for mode in ("actual", "h1") for eps2 in (False, True)]
    dgk_search._join.cache_clear()
    first = [run(name, variant) for variant in flags]
    rows = [row for form in first for listed in ROW_LISTS[name](form) for row in listed]
    # one row per hit, whichever mode or variant asked for it first; knonpos
    # level 1, whose b = [2] leaves the box without a hit, prints none
    assert set(printed.values()) == ({1} if label != "knonpos-1" else set()), label
    printed.clear()
    # a caller that edits what it was handed changes nothing kept
    for row in rows:
        row["b"] = 0
        row["twigs"].append("[9]")
        row["twigs"][0] = "[written by a caller]"
        del row["eshape"]
    again = [run(name, variant) for variant in flags]
    assert not printed, label
    assert dgk_search._join.cache_info().misses == 1
    for variant, got in zip(flags, again):
        assert ROW_LISTS[name](got) == cold_rows(name, variant), (label, variant)
    fresh = [row for form in again for listed in ROW_LISTS[name](form) for row in listed]
    assert not {id(row) for row in rows} & {id(row) for row in fresh}
    assert not {id(row["twigs"]) for row in rows} & {id(row["twigs"]) for row in fresh}


# ---------------------------------------------------------------------------
# the key: each box field


KEY_CHANGES = [
    ("final-bounds", "final_bounds", "d_rules",
     [{"x": 3, "y_min": 3, "y_max": 3, "z_max": 5}, {"x": 2, "y_min": 3, "y_max": 5, "z_max": 20}]),
    ("final-bounds", "final_bounds", "b", [1]),
    ("final-bounds", "final_bounds", "delta_gmin", 7),
    ("final-bounds", "final_bounds", "catalog_max_size", 55),
    ("xy", "xy", "z_max", 20),
    ("xy", "xy", "x_max", 2),
    ("xy", "xy", "b", [2]),
    ("xy", "xy", "delta_gmin", 2),
    ("xy", "xy", "eshapes", [["[4]", 1]]),
    ("knonpos", "k_nonpositive", "d3_max", 20),
    ("knonpos", "k_nonpositive", "case2_k_max", 3),
    ("knonpos", "k_nonpositive", "b", [2]),
    ("knonpos", "k_nonpositive", "delta_gmin", 7),
    ("knonpos", "k_nonpositive", "catalog_max_size", 58),
    ("knonpos", "k_nonpositive", "t1", "[2]"),
    ("fiber-pairs", "fiber_pairs", "twig_d_max", 4),
    ("fiber-pairs", "fiber_pairs", "eshapes", [["[4]", 1], ["[5]", 1]]),
]


@pytest.mark.parametrize(
    "name, file_name, key, value", KEY_CHANGES,
    ids=[f"{name}-{key}" for name, _, key, _ in KEY_CHANGES],
)
def test_changing_one_box_field_misses_the_cache(name, file_name, key, value):
    # permissive flags, so that the output shows the whole join
    if name == "fiber-pairs":
        cfg = dict(load_bounds(file_name), predicates=[])
    else:
        cfg = dict(load_bounds(file_name), predicates=list(INDEX_PREDICATES),
                   exclude_eps2_chains=False)
    dgk_search._join.cache_clear()
    base = run(name, cfg)
    changed = dict(cfg, **{key: value})
    warm = run(name, changed)
    assert dgk_search._join.cache_info().misses == 2
    dgk_search._join.cache_clear()
    assert warm == run(name, changed)
    # a catalog that still covers the box's reach changes nothing found
    assert (warm == base) == (key == "catalog_max_size"), key
    assert run(name, cfg) == base


@pytest.mark.parametrize("name, file_name", [c for c in CHECKED_IN if c[0] != "fiber-pairs"])
def test_b_in_either_order_is_one_box(name, file_name):
    # parse_bounds stores b ascending, which the scan's break needs, so
    # [2, 1] is the box of [1, 2]: the same output from the same join
    cfg = dict(load_bounds(file_name), b=[1, 2])
    dgk_search._join.cache_clear()
    want = run(name, cfg)
    assert run(name, dict(cfg, b=[2, 1])) == want
    assert dgk_search._join.cache_info().misses == 1
    assert parse_bounds(name, dict(cfg, b=[2, 1])).b == (1, 2)


def test_both_final_bounds_files_return_their_goldens_in_either_order():
    # the two files share their box except delta_gmin; whichever runs first
    # fills the cache, and the other still returns its own golden
    want = {
        name: json.loads((GOLDEN_DIR / GOLDEN_FILES[golden]).read_text())
        for name, golden in (("final_bounds", "final-bounds"),
                             ("final_bounds_relaxed", "final-bounds-relaxed"))
    }
    for order in (list(want), list(want)[::-1]):
        dgk_search._join.cache_clear()
        for _ in range(2):
            for name in order:
                assert search_final_bounds(load_bounds(name)) == want[name], (order, name)


# ---------------------------------------------------------------------------
# the box checks: each join builds its box once and checks what it built


REFUSED = [
    ("final-bounds", dict(load_bounds("final_bounds"), catalog_max_size=20),
     "catalog_max_size is 20"),
    # ([3], [5], [12]) with b = 1 asks for 21 components
    ("knonpos", dict(load_bounds("k_nonpositive"), d2_max=5, d3_max=12, case2_k_max=3,
                     catalog_max_size=20), "up to 21 components"),
    ("fiber-pairs", dict(load_bounds("fiber_pairs"),
                         eshapes=[["fork(b=2;[2],[(2)],[2,3])", 2]]),
     "needs an irreducible E"),
    ("fiber-pairs", dict(load_bounds("fiber_pairs"), eshapes=[["[(10),3,2]", 2]]),
     "at most one external \\(-2\\)-curve"),
]


@pytest.mark.parametrize("name, cfg, message", REFUSED,
                         ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(REFUSED)])
def test_a_refused_box_is_refused_on_every_call(name, cfg, message):
    # the join raises, so the cache keeps nothing and the next call raises too
    size = dgk_search._join.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            run(name, cfg)
        assert dgk_search._join.cache_info().currsize == size
    if name == "knonpos":
        assert run(name, dict(cfg, catalog_max_size=21))["case1"]


# The box readers and builders: a warm call resolves no shape name, parses
# no t1 and builds no pair or shape.
BUILDERS = ("_rule_pairs", "_case1_pairs", "_case2_triples", "check_two_fiber_shape",
            "_named_specs", "require_admissible")


@pytest.mark.parametrize("label, name, cfg", FILE_BOXES,
                         ids=[label for label, _, _ in FILE_BOXES])
def test_a_flag_variant_of_a_joined_box_builds_nothing(monkeypatch, label, name, cfg):
    calls = Counter()

    def spy(builder):
        real = getattr(dgk_search, builder)

        def counted(*args):
            calls[builder] += 1
            return real(*args)
        return counted

    for builder in BUILDERS:
        monkeypatch.setattr(dgk_search, builder, spy(builder))
    dgk_search._join.cache_clear()
    for variant in variants(cfg, name, label, count=3):
        run(name, variant)
    # once per box: the cold call builds, the three variants find it joined
    want = {
        "final-bounds": ["_rule_pairs"],
        "xy": ["_rule_pairs", "_named_specs"],
        "knonpos": ["_case1_pairs", "_case2_triples", "require_admissible"],
        "fiber-pairs": ["check_two_fiber_shape"] * len(cfg.get("eshapes", ())) + ["_named_specs"],
    }[name]
    assert want and calls == Counter(want), label


# ---------------------------------------------------------------------------
# the key is the box as written: exact, so a warm call is the cold one


class Listed(list):
    """A list subclass, which parse_bounds reads as a list."""


def retyped(value):
    """Each value that equals ``value`` with one part written in another
    type: an int as a float (and 0 or 1 as a bool), a list as a tuple or a
    :class:`Listed`."""
    if type(value) is int:
        yield float(value)
        if value in (0, 1):
            yield bool(value)
    elif isinstance(value, list):
        yield tuple(value)
        yield Listed(value)
        for i, item in enumerate(value):
            yield from (value[:i] + [other] + value[i + 1:] for other in retyped(item))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from ({**value, key: other} for other in retyped(item))


def outcome(name, cfg):
    """The search's golden form on ``cfg``, or the message it refuses with."""
    try:
        return "output", run(name, cfg)
    except ValueError as exc:
        return "refused", str(exc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_a_call_after_the_packaged_box_is_joined_is_the_cold_call(data):
    # with the packaged box joined, a cfg with one key replaced gives what a
    # cold call gives: the same output or the same refusal.  Values equal to
    # the packaged ones in another type (true, 1.0, a tuple) are refused
    # cold, so a key blind to the types would find the packaged box warm
    name, file_name = data.draw(st.sampled_from(CHECKED_IN), label="file")
    base = load_bounds(file_name)
    key = data.draw(st.sampled_from(sorted(SEARCHES[name].keys)), label="key")
    values = [JSON_VALUE, BRACKET_TEXT,
              st.sampled_from([True, 1.0, (1, 2), Listed([1, 2]), {1, 2}, [[[1]]]])]
    same = list(retyped(base.get(key)))
    value = data.draw(st.one_of(*values, *[st.sampled_from(same)] * bool(same)), label="value")
    cfg = dict(base, **{key: value})
    dgk_search._join.cache_clear()
    run(name, base)
    warm = outcome(name, cfg)
    dgk_search._join.cache_clear()
    assert outcome(name, cfg) == warm, (name, key, value)


# Values equal to the packaged ones (60.0 == 60, hashing alike) in a type
# parse_bounds refuses.
RETYPED = [
    ("final-bounds", "final_bounds", "catalog_max_size", 60.0),
    ("final-bounds", "final_bounds", "b", [1.0, 2]),
    ("xy", "xy", "x_max", 4.0),
    ("xy", "xy", "b", [True, 2]),
    ("knonpos", "k_nonpositive", "d2_max", 11.0),
    ("knonpos", "k_nonpositive", "case2_k_max", 9.0),
    ("fiber-pairs", "fiber_pairs", "twig_d_max", 6.0),
]


@pytest.mark.parametrize("name, file_name, key, value", RETYPED,
                         ids=[f"{name}-{key}" for name, _, key, _ in RETYPED])
def test_a_joined_value_in_another_type_is_refused(name, file_name, key, value):
    base = load_bounds(file_name)
    assert base[key] == value
    dgk_search._join.cache_clear()
    run(name, base)
    with pytest.raises(ValueError, match=f"^{key} must be "):
        run(name, dict(base, **{key: value}))
    assert dgk_search._join.cache_info().currsize == 1


# Values with no image: a set, and lists nested deeper than any box value.
IMAGELESS = [
    ("fiber-pairs", "fiber_pairs", "eshapes", {("[4]", 1)}),
    ("fiber-pairs", "fiber_pairs", "eshapes", [[["[4]"], 1]]),
    ("xy", "xy", "b", [{1}]),
    ("knonpos", "k_nonpositive", "t1", {"[3]"}),
    ("final-bounds", "final_bounds", "d_rules", [{"x": [3], "y_min": 3, "y_max": 3, "z_max": 5}]),
]


@pytest.mark.parametrize("name, file_name, key, value", IMAGELESS,
                         ids=[f"{name}-{key}-{i}" for i, (name, _, key, _) in enumerate(IMAGELESS)])
def test_a_value_with_no_image_is_refused_as_parse_bounds_refuses_it(name, file_name, key, value):
    cfg = dict(load_bounds(file_name), **{key: value})
    assert dgk_search._written(cfg) is None
    with pytest.raises(ValueError) as parsed:
        parse_bounds(name, cfg)
    with pytest.raises(ValueError) as searched:
        run(name, cfg)
    assert str(searched.value) == str(parsed.value)
