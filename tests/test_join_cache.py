"""The join cache: each search is a flag-free join, kept per box, and a
decision pass that applies the flags to its hits.

A warm result must equal the cold one and the reference route's, for every
flag variant of every box; a change to any one box field must miss the
cache.  These tests carry completeness: a check that every output passes
its flags cannot see an output that is missing.
"""

import json
import random
from functools import cache
from pathlib import Path

import pytest

from dgk import chains
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
    _xy_rules,
    load_bounds,
    parse_bounds,
    search_final_bounds,
)
from reference import reference_equation_solutions, reference_report, reference_scan_triples

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


BOXES = [(f"{name}-{file_name}", name, load_bounds(file_name)) for name, file_name in CHECKED_IN]
BOXES += list(level_boxes())


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
    """The (r1, r2, r3) triples of a sweep's (r1, r2, thirds) groups, in order."""
    return [(r1, r2, r3) for r1, r2, thirds in groups for r3 in thirds]


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
        found = reference_scan_triples(flatten(_groups(_rule_pairs(_xy_rules(spec)))), spec,
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
        dgk_search._join.cache_clear()
        assert run(name, variant) == warm, (label, i)
        seen.add(json.dumps(warm, sort_keys=True))
    # the flags reach the output: the variants do not all agree, except on
    # knonpos level 1, whose b = [2] leaves the box without a hit
    assert len(seen) > 1 or label == "knonpos-1", label


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
