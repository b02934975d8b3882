import json
import re
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgk import chains
from dgk.barks import (
    ForkInvariants, SpecIndex, catalog_index, eshape_catalog, fork_sums, shape_of,
)
from dgk.chains import chain_record
from dgk.graphs import format_chain, parse_chain
from dgk.predicates import (
    PREDICATE_NAMES,
    BoundaryCandidate,
    evaluate_predicates,
    lambda_and_p_square,
)
from dgk import ruling as dgk_ruling
from dgk import search as dgk_search
from dgk.ruling import solve_two_fiber
from dgk.search import (
    GOLDEN_FILES,
    INDEX_PREDICATES,
    SEARCHES,
    Bounds,
    Rule,
    load_bounds,
    parse_bounds,
    run_search,
    _case1_pairs,
    _case2_triples,
    _decide,
    _groups,
    _pair_keys,
    _rule_pairs,
    _scan_triples,
    search_fiber_pairs,
    search_final_bounds,
    search_k_nonpositive,
    search_xy,
    verify_suite,
)
from reference import (
    cand_delta,
    cand_et,
    reference_report,
    reference_scan_triples,
    reference_square_and_zar_bk2,
    shape,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "src" / "dgk" / "golden"


def test_predicate_report_is_complete():
    cand = BoundaryCandidate(
        2,
        (parse_chain("[2]"), parse_chain("[(2)]"), parse_chain("[4,(6)]")),
        shape("[4]", 1),
    )
    report = evaluate_predicates(cand)
    expected = {
        "noether", "bmy", "eps2_ii", "eps2_iii", "eps2_iv", "zar_b",
        "zar_delta", "zar_bk2", "square", "ke", "w2", "w2_delta_g",
        "delta3", "et_plus_delta_ge_2", "no_212", "min_twig_irreducible",
    }
    assert expected <= set(report.entries)
    # this is one of the surviving candidates: the core run passes
    assert report.passes(
        ("noether", "bmy", "eps2_ii", "eps2_iii", "eps2_iv",
         "zar_b", "zar_delta", "zar_bk2", "square", "w2")
    )


def test_all_twigs_minus_two_fails_zar():
    cand = BoundaryCandidate(
        2, (parse_chain("[2]"),) * 3, shape("[4]", 1)
    )
    report = evaluate_predicates(cand)
    assert not report.entries["zar_b"][0]  # e~ = 3/2 < b = 2


def test_lambda_and_p_square():
    cand = BoundaryCandidate(
        1,
        (parse_chain("[2]"), parse_chain("[4]"), parse_chain("[(8),4]")),
        shape("[4]", 1),
    )
    lam, psq = lambda_and_p_square(cand)
    assert psq > 0
    assert psq * (cand_et(cand) - 1) == (1 - cand_delta(cand)) ** 2
    degenerate = BoundaryCandidate(1, (parse_chain("[2]"),) * 3, shape("[4]", 1))
    with pytest.raises(ValueError):
        lambda_and_p_square(degenerate)


def test_square_and_zar_bk2_match_the_fraction_route():
    twigs = [ws for dd in range(2, 8) for ws in chains.oriented_chains_with_d(dd)]
    shapes = eshape_catalog(8)
    seen = {"delta = 1": 0, "e~ = b": 0, "square": 0, "zar_bk2": 0}
    for i, triple in enumerate(combinations_with_replacement(twigs, 3)):
        for b in (1, 2, 3):
            cand = BoundaryCandidate(b, triple, shapes[(7 * i + b) % len(shapes)])
            report = evaluate_predicates(cand)
            square, zar_bk2 = reference_square_and_zar_bk2(cand)
            assert report.entries["square"] == square, cand
            assert report.entries["zar_bk2"] == zar_bk2, cand
            seen["delta = 1"] += cand_delta(cand) == 1
            seen["e~ = b"] += cand_et(cand) == b
            seen["square"] += square[0]
            seen["zar_bk2"] += zar_bk2[0]
    # the sweep holds both degenerate cases and passes of both predicates
    assert all(seen.values()), seen


def test_golden_equality_all_searches():
    for name in SEARCHES:
        got = run_search(name)
        want = json.loads((GOLDEN_DIR / GOLDEN_FILES[name]).read_text())
        assert got == want, f"golden mismatch for {name}"


def test_verify_suite():
    results = verify_suite()
    assert all(r["status"] == "ok" for r in results.values())


def test_xy_candidates_match_published_list():
    found = [c.to_dict() for c, _ in search_xy()]
    assert found == [
        {"b": 1, "twigs": ["[2]", "[4]", "[(8),4]"], "eshape": "[4]", "epsilon": 1},
        {"b": 2, "twigs": ["[2]", "[(2)]", "[4,(6)]"], "eshape": "[4]", "epsilon": 1},
        {"b": 2, "twigs": ["[2]", "[(3)]", "[3,3,(4)]"], "eshape": "[4]", "epsilon": 1},
    ]


def test_final_bounds_only_four():
    out = search_final_bounds()
    assert out["eshapes"] == ["[4]"]


def test_final_bounds_relaxed_is_superset():
    strict = search_final_bounds()
    relaxed = search_final_bounds(load_bounds("final_bounds_relaxed"))
    assert set(strict["eshapes"]) <= set(relaxed["eshapes"])
    assert "[3]" in relaxed["eshapes"]
    want = json.loads(
        (GOLDEN_DIR / GOLDEN_FILES["final-bounds-relaxed"]).read_text()
    )
    assert relaxed == want


def test_monotonicity_dropping_a_predicate():
    cfg = load_bounds("xy")
    base = {json.dumps(c.to_dict(), sort_keys=True) for c, _ in search_xy(cfg)}
    cfg_weak = dict(cfg)
    cfg_weak["predicates"] = [p for p in cfg["predicates"] if p != "square"]
    weak = {
        json.dumps(c.to_dict(), sort_keys=True) for c, _ in search_xy(cfg_weak)
    }
    assert base <= weak
    assert len(weak) > len(base)


@pytest.fixture(scope="module")
def fiber_pairs_ladder():
    """fiber-pairs on its packaged bounds with twig_d_max 6, 8, 10 and 16."""
    cfg = load_bounds("fiber_pairs")
    return {d: search_fiber_pairs(dict(cfg, twig_d_max=d)) for d in (6, 8, 10, 16)}


def nested(steps):
    """Whether each step's set holds the one before it."""
    return all(small <= large for small, large in zip(steps, steps[1:]))


def test_enlarging_a_box_loses_no_candidate(fiber_pairs_ladder):
    # a larger box edge must not lose a candidate, which a fixed golden box
    # cannot show: the fiber-pairs ladder, xy at z_max 41 and 84,
    # final-bounds at rule-2 z_max 20, 30 and 41 and knonpos at
    # (d3_max, case2_k_max) (20, 5), (30, 7) and (42, 9) are nested
    steps = [
        {json.dumps(s.to_dict(), sort_keys=True) for s in sols}
        for sols in fiber_pairs_ladder.values()
    ]
    assert [len(step) for step in steps] == [3, 3, 3, 4]
    assert nested(steps)
    cfg = load_bounds("xy")
    xy = [
        {json.dumps(c.to_dict(), sort_keys=True) for c, _ in search_xy(dict(cfg, z_max=z))}
        for z in (41, 84)
    ]
    assert [len(found) for found in xy] == [3, 8]
    assert xy[0] <= xy[1]
    cfg = load_bounds("final_bounds")
    first, second = cfg["d_rules"]
    final = [
        {json.dumps(c, sort_keys=True) for c in search_final_bounds(
            dict(cfg, d_rules=[first, dict(second, z_max=z)]))["candidates"]}
        for z in (20, 30, 41)
    ]
    assert [len(found) for found in final] == [1, 4, 4]
    assert nested(final)
    cfg = load_bounds("k_nonpositive")
    knonpos = [
        search_k_nonpositive(dict(cfg, d3_max=d3, case2_k_max=k))
        for d3, k in ((20, 5), (30, 7), (42, 9))
    ]
    for case, count in (("case1", 2), ("case2", 0)):
        found = [{json.dumps(c, sort_keys=True) for c in out[case]} for out in knonpos]
        assert [len(step) for step in found] == [count] * 3, case
        assert nested(found), case


def test_every_two_fiber_solution_is_a_scan_candidate(fiber_pairs_ladder):
    # the sound direction of the two routes: a fiber-pairs solution passes
    # the scan's predicates, so xy with its one shape finds it on a box that
    # holds its twig discriminants.  The fourth solution at twig_d_max 16,
    # b = 1 with [2], [3], [(6),3] on [3] and epsilon 2, lies outside the
    # fiber-pairs golden box (d([(6),3]) = 15), and the xy golden file drops
    # it both by w2 and by exclude_eps2_chains
    predicates = load_bounds("fiber_pairs")["predicates"]
    for sol in fiber_pairs_ladder[16]:
        x, y, z = sorted(chains.d(t) for t in (sol.t1, sol.t2, sol.t3))
        cfg = dict(
            load_bounds("xy"), b=[1, 2], x_max=x, y_max=y, z_max=z,
            eshapes=[[sol.eshape.key(), sol.epsilon]], predicates=predicates,
            exclude_eps2_chains=False, delta_gmin=None,
        )
        want = BoundaryCandidate(sol.b, (sol.t1, sol.t2, sol.t3), sol.eshape).to_dict()
        assert want in [c.to_dict() for c, _ in search_xy(cfg)], want


def test_fiber_pairs_reaches_its_seven_solutions_at_40():
    # the reach the per-discriminant solver buys, as a guard: twig_d_max 40
    # runs in a fraction of a second and gives the 7 solutions, 6
    # boundaries, that the weight-by-weight sweep gave
    cfg = load_bounds("fiber_pairs")
    found = [
        (s.b, format_chain(s.t1), format_chain(s.t2), format_chain(s.t3), s.eshape.key(), s.epsilon)
        for s in search_fiber_pairs(dict(cfg, twig_d_max=40))
    ]
    assert found == [
        (1, "[2]", "[(6),3]", "[3]", "[3]", 2),
        (1, "[2]", "[(5),3,3]", "[3]", "[2,3]", 2),
        (1, "[3]", "[(6),4]", "[2]", "[2,3]", 2),
        (2, "[2]", "[(3)]", "[3,3,(4)]", "[4]", 1),
        (1, "[2]", "[4]", "[(8),4]", "[4]", 1),
        (1, "[2]", "[(8),4]", "[4]", "[4]", 1),
        (2, "[(2)]", "[2]", "[4,(6)]", "[4]", 1),
    ]


def golden_fiber_pairs_sweep():
    """The fiber-pairs golden box, its shapes and its twig sweep, in the
    join's order."""
    spec = parse_bounds("fiber-pairs")
    sweep = [ws for dd in range(2, spec.twig_d_max + 1)
             for ws in chains.oriented_chains_with_d(dd)]
    return spec, [shape_of(es) for es in spec.eshapes], sweep


def test_the_solver_and_the_search_agree_on_the_golden_box():
    # solve_two_fiber one (T1, T2) at a time, over every (shape, T1, T2) of
    # the golden sweep, finds what search_fiber_pairs finds, in its order
    _, shapes, sweep = golden_fiber_pairs_sweep()
    found = [sol for es in shapes for t1 in sweep for t2 in sweep
             for sol in solve_two_fiber(t1, t2, es)]
    assert len(found) == 3
    assert sorted(found, key=lambda sol: sol.sort_key()) == search_fiber_pairs()


def test_the_join_reads_each_tail_once_per_shape_and_t1(monkeypatch):
    # one cold fiber-pairs join calls the solver once per (shape, T1), with
    # the twig table as rows (d, records) of every T2 of the sweep, and the
    # solver reads T1's (k, c', p') once per alpha, for both splits: the
    # reads do not grow with the number of T2
    spec, shapes, sweep = golden_fiber_pairs_sweep()
    rows = [(dd, tuple(map(chain_record, chains.oriented_chains_with_d(dd))))
            for dd in range(2, spec.twig_d_max + 1)]
    calls, reads = [], []
    tail_pairs, candidates = dgk_ruling._tail_pairs, dgk_search.two_fiber_candidates

    def read(t1, alpha):
        reads.append((len(calls), t1, alpha))
        return tail_pairs(t1, alpha)

    def solve(t1, table, es):
        calls.append((es, t1, table))
        return candidates(t1, table, es)

    monkeypatch.setattr(dgk_ruling, "_tail_pairs", read)
    monkeypatch.setattr(dgk_search, "two_fiber_candidates", solve)
    dgk_search._fiber_pairs_join(spec)
    assert calls == [(es, t1, rows) for es in shapes for t1 in sweep]
    assert all(t1 == calls[call - 1][1] for call, t1, _ in reads)
    assert len(set(reads)) == len(reads) > len(calls)


# ---------------------------------------------------------------------------
# brute-force oracles: the reference report over every (triple, b, shape)


def oriented(d_max):
    """Every oriented twig with d <= d_max, sorted by (d, weights)."""
    return sorted(
        (chains.d(ws), ws)
        for dd in range(2, d_max + 1)
        for ws in chains.oriented_chains_with_d(dd)
    )


def sorted_triples(d_max):
    for triple in combinations_with_replacement(oriented(d_max), 3):
        yield tuple(d for d, _ in triple), tuple(ws for _, ws in triple)


def brute_force(cfg, triples, shapes):
    """The canonical candidate list of the box, with no index and no gates.

    When the list names noether, Noether's count #E + #D = 7 + eps + K.D +
    K.E is tested first in integers; the reference report then decides.
    """
    names = tuple(cfg["predicates"])
    gmin = cfg.get("delta_gmin")
    found = []
    for twigs in triples:
        delta = sum(Fraction(1, chains.d(t)) for t in twigs)
        if gmin is not None and delta + Fraction(1, gmin) <= 1:
            continue
        size_d = 1 + sum(len(t) for t in twigs)
        for b in cfg["b"]:
            k_dot_d = b - 2 + sum(w - 2 for t in twigs for w in t)
            for shape in shapes:
                if cfg.get("exclude_eps2_chains") and shape.epsilon == 2 and not shape.is_fork:
                    continue
                if "noether" in names and (
                    shape.size + size_d != 7 + shape.epsilon + k_dot_d + shape.ke
                ):
                    continue
                cand = BoundaryCandidate(b, twigs, shape)
                report = reference_report(cand, cfg["group_order_mode"])
                if report.passes(names):
                    found.append(cand)
    found.sort(key=BoundaryCandidate.sort_key)
    return [cand.to_dict() for cand in found]


def keyed_brute_force(cfg, triples, shapes):
    """:func:`brute_force` for a list that names noether and zar_bk2, with
    the shapes grouped by both, so that the reference report meets only the
    shapes those two pass.

    For each (triple, b) the group is the shapes with Noether's
    #E - eps - K.E = 7 + K.D - #D and, in Fraction from the twigs' own e,
    e~ and delta, Bk^2(E) + eps = e - 1 - (1 - delta)^2/(e~ - b); zar_bk2
    fails where e~ = b or delta = 1.  The report then decides every
    predicate of the list, these two included.
    """
    names = tuple(cfg["predicates"])
    assert {"noether", "zar_bk2"} <= set(names)
    groups = {}
    for s in shapes:
        groups.setdefault((s.size - s.epsilon - s.ke, s.bk_square + s.epsilon), []).append(s)
    gmin = cfg.get("delta_gmin")
    found = []
    for twigs in triples:
        delta = sum(Fraction(1, chains.d(t)) for t in twigs)
        if gmin is not None and delta + Fraction(1, gmin) <= 1:
            continue
        e = sum(chains.e(t) for t in twigs)
        et = sum(chains.e_tilde(t) for t in twigs)
        size_d = 1 + sum(len(t) for t in twigs)
        for b in cfg["b"]:
            if et == b or delta == 1:
                continue
            k_dot_d = b - 2 + sum(w - 2 for t in twigs for w in t)
            key = (7 + k_dot_d - size_d, e - 1 - (1 - delta) ** 2 / (et - b))
            for shape in groups.get(key, ()):
                if cfg.get("exclude_eps2_chains") and shape.epsilon == 2 and not shape.is_fork:
                    continue
                cand = BoundaryCandidate(b, twigs, shape)
                if reference_report(cand, cfg["group_order_mode"]).passes(names):
                    found.append(cand)
    found.sort(key=BoundaryCandidate.sort_key)
    return [cand.to_dict() for cand in found]


def xy_box(cfg):
    return [
        twigs
        for (d1, d2, d3), twigs in sorted_triples(cfg["z_max"])
        if d1 <= cfg["x_max"] and d2 <= cfg["y_max"]
    ]


def small_xy():
    return dict(load_bounds("xy"), x_max=2, y_max=5, z_max=12)


def named(cfg):
    return [shape(key, eps) for key, eps in cfg["eshapes"]]


def test_xy_scan_matches_brute_force():
    cfg = small_xy()
    assert [c.to_dict() for c, _ in search_xy(cfg)] == brute_force(
        cfg, xy_box(cfg), named(cfg)
    )
    # every shape of at most four components, eps-2 chains admitted, with
    # the file's predicates but square and w2, then with the index's alone
    cfg["eshapes"] = [[s.key(), s.epsilon] for s in eshape_catalog(4)]
    weaker = [p for p in cfg["predicates"] if p not in ("square", "w2")]
    sizes = []
    for preds in (weaker, list(INDEX_PREDICATES)):
        cfg.update(predicates=preds, exclude_eps2_chains=False)
        want = brute_force(cfg, xy_box(cfg), named(cfg))
        assert [c.to_dict() for c, _ in search_xy(cfg)] == want
        sizes.append(len(want))
    assert 0 < sizes[0] < sizes[1]


@pytest.mark.parametrize(
    "name, delta_gmin",
    [("final_bounds", None), ("final_bounds_relaxed", 2), ("final_bounds_relaxed", 6)],
)
def test_final_bounds_scan_matches_brute_force(name, delta_gmin):
    # delta_gmin 6 puts the triples (2,6,6) and (3,3,6) on its edge
    rules = [
        {"x": 2, "y_min": 4, "y_max": 6, "z_max": 6},
        {"x": 3, "y_min": 3, "y_max": 3, "z_max": 6},
    ]
    cfg = dict(load_bounds(name), d_rules=rules, catalog_max_size=20, delta_gmin=delta_gmin)
    box = [
        twigs
        for (d1, d2, d3), twigs in sorted_triples(6)
        if (d1 == 2 and 4 <= d2) or (d1 == 3 and d2 == 3)
    ]
    want = brute_force(cfg, box, eshape_catalog(20))
    assert search_final_bounds(cfg)["candidates"] == want
    assert want or name == "final_bounds"


@pytest.mark.parametrize("index_only", [False, True])
def test_knonpos_scan_matches_brute_force(index_only):
    cfg = dict(
        load_bounds("k_nonpositive"), d2_max=5, d3_max=12, case2_k_max=3,
        catalog_max_size=21,
    )
    if index_only:
        cfg["predicates"] = list(INDEX_PREDICATES)
    case1, case2 = knonpos_boxes(cfg)
    shapes = eshape_catalog(21)
    out = search_k_nonpositive(cfg)
    assert out["case1"] == brute_force(cfg, case1, shapes)
    assert out["case2"] == brute_force(cfg, case2, shapes)
    assert out["case1"] and (out["case2"] or not index_only)


def knonpos_boxes(cfg):
    """The sorted twig triples of knonpos's two cases: T1 with T2, T3 of
    3 <= d2 <= d3 <= d3_max, d2 <= d2_max, but not T2 = T1 with T3 ending
    in (3, 2); and T1 twice with the tails head + (2)^k + (3, 2)."""
    t1 = parse_chain(cfg["t1"])
    by_key = lambda t: (chains.d(t), t)  # noqa: E731
    case1 = [
        tuple(sorted((t1, t2, t3), key=by_key))
        for (d2, t2), (d3, t3) in combinations_with_replacement(oriented(cfg["d3_max"]), 2)
        if 3 <= d2 <= cfg["d2_max"] and not (t2 == t1 and t3[-2:] == (3, 2))
    ]
    case2 = [
        tuple(sorted((t1, t1, head + (2,) * k + (3, 2)), key=by_key))
        for k in range(cfg["case2_k_max"] + 1)
        for head in ((), (3,), (4,), (2, 3))
    ]
    return case1, case2


# ---------------------------------------------------------------------------
# random boxes against brute force

RANDOM_D_MAX = 14  # the largest twig discriminant of a random box
RANDOM_CAP = 30  # the catalog of the random final-bounds and knonpos boxes
OTHER_PREDICATES = [p for p in PREDICATE_NAMES if p not in INDEX_PREDICATES]
SIZE6_NAMES = [[s.key(), s.epsilon] for s in eshape_catalog(6)]


@cache
def all_triples():
    return list(sorted_triples(RANDOM_D_MAX))


def rule_box(rules):
    """The sorted twig triples in a cell of some rule: d1 = x,
    max(x, y_min) <= d2 <= y_max and d3 <= z_max."""
    return [
        twigs
        for (d1, d2, d3), twigs in all_triples()
        if any(
            r["x"] == d1 and max(r["x"], r["y_min"]) <= d2 <= r["y_max"] and d3 <= r["z_max"]
            for r in rules
        )
    ]


@st.composite
def random_boxes(draw):
    """(search, bounds, a predicate the list leaves out) for a small random
    box of xy, final-bounds or knonpos."""
    name = draw(st.sampled_from(["xy", "final-bounds", "knonpos"]))
    extra = draw(st.lists(st.sampled_from(OTHER_PREDICATES), unique=True, max_size=3))
    cfg = dict(
        load_bounds(SEARCHES[name].bounds_file),
        b=draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=2, unique=True)),
        delta_gmin=draw(st.sampled_from([None, None, 2, 3, 4, 5, 6, 7])),
        exclude_eps2_chains=draw(st.booleans()),
        group_order_mode=draw(st.sampled_from(["actual", "h1"])),
        predicates=draw(st.permutations([*INDEX_PREDICATES, *extra])),
    )
    if name == "xy":
        x_max = draw(st.integers(2, 3))
        y_max = draw(st.integers(x_max, 6))
        kept = draw(st.lists(st.booleans(), min_size=len(SIZE6_NAMES), max_size=len(SIZE6_NAMES))
                    .filter(any))  # an empty eshapes list is refused
        cfg.update(
            x_max=x_max, y_max=y_max, z_max=draw(st.integers(y_max, RANDOM_D_MAX)),
            eshapes=[shape for shape, keep in zip(SIZE6_NAMES, kept) if keep],
        )
    elif name == "final-bounds":
        rules = []
        for _ in range(draw(st.integers(1, 2))):
            x, y_min = draw(st.integers(2, 4)), draw(st.integers(2, 6))
            y_max = draw(st.integers(max(x, y_min), 6))
            z_max = draw(st.integers(y_max, RANDOM_D_MAX))
            rules.append({"x": x, "y_min": y_min, "y_max": y_max, "z_max": z_max})
        cfg.update(d_rules=rules, catalog_max_size=RANDOM_CAP)
    else:
        cfg.update(
            t1=draw(st.sampled_from(["[3]", "[3]", "[2]", "[4]", "[2,3]"])), d2_max=draw(st.integers(3, 6)),
            d3_max=draw(st.integers(3, RANDOM_D_MAX)), case2_k_max=draw(st.integers(0, 3)),
            catalog_max_size=RANDOM_CAP,
        )
    more = draw(st.sampled_from([p for p in OTHER_PREDICATES if p not in extra]))
    return name, cfg, more


def candidate_lists(name, cfg):
    """The candidate lists the search ``name`` returns on ``cfg``."""
    out = SEARCHES[name].golden_form(run(name, cfg))
    if name == "xy":
        return [out]
    return [out["candidates"]] if name == "final-bounds" else [out["case1"], out["case2"]]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(box=random_boxes())
def test_random_boxes_match_brute_force(box):
    name, cfg, more = box
    if name == "knonpos":
        boxes = knonpos_boxes(cfg)
    else:
        boxes = [xy_box(cfg) if name == "xy" else rule_box(cfg["d_rules"])]
    shapes = named(cfg) if name == "xy" else eshape_catalog(RANDOM_CAP)
    got = candidate_lists(name, cfg)
    assert got == [keyed_brute_force(cfg, triples, shapes) for triples in boxes]
    # a predicate more never adds a candidate
    stricter = candidate_lists(name, dict(cfg, predicates=[*cfg["predicates"], more]))
    for fewer, found in zip(stricter, got):
        assert all(cand in found for cand in fewer)


def test_keyed_brute_force_is_the_brute_force():
    # the grouping by the noether and zar_bk2 keys drops only shapes that
    # fail one of the two, on the relaxed final-bounds box of the test above
    rules = [
        {"x": 2, "y_min": 4, "y_max": 6, "z_max": 6},
        {"x": 3, "y_min": 3, "y_max": 3, "z_max": 6},
    ]
    cfg = dict(load_bounds("final_bounds_relaxed"), d_rules=rules, delta_gmin=6)
    box = rule_box(rules)
    want = brute_force(cfg, box, eshape_catalog(20))
    assert want and keyed_brute_force(cfg, box, eshape_catalog(20)) == want


def test_scan_rejects_lists_without_index_predicates():
    # the probe enforces noether and zar_bk2 whatever the list says; without
    # them the plain evaluation of this box finds four candidates
    cfg = small_xy()
    cfg["predicates"] = [p for p in cfg["predicates"] if p not in ("noether", "zar_bk2")]
    cfg["exclude_eps2_chains"] = False
    assert len(brute_force(cfg, xy_box(cfg), named(cfg))) == 4
    with pytest.raises(ValueError, match="noether, zar_bk2"):
        search_xy(cfg)
    for name, search in (("final_bounds", search_final_bounds),
                         ("k_nonpositive", search_k_nonpositive)):
        cfg = load_bounds(name)
        cfg["predicates"] = [p for p in cfg["predicates"] if p != "zar_delta"]
        with pytest.raises(ValueError, match="zar_delta"):
            search(cfg)


def test_catalog_cap_is_checked():
    cfg = dict(load_bounds("final_bounds"), catalog_max_size=20)
    with pytest.raises(ValueError, match="catalog_max_size is 20"):
        search_final_bounds(cfg)
    # ([3], [5], [12]) with b = 1 asks for 21 components: 20 is one short
    small = dict(load_bounds("k_nonpositive"), d2_max=5, d3_max=12, case2_k_max=3)
    with pytest.raises(ValueError, match="up to 21 components"):
        search_k_nonpositive(dict(small, catalog_max_size=20))
    assert search_k_nonpositive(dict(small, catalog_max_size=21))["case1"]


def index_only(name):
    return dict(load_bounds(name), predicates=list(INDEX_PREDICATES))


def fb_rules(*rules):
    return [dict(zip(("x", "y_min", "y_max", "z_max"), rule)) for rule in rules]


def test_degenerate_boxes_run_as_their_nonempty_parts():
    # a part of a box without twigs adds nothing and raises nothing: each
    # result is that of the box without that part, with the counts pinned.
    # A case2_k_max below 0, which leaves case 2 without a tail, and a
    # d_rules entry that covers no discriminant triple are refused instead,
    # among them one with x < 2, since no twig has a discriminant below 2
    kn = dict(index_only("k_nonpositive"), catalog_max_size=30)
    out = search_k_nonpositive(dict(kn, d2_max=5, d3_max=2, case2_k_max=1))
    want = search_k_nonpositive(dict(kn, d2_max=3, d3_max=3, case2_k_max=1))
    assert out == {"case1": [], "case2": want["case2"]} and len(out["case2"]) == 8
    with pytest.raises(ValueError, match="case2_k_max must be a nonnegative integer, got -1"):
        search_k_nonpositive(dict(kn, d2_max=5, d3_max=12, case2_k_max=-1))
    want = search_k_nonpositive(dict(kn, d2_max=5, d3_max=12, case2_k_max=0))
    assert (len(want["case1"]), len(want["case2"])) == (63, 5)
    out = search_k_nonpositive(dict(kn, d2_max=9, d3_max=6, case2_k_max=1))
    assert out == search_k_nonpositive(dict(kn, d2_max=6, d3_max=6, case2_k_max=1))
    assert (len(out["case1"]), len(out["case2"])) == (17, 8)
    fb = dict(index_only("final_bounds_relaxed"), catalog_max_size=30)
    wide, narrow = (2, 4, 6, 12), (3, 3, 3, 9)
    # the second rule is covered by the one before it
    out = search_final_bounds(dict(fb, d_rules=fb_rules(wide, (2, 4, 5, 10))))
    assert out == search_final_bounds(dict(fb, d_rules=fb_rules(wide)))
    assert len(out["candidates"]) == 75
    with pytest.raises(ValueError, match=re.escape(  # x < 2
            "d_rules entry {'x': 1, 'y_min': 1, 'y_max': 4, 'z_max': 8} covers no"
            " discriminant triple: x < 2")):
        search_final_bounds(dict(fb, d_rules=fb_rules((1, 1, 4, 8), wide)))
    assert len(search_final_bounds(dict(fb, d_rules=fb_rules(narrow)))["candidates"]) == 28
    with pytest.raises(ValueError, match=re.escape(  # y_min > y_max
            "d_rules entry {'x': 2, 'y_min': 7, 'y_max': 5, 'z_max': 12} covers no")):
        search_final_bounds(dict(fb, d_rules=fb_rules((2, 7, 5, 12), narrow)))


# ---------------------------------------------------------------------------
# twig triples from overlapping rules


def flatten(groups):
    """The (r1, r2, r3) triples of a sweep's (r1, r2, blocks) groups, in
    order, each block (z, thirds) holding thirds of discriminant z."""
    triples = []
    for r1, r2, blocks in groups:
        for z, thirds in blocks:
            assert all(r3.d == z for r3 in thirds), (r1.ws, r2.ws, z)
            triples += [(r1, r2, r3) for r3 in thirds]
    return triples


def reference_triples(rules, d_max):
    """The rule sweep with a set of every triple yielded so far."""
    by_d = {dd: chains.oriented_chains_with_d(dd) for dd in range(2, d_max + 1)}
    seen = set()
    for rule in rules:
        x = rule["x"]
        for t1 in by_d.get(x, ()):
            for y in range(rule["y_min"], rule["y_max"] + 1):
                for t2 in by_d.get(y, ()):
                    if (x, t1) > (y, t2):
                        continue
                    for z in range(y, rule["z_max"] + 1):
                        for t3 in by_d.get(z, ()):
                            if (y, t2) > (z, t3) or (t1, t2, t3) in seen:
                                continue
                            seen.add((t1, t2, t3))
                            yield (t1, t2, t3)


def test_overlapping_rules_give_each_triple_once():
    rules = [
        {"x": 2, "y_min": 3, "y_max": 6, "z_max": 12},
        {"x": 2, "y_min": 2, "y_max": 5, "z_max": 15},
        {"x": 3, "y_min": 2, "y_max": 4, "z_max": 9},
        {"x": 3, "y_min": 3, "y_max": 3, "z_max": 10},
        {"x": 2, "y_min": 1, "y_max": 3, "z_max": 8},
    ]
    got = [
        tuple(r.ws for r in t) for t in flatten(_groups(_rule_pairs([Rule(**r) for r in rules])))
    ]
    assert got == list(reference_triples(rules, 15))
    assert len(set(got)) == len(got) > 800


# ---------------------------------------------------------------------------
# bounds validation


def run(name, cfg):
    """The search ``name`` of the table, called on the bounds ``cfg``."""
    return getattr(dgk_search, SEARCHES[name].function)(cfg)


def file_of(name):
    return SEARCHES[name].bounds_file


CHECKED_IN = [(name, file_of(name)) for name in SEARCHES] + [
    ("final-bounds", "final_bounds_relaxed")
]


def test_checked_in_bounds_files_validate():
    for name, file_name in CHECKED_IN:
        assert isinstance(parse_bounds(name, load_bounds(file_name)), Bounds)


def frozen(key, value):
    """A bounds file's value as a Bounds holds it."""
    if key == "t1":
        return parse_chain(value)
    if key == "eshapes":
        return tuple(shape(k, eps).spec for k, eps in value)
    if key == "d_rules":
        return tuple(Rule(**rule) for rule in value)
    return tuple(value) if isinstance(value, list) else value


@pytest.mark.parametrize("name, file_name", CHECKED_IN)
def test_checked_in_bounds_files_parse_to_their_values(name, file_name):
    cfg = load_bounds(file_name)
    bounds = parse_bounds(name, cfg)
    edges = ("x_max", "y_max", "z_max")
    for key, value in cfg.items():
        if key not in edges:
            assert getattr(bounds, key) == frozen(key, value), key
    if name == "xy":  # the edges x <= 4, y <= 11, z <= 41 are the rules they stand for
        assert [cfg[key] for key in edges] == [4, 11, 41]
        assert bounds.d_rules == (Rule(2, 2, 11, 41), Rule(3, 3, 11, 41), Rule(4, 4, 11, 41))
        assert bounds.catalog_max_size is None
    if file_name == file_of(name):
        assert parse_bounds(name) == bounds  # None selects the packaged file


def test_xy_edges_are_the_same_box_as_its_d_rules():
    # xy's box written out as d_rules on its named shapes, without a
    # catalog, is the Bounds parse_bounds makes of its edges, and a cold
    # join of each, under either search's name, gives the same hits
    cfg = load_bounds("xy")
    edges = cfg.pop("x_max"), cfg.pop("y_max"), cfg.pop("z_max")
    rules = [{"x": x, "y_min": x, "y_max": 11, "z_max": 41} for x in (2, 3, 4)]
    as_rules = Bounds(**{key: frozen(key, value) for key, value in cfg.items()},
                      d_rules=frozen("d_rules", rules))
    assert edges == (4, 11, 41) and as_rules.catalog_max_size is None
    assert parse_bounds("xy") == as_rules
    joined = []
    for name, entries in (("xy", load_bounds("xy")), ("final-bounds", dict(cfg, d_rules=rules))):
        dgk_search._join.cache_clear()
        joined.append(dgk_search._join(name, dgk_search._written(entries)))
    assert joined[0] == joined[1] and len(joined[0][0]) > 3


def test_parsed_bounds_are_frozen():
    bounds = parse_bounds("xy")
    with pytest.raises(AttributeError):
        bounds.d_rules = ()
    assert isinstance(bounds.b, tuple) and isinstance(bounds.predicates, tuple)


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_bounds_with_unknown_key_rejected(name):
    cfg = dict(load_bounds(file_of(name)), delta_gmn=3)
    with pytest.raises(ValueError, match="unknown .* bounds keys: delta_gmn"):
        run(name, cfg)


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_empty_bounds_are_not_the_checked_in_file(name):
    # {} is a bounds dict with every key missing, not a request for defaults
    with pytest.raises(ValueError, match=f"missing {name} bounds keys"):
        run(name, {})


WRONG_TYPES = [
    ("xy", "b", 2, "b must be a list of integers"),
    ("xy", "b", [1, "2"], "b must be a list of integers"),
    ("xy", "b", [True], "b must be a list of integers"),
    ("xy", "x_max", "4", "x_max must be an integer"),
    ("xy", "z_max", 41.0, "z_max must be an integer"),
    ("xy", "eshapes", "[4]", "eshapes must be a list"),
    ("xy", "exclude_eps2_chains", "false", "exclude_eps2_chains must be true or false"),
    ("final-bounds", "d_rules", {"x": 3}, "d_rules must be a list of objects"),
    ("final-bounds", "d_rules", [[3, 3, 3, 5]], "d_rules must be a list of objects"),
    ("final-bounds", "d_rules", [{"x": "3", "y_min": 3, "y_max": 3, "z_max": 5}],
     "d_rules must be a list of objects"),
    ("final-bounds", "d_rules", [{"x": 3, "y_min": 3, "y_max": 3}],
     "d_rules must be a list of objects"),
    ("final-bounds", "catalog_max_size", None, "catalog_max_size must be an integer"),
    ("knonpos", "t1", ["[3]"], "t1 must be a bracket chain string"),
    ("knonpos", "d2_max", True, "d2_max must be an integer"),
    ("knonpos", "predicates", "noether", "predicates must be a list"),
    ("fiber-pairs", "twig_d_max", "6", "twig_d_max must be an integer"),
    ("fiber-pairs", "eshapes", {"[4]": 1}, "eshapes must be a list"),
    ("final-bounds", "d_rules", [], re.escape("d_rules must be a list of objects with"
                                             " integer x, y_min, y_max, z_max, got []")),
    # a d_rules entry has exactly the four keys: an extra one would be ignored
    ("final-bounds", "d_rules", [{"x": 3, "y_min": 3, "y_max": 3, "z_max": 5, "z_min": 4}],
     re.escape("d_rules must be a list of objects with integer x, y_min, y_max, z_max, got"
               " [{'x': 3, 'y_min': 3, 'y_max': 3, 'z_max': 5, 'z_min': 4}]")),
    # true and 1.0 hash as 1, so a bare lookup would find the shape of epsilon 1
    ("xy", "eshapes", [["[4]", True]],
     re.escape("eshapes entry ['[4]', True] is not a [key, epsilon] pair")),
    ("xy", "eshapes", [["[4]", 1.0]],
     re.escape("eshapes entry ['[4]', 1.0] is not a [key, epsilon] pair")),
    ("fiber-pairs", "eshapes", [["[4]", True]], re.escape("eshapes entry ['[4]', True] is not")),
    ("fiber-pairs", "eshapes", [["[4]", 1], ["[5]", 1.0]],
     re.escape("eshapes entry ['[5]', 1.0] is not")),
    ("xy", "eshapes", [[["[4]"], 1]], re.escape("eshapes entry [['[4]'], 1] is not")),
]


@pytest.mark.parametrize("name,key,value,message", WRONG_TYPES)
def test_bounds_with_wrong_types_rejected(name, key, value, message):
    cfg = dict(load_bounds(file_of(name)), **{key: value})
    with pytest.raises(ValueError, match=message):
        run(name, cfg)


# A repeated b value or eshapes entry would scan or solve the same box twice
# and return each of its candidates twice.
REPEATS = [
    ("xy", "eshapes", [["[4]", 1], ["[4]", 1]]),
    ("fiber-pairs", "eshapes", [["[4]", 1], ["[4]", 1]]),
    ("xy", "b", [1, 1, 2]),
    ("final-bounds", "b", [1, 2, 1]),
    ("knonpos", "b", [1, 1]),
    # one shape in two spellings is one shape
    ("xy", "eshapes", [["[2,3]", 2], ["[3,2]", 2]]),
    ("fiber-pairs", "eshapes", [["[(2),3]", 2], [" [2,2,3]", 2]]),
]


@pytest.mark.parametrize("name,key,value", REPEATS)
def test_bounds_with_a_repeated_value_rejected(name, key, value):
    cfg = dict(load_bounds(file_of(name)), **{key: value})
    with pytest.raises(ValueError, match=f"^{key} .*repeat"):
        run(name, cfg)


# A box that covers no discriminant triple returned [] with exit 0; each
# d_rules entry, and xy's edges, must cover one.
EMPTY_BOXES = [
    ("xy", {"x_max": 1}, "x_max 1, y_max 11, z_max 41"),
    ("xy", {"y_max": 1}, "x_max 4, y_max 1, z_max 41"),
    ("xy", {"x_max": 5, "y_max": 4}, "x_max 5, y_max 4, z_max 41"),
    ("xy", {"z_max": 3}, "x_max 4, y_max 11, z_max 3"),
    ("final-bounds", {"d_rules": [{"x": 5, "y_min": 3, "y_max": 4, "z_max": 41}]},
     "{'x': 5, 'y_min': 3, 'y_max': 4, 'z_max': 41}"),
    ("final-bounds", {"d_rules": [{"x": 3, "y_min": 3, "y_max": 3, "z_max": 5},
                                  {"x": 2, "y_min": 6, "y_max": 5, "z_max": 41}]},
     "{'x': 2, 'y_min': 6, 'y_max': 5, 'z_max': 41}"),
    ("final-bounds", {"d_rules": [{"x": 2, "y_min": 3, "y_max": 5, "z_max": 2}]},
     "{'x': 2, 'y_min': 3, 'y_max': 5, 'z_max': 2}"),
    ("final-bounds", {"d_rules": [{"x": 1, "y_min": 2, "y_max": 5, "z_max": 41}]},
     "{'x': 1, 'y_min': 2, 'y_max': 5, 'z_max': 41}"),
]


@pytest.mark.parametrize("name, box, shown", EMPTY_BOXES,
                         ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(EMPTY_BOXES)])
def test_a_box_without_a_discriminant_triple_is_refused(name, box, shown):
    cfg = dict(load_bounds(file_of(name)), **box)
    if name == "xy":
        message = f"xy's edges must satisfy 2 <= x_max <= y_max and x_max <= z_max, got {shown}"
    else:
        message = f"d_rules entry {shown} covers no discriminant triple"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        run(name, cfg)


@pytest.mark.parametrize("name, box", [
    ("xy", {"x_max": 2, "y_max": 2, "z_max": 2}),
    ("final-bounds", {"d_rules": [{"x": 2, "y_min": 2, "y_max": 2, "z_max": 2}]}),
    ("final-bounds", {"d_rules": [{"x": 3, "y_min": 2, "y_max": 3, "z_max": 3}]}),
])
def test_a_box_of_one_discriminant_triple_is_accepted(name, box):
    # max(x, y_min) = min(y_max, z_max): the one triple (x, y, y)
    (rule,) = parse_bounds(name, dict(load_bounds(file_of(name)), **box)).d_rules
    assert len(_rule_pairs([rule])) >= 1


def test_bounds_with_missing_key_rejected():
    cfg = load_bounds("xy")
    del cfg["z_max"]
    with pytest.raises(ValueError, match="missing xy bounds keys: z_max"):
        search_xy(cfg)


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_bounds_with_unknown_predicate_rejected(name):
    cfg = load_bounds(file_of(name))
    cfg["predicates"] = cfg["predicates"] + ["sqaure"]
    with pytest.raises(ValueError, match="unknown predicates: sqaure"):
        run(name, cfg)


@pytest.mark.parametrize("mode", ["H1", "abelian", None])
def test_bounds_with_unknown_group_order_mode_rejected(mode):
    cfg = dict(load_bounds("k_nonpositive"), group_order_mode=mode)
    with pytest.raises(ValueError, match="group_order_mode must be"):
        search_k_nonpositive(cfg)


@pytest.mark.parametrize("gmin", [0, -2, 2.5, "7", True])
def test_bounds_with_bad_delta_gmin_rejected(gmin):
    cfg = dict(load_bounds("final_bounds_relaxed"), delta_gmin=gmin)
    with pytest.raises(ValueError, match="delta_gmin must be null or a positive integer"):
        search_final_bounds(cfg)


@pytest.mark.parametrize("t1", ["[1]", "[]", "[1,1]"])
def test_knonpos_rejects_non_admissible_t1_before_any_work(monkeypatch, t1):
    monkeypatch.setattr(dgk_search, "catalog_index", lambda size: pytest.fail("index built"))
    with pytest.raises(ValueError, match=re.escape(f"t1 {t1} is not a nonempty admissible chain")):
        search_k_nonpositive(dict(load_bounds("k_nonpositive"), t1=t1))


def test_predicate_names_are_those_reported():
    report = evaluate_predicates(
        BoundaryCandidate(2, (parse_chain("[2]"), parse_chain("[(2)]"), parse_chain("[4,(6)]")),
                          shape("[4]", 1))
    )
    assert tuple(report.entries) == PREDICATE_NAMES


# A shape name is read by barks.specs_named alone: either orientation, any
# run notation and whitespace around it name the shape of its key.
@pytest.mark.parametrize(
    "key,spelling",
    [("[2,3]", "[3,2]"), ("[2,3]", " [2,3] "), ("[(2),3]", "[2,2,3]"), ("[(2),3]", "[3,(2)]")],
)
def test_a_shape_name_in_any_spelling_names_its_spec(key, spelling):
    cfg = dict(load_bounds("fiber_pairs"), eshapes=[[spelling, 2]])
    assert parse_bounds("fiber-pairs", cfg).eshapes == (shape(key, 2).spec,)


@pytest.mark.parametrize("spelling", ["[3,2]", " [2,3] "])
@pytest.mark.parametrize("name", ["xy", "fiber-pairs"])
def test_a_respelled_eshapes_entry_is_the_same_box(name, spelling):
    cfg = load_bounds(file_of(name))
    respelled = dict(cfg, eshapes=[
        [spelling if key == "[2,3]" else key, eps] for key, eps in cfg["eshapes"]
    ])
    assert respelled["eshapes"] != cfg["eshapes"]
    assert parse_bounds(name, respelled).eshapes == parse_bounds(name, cfg).eshapes
    form = SEARCHES[name].golden_form
    assert form(run(name, respelled)) == form(run(name, cfg))


def test_named_shape_not_in_catalog_rejected():
    cfg = dict(load_bounds("fiber_pairs"), eshapes=[["[4]", 1], ["[9]", 0]])
    with pytest.raises(ValueError, match=r"\['\[9\]', 0\] is not a \[key, epsilon\] pair"):
        search_fiber_pairs(cfg)


def test_fiber_pairs_solutions_have_distinct_sort_keys():
    # the key ends with the boundary (b, T1, T2, T3), so the order of the
    # solutions does not depend on the sweep: without it, b = 2 with
    # [(2)], [(2)], [(2),3,(2)] and [3,2], [(2)], [(5)] tie on this box
    irreducible = [
        [es.key(), es.epsilon] for es in eshape_catalog(12)
        if not es.is_fork and len(es.e_weights) == 1 and es.size <= 2
    ]
    assert len(irreducible) == 10
    cfg = dict(load_bounds("fiber_pairs"), twig_d_max=9, eshapes=irreducible,
               predicates=["noether"])
    keys = [sol.sort_key() for sol in search_fiber_pairs(cfg)]
    assert len(keys) == len(set(keys)) == 33
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# the scan joined on the Noether key


def key_of(triple):
    return 4 + sum(r.kd for r in triple)


def test_largest_kd_at_a_discriminant_is_the_single_curve():
    # d >= 1 + sum (w - 1), so kd = sum (w - 3) <= d - 1 - 2n: [d] alone
    # reaches d - 3
    for dd in range(2, 101):
        records = [chain_record(ws) for ws in chains.oriented_chains_with_d(dd)]
        top = max(r.kd for r in records)
        assert top == dd - 3
        assert [r.ws for r in records if r.kd == top] == [(dd,)]


def reduced_boxes():
    """(bounds, index, the box's sweep as a function of the join keys, None
    for the unpruned sweep) for reduced xy, final-bounds and knonpos boxes:
    b = [1, 2], [2] alone, and delta_gmin None, 2 and 3."""
    rules = [
        {"x": 2, "y_min": 4, "y_max": 6, "z_max": 12},
        {"x": 3, "y_min": 3, "y_max": 3, "z_max": 9},
    ]
    spec = parse_bounds("xy", small_xy())
    index = SpecIndex.of_specs(spec.eshapes)
    sweep = lambda keys: _groups(_rule_pairs(spec.d_rules), keys)  # noqa: E731
    yield spec, index, sweep
    for name, gmin, b in (("final_bounds", None, [1, 2]), ("final_bounds_relaxed", 2, [1, 2]),
                          ("final_bounds", None, [2])):
        cfg = dict(load_bounds(name), d_rules=rules, catalog_max_size=20, delta_gmin=gmin, b=b)
        spec = parse_bounds("final-bounds", cfg)
        yield spec, catalog_index(20), lambda keys, spec=spec: _groups(
            _rule_pairs(spec.d_rules), keys
        )
    for gmin in (None, 3):
        cfg = dict(load_bounds("k_nonpositive"), d2_max=5, d3_max=12, case2_k_max=3,
                   delta_gmin=gmin)
        spec = parse_bounds("knonpos", cfg)
        yield spec, catalog_index(21), lambda keys, spec=spec: _groups(_case1_pairs(spec), keys)


def test_join_keeps_exactly_the_triples_whose_key_can_hit():
    for spec, index, sweep in reduced_boxes():
        keys = dgk_search._join_keys(index, spec.b)
        unpruned = flatten(sweep(None))
        want = [
            t for t in unpruned if any(key_of(t) + b in index.first_keys for b in spec.b)
        ]
        got = flatten(sweep(keys))
        assert got == want
        assert 0 < len(got) < len(unpruned)
        # the probes of the dropped triples all miss
        assert _scan_triples(sweep(keys), spec, index) == _scan_triples(sweep(None), spec, index)


def test_pair_major_scan_matches_the_triple_scan():
    # the scan over (T1, T2, thirds) groups against the old kernel, which
    # forms fork_sums for each triple, with and without the join
    hits = 0
    for spec, index, sweep in reduced_boxes():
        for keys in (None, dgk_search._join_keys(index, spec.b)):
            joined = _scan_triples(sweep(keys), spec, index)
            got = [joined[i][3] for i in _decide(joined, spec)]
            assert got == reference_scan_triples(flatten(sweep(keys)), spec, index)
            hits += len(got)
    assert hits > 0


def test_every_hit_keeps_the_fork_record_of_its_twigs():
    # the scan forms (D, S, E0, Et0) once per block and E and Et per third;
    # each hit's record is the one fork_sums forms from its three twigs
    joins = [
        dgk_search._join(name, dgk_search._written(load_bounds(file_name)))
        for name, file_name in CHECKED_IN if name != "fiber-pairs"
    ]
    joins += [(_scan_triples(sweep(keys), spec, index),)
              for spec, index, sweep in reduced_boxes()
              for keys in (None, dgk_search._join_keys(index, spec.b))]
    hits = [hit for join in joins for found in join for hit in found]
    for record, twigs, _, cand in hits:
        assert record == ForkInvariants(cand.b, *fork_sums(*map(chain_record, twigs))), cand
    assert len(hits) > 1000


CATALOG_FILES = [(name, f) for name, f in CHECKED_IN if name in ("final-bounds", "knonpos")]


@pytest.mark.parametrize("name, file_name", CATALOG_FILES + [("xy", "xy")])
def test_reach_key_is_the_largest_key_of_the_unpruned_box(monkeypatch, name, file_name):
    cfg = load_bounds(file_name)
    spec = parse_bounds(name, cfg)
    if name == "xy":  # named shapes, no catalog to outgrow: the rule sweep's key
        got = max(_pair_keys(_rule_pairs(spec.d_rules)))
        unpruned = flatten(_groups(_rule_pairs(spec.d_rules)))
    else:
        seen = []
        check = dgk_search._check_catalog_reach
        def spy(keys, *rest):
            keys = list(keys)
            seen.append(max(keys))
            check(keys, *rest)

        monkeypatch.setattr(dgk_search, "_check_catalog_reach", spy)
        # the join checks the reach, so a box joined earlier would skip it
        dgk_search._join.cache_clear()
        run(name, cfg)
        (got,) = seen
        if name == "final-bounds":
            unpruned = flatten(_groups(_rule_pairs(list(spec.d_rules))))
        else:
            case1 = [
                t for t in flatten(_groups(_case1_pairs(spec)))
                if not (t[1].ws == spec.t1 and t[2].ws[-2:] == (3, 2))
            ]
            unpruned = case1 + flatten(_case2_triples(spec))
    assert got == max(map(key_of, unpruned))


def test_final_bounds_builds_only_the_buckets_it_probes():
    # a joined box probes nothing, so the join is cleared with the index
    catalog_index.cache_clear()
    dgk_search._join.cache_clear()
    run_search("final-bounds")
    index = catalog_index(60)
    assert 0 < sum(1 for bucket in index.values() if bucket) < len(index.first_keys)


# ---------------------------------------------------------------------------
# knonpos case 2's k bound, derived from Noether's count


@pytest.mark.parametrize("head", [(), (3,), (4,), (2, 3)], ids=["none", "3", "4", "2,3"])
def test_case2_ends_where_its_noether_key_leaves_every_catalog(head):
    # a case-2 triple (T1, T1, head + (2)^k + (3, 2)) with b probes the key
    # 4 + b + sum kd, and no shape sits below the smallest first key of the
    # catalog, -4 at size 100 as at 60.  kd((2)^k) = -k, so past
    # k = 8 + kd(head) every key is below it: case 2 is empty for every k,
    # and case2_k_max = 9, the bound of the head (4), follows from the count
    spec = parse_bounds("knonpos")
    floor = min(catalog_index(100).first_keys)
    assert floor == min(catalog_index(spec.catalog_max_size).first_keys) == -4
    base = 4 + max(spec.b) + 2 * chain_record(spec.t1).kd

    def key(k):
        return base + chain_record(head + (2,) * k + (3, 2)).kd

    bound = 8 + sum(w - 3 for w in head)
    assert key(bound) >= floor
    assert all(key(k) < floor for k in range(bound + 1, 51)), head
    assert bound <= spec.case2_k_max and (bound == spec.case2_k_max) == (head == (4,))
