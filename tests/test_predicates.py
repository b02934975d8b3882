"""The predicate table against its oracle, the suite as one function.

``reference.reference_report`` evaluates every predicate in turn in
``Fraction`` arithmetic, as the package once did.  The table must give the
same report, entry by entry and witness by witness, and the decision pass
``decide`` the report's verdict, predicate by predicate.
"""

import random
import re
from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dgk import chains
from dgk import predicates as dgk_predicates
from dgk.barks import (
    DegenerateChainError,
    _spec_graph,
    eshape_catalog,
    family_specs,
    fork_invariants,
)
from dgk.predicates import (
    PREDICATE_NAMES,
    PREDICATES,
    BoundaryCandidate,
    Hits,
    decide,
    evaluate_predicates,
)
from dgk.search import (
    INDEX_PREDICATES,
    _decide,
    _decided,
    _join,
    _written,
    load_bounds,
    parse_bounds,
)
from reference import cand_delta, cand_et, reference_report, shape, short_circuit_verdict

MODES = ("actual", "h1")
BOUNDS_FILES = {
    "final_bounds": "final-bounds",
    "final_bounds_relaxed": "final-bounds",
    "xy": "xy",
    "k_nonpositive": "knonpos",
    "fiber_pairs": "fiber-pairs",
}


def survivors(hits, names, mode):
    """The results of the hits ``decide`` keeps, in the order of its indices."""
    return [hits[i][3] for i in decide(hits, names, mode)]


def one_hit(record, twigs, eshape, names, mode):
    """``decide`` on one hit in a :class:`Hits`: whether the hit passes
    ``names``."""
    cand = BoundaryCandidate(record.b, twigs, eshape)
    return survivors(Hits([(record, twigs, eshape, cand)]), names, mode) == [cand]


def verdict(cand, names, mode):
    """The verdict of a candidate, with the record the searches hand it."""
    return one_hit(fork_invariants(cand.fork), cand.twigs, cand.eshape, names, mode)


def test_reports_match_the_reference_on_a_sweep():
    # the twig triples of d <= 7 with b = 0..3, both group-order modes and a
    # shape that varies along the sweep; e~ = b and delta = 1 are the two
    # degenerate cases of zar_bk2.  Every catalog shape has K.E + 2 eps <= 5
    # but [4] with eps = 2, so every fifth triple raises its shape's K.E.
    twigs = [ws for dd in range(2, 8) for ws in chains.oriented_chains_with_d(dd)]
    shapes = eshape_catalog(8)
    seen = Counter()
    for i, triple in enumerate(combinations_with_replacement(twigs, 3)):
        for b in (0, 1, 2, 3):
            es = shapes[(7 * i + b) % len(shapes)]
            if i % 5 == 0:
                es = es._replace(ke=es.ke + 3)
            cand = BoundaryCandidate(b, triple, es)
            for mode in MODES:
                want = reference_report(cand, mode)
                assert evaluate_predicates(cand, group_order_mode=mode).to_dict() == want.to_dict()
                seen.update((name, ok) for name, (ok, _) in want.entries.items())
            seen["e~ = b"] += cand_et(cand) == b
            seen["delta = 1"] += cand_delta(cand) == 1
    # every predicate both passes and fails somewhere in the sweep
    assert all(seen[name, ok] for name in PREDICATE_NAMES for ok in (True, False)), seen
    assert seen["e~ = b"] and seen["delta = 1"]


@pytest.mark.parametrize(
    "twigs, mode, error",
    [
        (((1, 1), (2,), (3,)), "actual", DegenerateChainError),
        (((), (2,), (3,)), "actual", ValueError),
        (((2,), (2,), (3,)), "abelian", ValueError),
    ],
)
def test_bad_candidates_fail_alike(twigs, mode, error):
    cand = BoundaryCandidate(2, twigs, shape("[4]", 1))
    with pytest.raises(error) as want:
        reference_report(cand, mode)
    message = re.escape(str(want.value))
    with pytest.raises(error, match=message):
        evaluate_predicates(cand, group_order_mode=mode)
    for names in ((), PREDICATE_NAMES):
        with pytest.raises(error, match=message):
            verdict(cand, names, mode)


def test_an_unknown_group_order_mode_is_refused_before_any_test():
    # decide refuses the mode itself, so a call with no hit to test fails
    # as one with tests does, and keeps no table under the mode
    hits = Hits([])
    for names in ((), PREDICATE_NAMES):
        with pytest.raises(ValueError, match="unknown group order mode 'abelian'"):
            decide(hits, names, "abelian")
    assert hits.verdicts == {}


def test_a_negative_twig_product_is_refused():
    # the integer tests multiply through by D = d1*d2*d3 > 0; a twig of
    # negative discriminant, here d([1,1,1]) = -1, is no admissible twig
    cand = BoundaryCandidate(2, ((1, 1, 1), (2,), (3,)), shape("[4]", 1))
    assert fork_invariants(cand.fork).D == -6
    with pytest.raises(ValueError, match="positive product"):
        evaluate_predicates(cand)


def is_eps2_chain(eshape):
    """Whether the epsilon = 2 exclusion drops a survivor of shape ``eshape``."""
    return not eshape.is_fork and eshape.epsilon == 2


def record_hits(runs):
    """Every (fork record, candidate, group-order mode) the verdict decides
    in the search ``name`` on ``cfg`` for each (name, cfg) of ``runs``: each
    hit of its box's join."""
    hits = []
    for name, cfg in runs:
        spec = parse_bounds(name, cfg)
        for joined in _join(name, _written(cfg)):
            for record, twigs, eshape, _ in joined:
                hits.append((record, BoundaryCandidate(record.b, twigs, eshape),
                             spec.group_order_mode))
    return hits


@pytest.fixture(scope="module")
def probe_hits():
    """The hits of the searches of the five bounds files, with each file's
    predicate list."""
    cfgs = {name: load_bounds(name) for name in BOUNDS_FILES}
    hits = record_hits((BOUNDS_FILES[name], cfg) for name, cfg in cfgs.items())
    return hits, [tuple(cfg["predicates"]) for cfg in cfgs.values()]


def test_the_searches_hand_the_verdict_the_record_of_each_hit(probe_hits):
    hits, _ = probe_hits
    assert len(hits) > 900
    for record, cand, _ in hits:
        assert record == fork_invariants(cand.fork), cand


def test_reports_match_the_reference_on_every_probe_hit(probe_hits):
    hits, lists = probe_hits
    assert len(hits) > 900
    for _, cand, mode in hits:
        assert evaluate_predicates(cand, group_order_mode=mode).to_dict() == (
            reference_report(cand, mode).to_dict()
        )


def test_the_verdict_matches_the_reference_on_every_probe_hit(probe_hits):
    hits, lists = probe_hits
    rng = random.Random(16)
    subsets = [tuple(rng.sample(PREDICATE_NAMES, k)) for k in (1, 2, 3, 5, 8, 13, 16)]
    verdicts = {True: 0, False: 0}
    for record, cand, mode in hits:
        want = reference_report(cand, mode)
        for names in lists + subsets:
            got = one_hit(record, cand.twigs, cand.eshape, names, mode)
            assert got == want.passes(names), (cand, names)
            verdicts[got] += 1
    assert all(verdicts.values()), verdicts


def test_each_verdict_matches_the_reference_on_widened_boxes():
    # the xy box to z_max 150 and the final-bounds rule (2, 3..5, z) to
    # z_max 84, each join hit, the epsilon = 2 chains among them, decided
    # one predicate at a time in both group-order modes
    xy = load_bounds("xy")
    final = load_bounds("final_bounds")
    final["catalog_max_size"] = 100
    assert final["d_rules"][1]["x"] == 2
    final["d_rules"][1]["z_max"] = 84
    xy_hits = record_hits([("xy", dict(xy, z_max=150))])
    final_hits = record_hits([("final-bounds", final)])
    assert (len(xy_hits), len(final_hits)) == (569, 875)
    outcomes = Counter()
    for record, cand, _ in xy_hits + final_hits:
        for mode in MODES:
            want = reference_report(cand, mode).entries
            for name in PREDICATE_NAMES:
                got = one_hit(record, cand.twigs, cand.eshape, (name,), mode)
                assert got == want[name][0], (cand, mode, name)
                outcomes[got] += 1
    assert outcomes[True] and outcomes[False], outcomes


# ---------------------------------------------------------------------------
# the verdict tables: each (hit, predicate, group-order mode) tested at most
# once per joined box

CHECKED_IN = [(search, name) for name, search in BOUNDS_FILES.items()]


@pytest.fixture
def tested(monkeypatch):
    """A Counter of the (name, record, twigs, shape, |G|) each PREDICATES
    test is asked, whoever asks it."""
    calls = Counter()
    for name, row in PREDICATES.items():
        def counted(record, twigs, eshape, g, name=name, test=row.test):
            calls[name, record, twigs, eshape, g] += 1
            return test(record, twigs, eshape, g)
        monkeypatch.setitem(dgk_predicates.PREDICATES, name, row._replace(test=counted))
    return calls


def search_run(name, cfg):
    """The decided lists of the search ``name`` on ``cfg``, through the one
    route parse, join, decide (xy's report would ask the tests again)."""
    return [[hits[i][3] for i in kept] for hits, kept in _decided(name, cfg)[1]]


@pytest.mark.parametrize("name, file_name", CHECKED_IN, ids=[f for _, f in CHECKED_IN])
def test_a_cold_decide_makes_the_tests_of_the_short_circuit_route(tested, name, file_name):
    spec = parse_bounds(name, load_bounds(file_name))
    _join.cache_clear()
    found = search_run(name, load_bounds(file_name))
    cold = Counter(tested)
    tested.clear()
    for joined, got in zip(_join(name, _written(load_bounds(file_name))), found, strict=True):
        assert joined.verdicts  # the join's hits keep the tables the call filled
        passed = [
            result for record, twigs, eshape, result in joined
            if short_circuit_verdict(record, twigs, eshape, spec.predicates,
                                     spec.group_order_mode)
            and not (spec.exclude_eps2_chains and is_eps2_chain(eshape))
        ]
        assert got == sorted(passed, key=lambda result: result.sort_key())
    assert cold and cold == tested and set(cold.values()) == {1}, file_name


@pytest.mark.parametrize("name, file_name", CHECKED_IN, ids=[f for _, f in CHECKED_IN])
def test_a_decided_list_or_its_prefix_makes_no_test(tested, name, file_name):
    # a prefix of a decided list meets, on each hit, the tests the list made
    # up to the hit's first failure; a scan's list must name the index
    # predicates, so its prefixes start at the last of them
    cfg = load_bounds(file_name)
    names = cfg["predicates"]
    first = 0 if name == "fiber-pairs" else 1 + max(map(names.index, INDEX_PREDICATES))
    prefixes = [dict(cfg, predicates=names[:k]) for k in range(first, len(names) + 1)]
    _join.cache_clear()
    want = search_run(name, cfg)
    assert tested
    tested.clear()
    assert search_run(name, cfg) == want
    warm = [search_run(name, prefix) for prefix in prefixes]
    assert not tested, file_name
    assert _join.cache_info().misses == 1
    for prefix, got in zip(prefixes, warm):
        _join.cache_clear()
        assert search_run(name, prefix) == got, (file_name, prefix["predicates"])


@pytest.mark.parametrize("name, file_name", CHECKED_IN, ids=[f for _, f in CHECKED_IN])
def test_no_hit_is_tested_twice_on_one_predicate(tested, name, file_name):
    # seeded lists of any order in either mode on one joined box: each
    # (hit, predicate) is tested at most once per mode, and each result is
    # that of a cold join
    cfg = load_bounds(file_name)
    rng = random.Random(file_name)
    others = [p for p in PREDICATE_NAMES if p not in INDEX_PREDICATES]
    base = [] if name == "fiber-pairs" else list(INDEX_PREDICATES)
    _join.cache_clear()
    variants = []
    for mode in MODES:
        tested.clear()
        for _ in range(3):
            names = base + rng.sample(others, rng.randrange(len(others)))
            rng.shuffle(names)
            variant = dict(cfg, predicates=names, group_order_mode=mode)
            variants.append((variant, search_run(name, variant)))
        assert tested and set(tested.values()) == {1}, (file_name, mode)
    assert _join.cache_info().misses == 1
    for variant, got in variants:
        _join.cache_clear()
        assert search_run(name, variant) == got


@pytest.fixture
def fresh_joins():
    """A fresh :class:`Hits` copy of each output list of the five bounds
    files' joins, kept across the examples of a test, and a memo of the
    reference verdicts of their hits."""
    lists = []
    for file_name, name in BOUNDS_FILES.items():
        lists += [Hits(joined) for joined in _join(name, _written(load_bounds(file_name)))]
    return lists, {}


@settings(derandomize=True, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_the_masks_decide_as_the_short_circuit_route(tested, fresh_joins, data):
    # random name orders and modes on kept joins: the result is the
    # short-circuit route's, each tested bit's passed bit is the predicate's
    # own verdict, and no (hit, name, mode) is tested twice
    lists, reference = fresh_joins
    k = data.draw(st.integers(0, len(lists) - 1), label="list")
    hits = lists[k]
    mode = data.draw(st.sampled_from(MODES), label="mode")
    order = data.draw(st.permutations(PREDICATE_NAMES), label="order")
    names = tuple(order[:data.draw(st.integers(0, len(order)), label="count")])
    before = Counter(tested)
    got = survivors(hits, names, mode)
    made = Counter(tested)
    made.subtract(before)
    made = +made
    # each call counted here is this example's, on list k in this mode
    seen = reference.setdefault(("made", k, mode), Counter())
    seen.update(made)
    assert set(seen.values()) <= {1}, (k, mode)
    want = [hit[3] for hit in hits if short_circuit_verdict(*hit[:3], names, mode)]
    assert got == sorted(want, key=lambda result: result.sort_key())
    tables = hits.verdicts[mode]  # every decide keeps its mode's masks
    for name in names:
        tested_bits, passed_bits = tables.get(name, (0, 0))  # a name not reached has none
        for i in range(len(hits)):
            if tested_bits >> i & 1:
                key = (k, i, mode)
                if key not in reference:
                    record, twigs, eshape, _ = hits[i]
                    reference[key] = reference_report(
                        BoundaryCandidate(record.b, twigs, eshape), mode).entries
                assert bool(passed_bits >> i & 1) == reference[key][name][0], (k, i, name)
            else:
                assert not passed_bits >> i & 1, (k, i, name)


@pytest.mark.parametrize("file_name, name", BOUNDS_FILES.items(), ids=list(BOUNDS_FILES))
def test_the_hits_come_sorted_and_decide_keeps_their_order(file_name, name):
    # a Hits sorts what it is built from by the results' sort keys, so a
    # shuffled copy of a join list builds the join's Hits; decide's indices
    # come ascending, which is the sorted order of the results, in both
    # modes
    spec = parse_bounds(name, load_bounds(file_name))
    rng = random.Random(file_name)
    for joined in _join(name, _written(load_bounds(file_name))):
        shuffled = list(joined)
        rng.shuffle(shuffled)
        assert Hits(shuffled) == joined, file_name
        for mode in MODES:
            got = decide(joined, spec.predicates, mode)
            assert got == sorted(got), (file_name, mode)
            results = [joined[i][3] for i in got]
            assert results == sorted(results, key=lambda result: result.sort_key())


MODE_LISTS = [
    ("knonpos", load_bounds("k_nonpositive")),
    ("final-bounds", dict(load_bounds("final_bounds"),
                          predicates=[*INDEX_PREDICATES, "bmy"])),
]


@pytest.mark.parametrize("name, cfg", MODE_LISTS, ids=[name for name, _ in MODE_LISTS])
def test_the_tables_of_one_mode_do_not_decide_the_other(name, cfg):
    cold = {}
    for mode in MODES:
        _join.cache_clear()
        cold[mode] = search_run(name, dict(cfg, group_order_mode=mode))
    assert cold["h1"] != cold["actual"], name  # the group order reaches the output
    for order in (MODES, MODES[::-1]):
        _join.cache_clear()
        for mode in order:
            assert search_run(name, dict(cfg, group_order_mode=mode)) == cold[mode], (order, mode)


@pytest.mark.parametrize("name, file_name", CHECKED_IN[:4], ids=[f for _, f in CHECKED_IN[:4]])
def test_toggling_the_eps2_exclusion_on_a_joined_box(name, file_name):
    # the exclusion drops survivors after the walk, so the tables decided
    # under one setting serve the other
    cold = {}
    for flag in (True, False):
        _join.cache_clear()
        cold[flag] = search_run(name, dict(load_bounds(file_name), exclude_eps2_chains=flag))
    assert cold[True] != cold[False], file_name
    _join.cache_clear()
    for flag in (True, False, True, False):
        got = search_run(name, dict(load_bounds(file_name), exclude_eps2_chains=flag))
        assert got == cold[flag], (file_name, flag)
    assert _join.cache_info().misses == 1


def test_ke_holds_on_every_catalog_family():
    # K.E + 2 eps <= 5 but for [4] with eps = 2, the b4 family, so the ke
    # row fails on no catalog shape.  A chain family's K.E is fixed by its
    # weights other than 2; a fork's is that of its branch and twigs, since
    # the stripped components are (-2)-curves, and its family's constant.
    specs = family_specs(60)
    for family in {spec[0] for spec in specs if not spec[0].branch}:
        total = family.ke + 2 * family.epsilon
        assert total <= 5 or (family.name, total) == ("b4", 6), family
    forks = [(spec[0], _spec_graph(spec)) for spec in specs if spec[0].branch]
    assert {family.name for family, _ in forks} == {"b1", "b2"}
    for family, fork in forks:
        ke = fork.b - 2 + sum(w - 2 for t in fork.twigs for w in t)
        assert ke + 2 * family.epsilon <= 5, fork
        assert ke == family.ke, fork
    for es in eshape_catalog(12):
        if es.is_fork:
            assert es.ke == es.graph.b - 2 + sum(w - 2 for t in es.graph.twigs for w in t)


@pytest.mark.parametrize("file_name, name", BOUNDS_FILES.items(), ids=list(BOUNDS_FILES))
def test_the_eps2_exclusion_drops_the_eps2_chains_from_the_survivors(file_name, name):
    # with the flag set, _decide keeps what it keeps without it, less the
    # hits whose shape is a chain of epsilon 2, in both modes
    spec = parse_bounds(name, load_bounds(file_name))
    dropped = 0
    for joined in _join(name, _written(load_bounds(file_name))):
        for mode in MODES:
            plain, excluding = (
                _decide(joined, spec._replace(group_order_mode=mode, exclude_eps2_chains=flag))
                for flag in (False, True)
            )
            want = [i for i in plain if not is_eps2_chain(joined[i][2])]
            assert excluding == want, (file_name, mode)
            dropped += len(plain) - len(want)
    assert dropped or name == "fiber-pairs", file_name
