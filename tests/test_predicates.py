"""The predicate table against its oracle, the suite as one function.

``reference.reference_report`` evaluates every predicate in turn in
``Fraction`` arithmetic, as the package once did.  The table must give the
same report, entry by entry and witness by witness, and its integer verdict
``passes`` the report's verdict, predicate by predicate.
"""

import random
import re
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from dgk import chains
from dgk import predicates as dgk_predicates
from dgk.barks import (
    DegenerateChainError,
    _spec_graph,
    eshape_catalog,
    family_specs,
    fork_invariants,
)
from dgk.predicates import PREDICATE_NAMES, BoundaryCandidate, evaluate_predicates, passes
from dgk.search import (
    load_bounds,
    search_fiber_pairs,
    search_final_bounds,
    search_k_nonpositive,
    search_xy,
)
from reference import cand_delta, cand_et, reference_report, shape

MODES = ("actual", "h1")
BOUNDS_FILES = {
    "final_bounds": search_final_bounds,
    "final_bounds_relaxed": search_final_bounds,
    "xy": search_xy,
    "k_nonpositive": search_k_nonpositive,
    "fiber_pairs": search_fiber_pairs,
}


def verdict(cand, names, mode):
    """``passes`` on a candidate, with the record the searches hand it."""
    return passes(fork_invariants(cand.fork), cand.twigs, cand.eshape, names,
                  group_order_mode=mode)


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
    with pytest.raises(error, match=message):
        verdict(cand, (), mode)


def test_a_negative_twig_product_is_refused():
    # the integer tests multiply through by D = d1*d2*d3 > 0; a twig of
    # negative discriminant, here d([1,1,1]) = -1, is no admissible twig
    cand = BoundaryCandidate(2, ((1, 1, 1), (2,), (3,)), shape("[4]", 1))
    assert fork_invariants(cand.fork).D == -6
    with pytest.raises(ValueError, match="positive product"):
        evaluate_predicates(cand)


def record_hits(runs):
    """Every (fork record, candidate, group-order mode) the verdict decides
    in ``search(cfg)`` for each (search, cfg) of ``runs``."""
    hits = []
    with pytest.MonkeyPatch.context() as mp:

        def recording(record, twigs, eshape, names, *, group_order_mode):
            hits.append((record, BoundaryCandidate(record.b, twigs, eshape), group_order_mode))
            return passes(record, twigs, eshape, names, group_order_mode=group_order_mode)

        mp.setattr(dgk_predicates, "passes", recording)
        for search, cfg in runs:
            search(cfg)
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
            got = passes(record, cand.twigs, cand.eshape, names, group_order_mode=mode)
            assert got == want.passes(names), (cand, names)
            verdicts[got] += 1
    assert all(verdicts.values()), verdicts


def test_each_verdict_matches_the_reference_on_widened_boxes():
    # the xy box to z_max 150 and the final-bounds rule (2, 3..5, z) to
    # z_max 84, each hit decided one predicate at a time in both
    # group-order modes
    xy = load_bounds("xy")
    final = load_bounds("final_bounds")
    final["catalog_max_size"] = 100
    assert final["d_rules"][1]["x"] == 2
    final["d_rules"][1]["z_max"] = 84
    xy_hits = record_hits([(search_xy, dict(xy, z_max=150))])
    final_hits = record_hits([(search_final_bounds, final)])
    assert (len(xy_hits), len(final_hits)) == (471, 730)
    outcomes = Counter()
    for record, cand, _ in xy_hits + final_hits:
        for mode in MODES:
            want = reference_report(cand, mode).entries
            for name in PREDICATE_NAMES:
                got = passes(record, cand.twigs, cand.eshape, (name,), group_order_mode=mode)
                assert got == want[name][0], (cand, mode, name)
                outcomes[got] += 1
    assert outcomes[True] and outcomes[False], outcomes


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
