"""The predicate table against its oracle, the suite as one function.

``reference.reference_report`` evaluates every predicate in turn, as the
package once did.  The table must give the same report, entry by entry and
witness by witness, and its verdict ``passes`` the report's verdict.
"""

import random
import re
from collections import Counter
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

from dgk import chains
from dgk import ruling as dgk_ruling
from dgk import search as dgk_search
from dgk.barks import DegenerateChainError, eshape_catalog, family_specs
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
                es = replace(es, ke=es.ke + 3)
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
        passes(cand, (), group_order_mode=mode)


@pytest.fixture(scope="module")
def probe_hits():
    """Every (candidate, group-order mode) the verdict decides in the
    searches of the five bounds files, with each file's predicate list."""
    hits, lists = [], []
    with pytest.MonkeyPatch.context() as mp:

        def recording(cand, names, *, group_order_mode):
            hits.append((cand, group_order_mode))
            return passes(cand, names, group_order_mode=group_order_mode)

        mp.setattr(dgk_search, "passes", recording)
        mp.setattr(dgk_ruling, "passes", recording)
        for name, search in BOUNDS_FILES.items():
            cfg = load_bounds(name)
            lists.append(tuple(cfg["predicates"]))
            search(cfg)
    return hits, lists


def test_reports_match_the_reference_on_every_probe_hit(probe_hits):
    hits, lists = probe_hits
    assert len(hits) > 900
    for cand, mode in hits:
        assert evaluate_predicates(cand, group_order_mode=mode).to_dict() == (
            reference_report(cand, mode).to_dict()
        )


def test_the_verdict_matches_the_reference_on_every_probe_hit(probe_hits):
    hits, lists = probe_hits
    rng = random.Random(16)
    subsets = [tuple(rng.sample(PREDICATE_NAMES, k)) for k in (1, 2, 3, 5, 8, 13, 16)]
    verdicts = {True: 0, False: 0}
    for cand, mode in hits:
        want = reference_report(cand, mode)
        for names in lists + subsets:
            verdict = passes(cand, names, group_order_mode=mode)
            assert verdict == want.passes(names), (cand, names)
            verdicts[verdict] += 1
    assert all(verdicts.values()), verdicts


def test_ke_holds_on_every_catalog_family():
    # K.E + 2 eps <= 5 but for [4] with eps = 2, the b4 family, so the ke
    # row fails on no catalog shape.  A chain family's K.E is fixed by its
    # weights other than 2; a fork's is that of its branch and twigs, since
    # the stripped components are (-2)-curves.
    specs = family_specs(60)
    for family in {spec[0] for spec in specs if spec[0].weights}:
        total = family.ke + 2 * family.epsilon
        assert total <= 5 or (family.name, total) == ("b4", 6), family
    forks = [(spec[0], spec[1]) for spec in specs if not spec[0].weights]
    assert {family.name for family, _ in forks} == {"b1", "b2"}
    for family, fork in forks:
        ke = fork.b - 2 + sum(w - 2 for t in fork.twigs for w in t)
        assert ke + 2 * family.epsilon <= 5, fork
    for es in eshape_catalog(12):
        if es.is_fork:
            assert es.ke == es.graph.b - 2 + sum(w - 2 for t in es.graph.twigs for w in t)
