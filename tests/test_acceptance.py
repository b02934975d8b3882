"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion carries its stated runtime budget.
"""

import json
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from dgk import chains
from dgk.barks import (
    bark_chain,
    bark_fork,
    bark_one_sided,
    eshape_catalog,
    fork_invariants,
    group_order,
)
from dgk.graphs import Fork, canonical_chain, parse_chain
from dgk.pairs import mu_sums, pairs_from_fiber, reconstruct_fiber
from dgk.ruling import (
    second_fiber_square_branch,
    tail_chain_23_branch,
)
from dgk.search import GOLDEN_FILES, run_search
from reference import (
    WeightedTree,
    all_admissible_chains_up_to,
    all_sequences,
    chain_weights,
    is_admissible_fork,
    mu_trace,
    reference_bark_fork,
    reference_chain_barks,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "src" / "dgk" / "golden"


def report(name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[{status}] {name}: {elapsed:.2f}s (budget {budget}s)")
    assert ok, name
    assert elapsed <= budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"


SMALL_CHAINS = {
    2: [], 3: [], 4: [],
    5: ["[3,2]"],
    6: [],
    7: ["[4,2]", "[3,(2)]"],
    8: ["[3,3]", "[2,3,2]"],
    9: ["[5,2]", "[3,(3)]"],
    10: ["[4,(2)]"],
    11: ["[6,2]", "[4,3]", "[3,(4)]", "[2,3,(2)]"],
}


def test_criterion_1_small_chain_table():
    t0 = time.time()
    ok = True
    for d, extras in SMALL_CHAINS.items():
        expected = {canonical_chain(parse_chain(t)) for t in extras}
        expected |= {canonical_chain((d,)), (2,) * (d - 1)}
        got = set(chains.enumerate_admissible_chains(d))
        ok = ok and got == expected
    ok = ok and len(chains.enumerate_admissible_chains(7)) == 4
    ok = ok and len(chains.enumerate_admissible_chains(11)) == 6
    report("1 small-discriminant chain table", ok, time.time() - t0, 1.0)


def test_criterion_2_pair_reconstruction():
    t0 = time.time()
    ok = True
    tree = reconstruct_fiber(((14, 3),))
    ok = ok and chain_weights(tree) == parse_chain("[5,3,1,2,3,(3)]")
    ok = ok and tree.mults[tree.neg_curve] == 14
    for k in range(2, 21):
        t = reconstruct_fiber(((k, 1),))
        ok = ok and chain_weights(t) == (k, 1) + (2,) * (k - 1)
        t = reconstruct_fiber(((k, k - 1),))
        ok = ok and chain_weights(t) == (2,) * (k - 1) + (1, k)
    count = 0
    for seq in all_sequences(40, 3):
        if pairs_from_fiber(reconstruct_fiber(seq)).pairs != seq:
            ok = False
            break
        count += 1
    ok = ok and count == 3850
    report("2 pair/fiber round trip (c1 <= 40, h <= 3)", ok, time.time() - t0, 10.0)


def test_criterion_3_mu_sum_identities():
    t0 = time.time()
    ok = True
    pairs = 0
    for c in range(1, 61):
        for p in range(1, c + 1):
            g, s1, s2 = mu_sums(c, p)
            trace = mu_trace(c, p)
            ok = ok and s1 == sum(trace) == c + p - gcd(c, p)
            ok = ok and s2 == sum(m * m for m in trace) == c * p
            pairs += 1
    ok = ok and pairs == 1830
    report("3 mu-sum identities on 1830 pairs", ok, time.time() - t0, 5.0)


def test_criterion_4_bark_cross_validation():
    t0 = time.time()
    ok = True
    for ws, full_by_solve, one_by_solve in reference_chain_barks(50):
        full = bark_chain(ws)
        one = bark_one_sided(ws)
        ok = ok and full == full_by_solve
        ok = ok and one == one_by_solve
        ok = ok and full.bk_square >= -2
        ok = ok and ((full.bk_square == -2) == all(w == 2 for w in ws))
        ok = ok and one.bk_square == -chains.e(ws)
    for shape in eshape_catalog(10):
        if shape.is_fork:
            ok = ok and bark_fork(shape.graph) == reference_bark_fork(shape.graph)
    anchor = Fork(2, ((2,), (2,), (3,)))
    ok = ok and bark_fork(anchor).bk_square == Fraction(-3, 2)
    ok = ok and group_order(anchor) == 24
    report("4 bark linear solve vs closed forms (d <= 50)", ok, time.time() - t0, 60.0)


def test_criterion_5_fork_discriminant_and_gate():
    t0 = time.time()
    ok = True
    for shape in eshape_catalog(10):
        if shape.is_fork:
            d = fork_invariants(shape.graph).d
            ok = ok and d == shape.d == WeightedTree.from_fork(shape.graph).discriminant()
            triple = tuple(sorted(chains.d(t) for t in shape.graph.twigs))
            t = tuple(sorted(triple))
            ok = ok and (
                t in ((2, 3, 3), (2, 3, 4), (2, 3, 5)) or t[:2] == (2, 2)
            )
    ok = ok and not is_admissible_fork(Fork(2, ((3,), (3,), (3,))))
    ok = ok and not is_admissible_fork(Fork(1, ((2,), (2,), (2,))))
    report("5 fork discriminant closed form and Platonic gate", ok, time.time() - t0, 30.0)


@pytest.mark.parametrize("name", ["final-bounds", "xy", "knonpos", "fiber-pairs"])
def test_criterion_6_search_goldens(name):
    t0 = time.time()
    got = run_search(name)
    want = json.loads((GOLDEN_DIR / GOLDEN_FILES[name]).read_text())
    ok = got == want
    if name == "final-bounds":
        ok = ok and got["eshapes"] == ["[4]"]
    elif name == "xy":
        ok = ok and len(got) == 3
    elif name == "knonpos":
        ok = ok and len(got["case1"]) == 2 and got["case2"] == []
    else:
        ok = ok and len(got) == 3 and all(s["rejected_by_square_gcd"] for s in got)
    report(f"6 search '{name}' equals golden", ok, time.time() - t0, 300.0)


def test_criterion_7_terminal_eliminations():
    t0 = time.time()
    out = tail_chain_23_branch()
    ok = out["quadratic"] == (3, -7, -46)
    ok = ok and out["solutions"] == [] and not out["square_discriminant"]
    ok = ok and second_fiber_square_branch() == [(5, 4, 9, 4)]
    report("7 terminal Diophantine eliminations", ok, time.time() - t0, 30.0)


def test_criterion_8_adjoint_chains():
    t0 = time.time()
    ok = chains.adjoint_chain((3, 3)) == (2, 3, 2)
    ok = ok and chains.adjoint_chain((2, 4)) == (3, 2, 2)
    for k in range(2, 11):
        ok = ok and chains.adjoint_chain((2,) * (k - 1) + (3,)) == (k + 1, 2)
    for ws in all_admissible_chains_up_to(50):
        ok = ok and chains.adjoint_chain(chains.adjoint_chain(ws)) == ws
    report("8 adjoint chain anchors and involution", ok, time.time() - t0, 30.0)
