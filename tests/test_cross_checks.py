"""Independent-route cross-checks on the search outputs.

Every candidate in the golden files is re-verified here through routes the
searches themselves do not use: boundary discriminants via the tree
determinant instead of the twig product, bark squares via the exact linear
solve instead of the closed form.
"""

import json
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from dgk import chains
from dgk.graphs import Fork, parse_chain
from dgk.predicates import BoundaryCandidate, evaluate_predicates
from dgk.search import GOLDEN_FILES, load_bounds
from reference import WeightedTree, reference_bark_chain, reference_bark_fork, shape

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "src" / "dgk" / "golden"


def golden_candidates():
    out = []
    xy = json.loads((GOLDEN_DIR / GOLDEN_FILES["xy"]).read_text())
    out.extend(xy)
    kn = json.loads((GOLDEN_DIR / GOLDEN_FILES["knonpos"]).read_text())
    out.extend(kn["case1"])
    out.extend(kn["case2"])
    return out


def test_golden_candidates_survive_independent_routes():
    for raw in golden_candidates():
        twigs = tuple(parse_chain(t) for t in raw["twigs"])
        es = shape(raw["eshape"], raw["epsilon"], size=60)
        cand = BoundaryCandidate(raw["b"], twigs, es)

        # boundary discriminant: twig-product formula vs determinant
        et = sum(chains.e_tilde(t) for t in twigs)
        prod = Fraction(1)
        for t in twigs:
            prod *= chains.d(t)
        d_formula = prod * (raw["b"] - et)
        assert d_formula.denominator == 1
        assert WeightedTree.from_fork(Fork(raw["b"], twigs)).discriminant() == d_formula

        # exceptional bark square: catalog closed form vs linear solve
        if es.is_fork:
            assert reference_bark_fork(es.graph).bk_square == es.bk_square
        else:
            assert reference_bark_chain(es.graph).bk_square == es.bk_square

        # the predicate report agrees with the search's verdict
        mode = "h1" if raw in json.loads(
            (GOLDEN_DIR / GOLDEN_FILES["knonpos"]).read_text()
        ).get("case1", []) else "actual"
        report = evaluate_predicates(cand, group_order_mode=mode)
        assert report.passes(("noether", "zar_b", "zar_delta", "zar_bk2", "square"))


def test_solver_divisibility_invariants():
    from dgk.ruling import solve_two_fiber

    sweep = [
        ws for dd in range(2, 7) for ws in chains.oriented_chains_with_d(dd)
    ]
    for t1 in sweep:
        for t2 in sweep:
            for s in solve_two_fiber(t1, t2, shape("[4]", 1)):
                assert s.d == s.c * s.kappa == s.c_tilde * s.kappa_t
                assert (s.gamma - 2) % gcd(s.kappa, s.kappa_t) == 0
                assert s.rho <= s.kappa**2 and s.rho_t <= s.kappa_t**2


def test_fiber_pair_goldens_rejected_by_gcd():
    got = json.loads((GOLDEN_DIR / GOLDEN_FILES["fiber-pairs"]).read_text())
    assert len(got) == 3
    for s in got:
        assert s["rejected_by_square_gcd"]
        ratio = Fraction(s["minus_dD_over_dE"])
        assert ratio != gcd(s["c"], s["c_tilde"]) ** 2


@given(st.integers(2, 400), st.integers(1, 399))
def test_chain_from_e_random_rationals(q, p):
    if p >= q:
        p = p % q
        if p == 0:
            return
    target = Fraction(p, q)
    ws = chains.chain_from_e(target)
    assert all(w >= 2 for w in ws)
    assert chains.e(ws) == target


def test_bounds_files_parse():
    for name in ("xy", "final_bounds", "final_bounds_relaxed",
                 "k_nonpositive", "fiber_pairs"):
        cfg = load_bounds(name)
        assert cfg["description"]
        assert cfg["predicates"]
        assert cfg["group_order_mode"] in ("actual", "h1")
