import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dgk import chains, search
from dgk.graphs import canonical_chain, parse_chain
from reference import (
    WeightedTree,
    all_admissible_chains_up_to,
    d_second,
    e_by_recurrence,
    oriented_chains_by_walk,
)


def test_the_twig_table_is_the_closed_form_in_k():
    # the table's records of discriminant d are the twigs chain_of(d, k)
    # reversed, by decreasing k coprime to d, and each has d'(rev) = k and
    # d' = k^-1 mod d: the closed form a table solved by congruence reads
    for dd in range(2, 300):
        ks = [k for k in range(dd - 1, 0, -1) if gcd(k, dd) == 1]
        records = search._records_with_d(dd)
        assert [r.ws for r in records] == [chains.chain_of(dd, k)[::-1] for k in ks]
        for k, r in zip(ks, records):
            assert (r.d, r.d_prime_rev) == (dd, k), r
            assert r.d_prime * k % dd == 1, r


def test_d_examples():
    assert chains.d(()) == 1
    assert chains.d((3, 2)) == 5
    assert chains.d((2, 3, 2)) == 8


def test_continuants_are_the_d_of_every_prefix_and_suffix():
    # one pass each way gives chains.d of every prefix and suffix, with the
    # two 0 sentinels, on every oriented twig of d <= 40 and the empty chain
    twigs = [()] + [ws for dd in range(2, 41) for ws in chains.oriented_chains_with_d(dd)]
    for ws in twigs:
        pre, suf = chains.continuants(ws)
        n = len(ws)
        assert len(pre) == len(suf) == n + 2
        assert pre[0] == suf[n + 1] == 0
        assert pre[1:] == [chains.d(ws[:i]) for i in range(n + 1)], ws
        assert suf[:-1] == [chains.d(ws[i:]) for i in range(n + 1)], ws
    assert len(twigs) > 400


def test_d_matches_determinant_exhaustive():
    # every chain with length <= 12 over a small weight alphabet would be
    # huge; sweep lengths <= 5 exhaustively and longer chains at random
    import itertools

    for n in range(0, 6):
        for ws in itertools.product((1, 2, 3, 6), repeat=n):
            assert chains.d(ws) == WeightedTree.from_chain(ws).discriminant()


@given(st.lists(st.integers(1, 6), max_size=12).map(tuple))
def test_d_matches_determinant_random(ws):
    assert chains.d(ws) == WeightedTree.from_chain(ws).discriminant()


def test_d_prime():
    assert chains.d_prime((3, 2)) == 2
    assert chains.d_prime(()) == 0
    assert d_second((2, 3, 2)) == chains.d_prime((3, 2)) == 2
    assert d_second((5,)) == 0


def test_invariants_basic():
    for n in range(1, 8):
        inv = chains.invariants((2,) * n)
        assert inv.e == Fraction(n, n + 1)
        assert inv.delta == Fraction(1, n + 1)
    inv = chains.invariants(parse_chain("[3,2]"))
    assert inv.e_tilde + inv.delta == Fraction(4, 5)
    inv = chains.invariants(parse_chain("[2,3]"))
    assert inv.e_tilde + inv.delta == Fraction(3, 5)


def test_invariants_are_the_chain_record():
    # one record per chain: its fractions are properties of its integers
    for ws in all_admissible_chains_up_to(30):
        inv = chains.invariants(ws)
        assert inv == chains.chain_record(ws)
        assert (inv.d, inv.d_prime, inv.d_prime_rev) == (
            chains.d(ws), chains.d(ws[1:]), chains.d(ws[:-1])
        )
        assert d_second(ws) == (chains.d(ws[2:]) if len(ws) >= 2 else 0)
        assert (inv.e, inv.e_tilde, inv.delta) == (
            chains.e(ws), chains.e_tilde(ws), chains.delta(ws)
        )
    empty = chains.invariants(())
    assert (empty.d, empty.d_prime, empty.e_tilde, d_second(())) == (1, 0, 0, 0)
    with pytest.raises(chains.DegenerateChainError, match=r"chain \[1,1\] has zero"):
        chains.invariants((1, 1))


def test_invariant_bounds_small_chains():
    for ws in all_admissible_chains_up_to(50):
        inv = chains.invariants(ws)
        assert inv.e == e_by_recurrence(ws)
        assert inv.e_tilde == e_by_recurrence(ws[::-1])
        assert inv.d_prime <= inv.d - 1
        assert inv.delta <= inv.e <= 1 - inv.delta


def test_e_two_routes_agree():
    for ws in all_admissible_chains_up_to(50):
        assert chains.e(ws) == e_by_recurrence(ws)


def test_chain_from_e():
    assert chains.chain_from_e(Fraction(3, 5)) == (2, 3)
    for dd in range(2, 12):
        assert chains.chain_from_e(Fraction(1, dd)) == (dd,)
    for n in range(1, 12):
        assert chains.chain_from_e(Fraction(n, n + 1)) == (2,) * n
    with pytest.raises(ValueError):
        chains.chain_from_e(Fraction(5, 4))
    # a float is not exact: 0.1 would be 3602879701896397/2**55
    for value in (0.1, 0.5, 0.0, True, False):
        with pytest.raises(ValueError, match=repr(value)):
            chains.chain_from_e(value)


def test_e_is_a_bijection_d_le_50():
    seen = set()
    for ws in all_admissible_chains_up_to(50):
        val = chains.e(ws)
        assert val not in seen
        seen.add(val)
        assert chains.chain_from_e(val) == ws


def test_adjoint_anchors():
    assert chains.adjoint_chain((3, 3)) == (2, 3, 2)
    assert chains.adjoint_chain((2, 4)) == (3, 2, 2)
    for k in range(2, 11):
        assert chains.adjoint_chain((2,) * (k - 1) + (3,)) == (k + 1, 2)


@pytest.mark.parametrize("ws, text", [((1,), "[1]"), ((3, 1, 2), "[3,1,2]")])
def test_adjoint_of_a_non_admissible_chain_names_it_in_brackets(ws, text):
    with pytest.raises(ValueError, match=re.escape(f"chain {text} is not a nonempty admissible chain")):
        chains.adjoint_chain(ws)


def test_adjoint_is_involution():
    for ws in all_admissible_chains_up_to(50):
        assert chains.adjoint_chain(chains.adjoint_chain(ws)) == ws


@pytest.mark.parametrize("n", [*range(1, 121), 1500])
def test_oriented_chains_with_d_inverts_e(n):
    # the inversion of k/n over gcd(k, n) = 1 lists the same chains as the
    # stack walk of the prepend recursion, in the same order; at n = 1500
    # the chain of 2's has 1499 curves
    got = chains.oriented_chains_with_d(n)
    assert got == oriented_chains_by_walk(n)
    if n == 1500:
        assert len(got) == 400 and (2,) * 1499 in got


@given(st.integers(2, 3000))
def test_oriented_chains_with_d_large(n):
    got = chains.oriented_chains_with_d(n)
    assert len(got) == sum(1 for k in range(1, n) if gcd(k, n) == 1)
    assert all(chains.d(ws) == n and min(ws) >= 2 for ws in got)
    assert len(set(got)) == len(got)
    backwards = [ws[::-1] for ws in got]
    assert backwards == sorted(backwards)


def test_enumerate_small_discriminants():
    assert chains.enumerate_admissible_chains(5) == [(2, 2, 2, 2), (2, 3), (5,)]
    assert chains.enumerate_admissible_chains(7) == [
        (2,) * 6,
        (2, 2, 3),
        (2, 4),
        (7,),
    ]
    assert len(chains.enumerate_admissible_chains(11)) == 6


SMALL_CHAIN_TABLE = {
    2: [],
    3: [],
    4: [],
    5: ["[3,2]"],
    6: [],
    7: ["[4,2]", "[3,(2)]"],
    8: ["[3,3]", "[2,3,2]"],
    9: ["[5,2]", "[3,(3)]"],
    10: ["[4,(2)]"],
    11: ["[6,2]", "[4,3]", "[3,(4)]", "[2,3,(2)]"],
}


def test_small_chain_table_reproduced():
    for dd, extras in SMALL_CHAIN_TABLE.items():
        expected = {canonical_chain(parse_chain(t)) for t in extras}
        expected.add(canonical_chain((dd,)))
        expected.add((2,) * (dd - 1))
        assert set(chains.enumerate_admissible_chains(dd)) == expected


def test_classify_e_plus_alpha_examples():
    assert chains.classify_e_plus_alpha(1)((2,) * 5)
    assert chains.classify_e_plus_alpha(1)(())
    assert chains.classify_e_plus_alpha(2)((2, 2, 3))
    assert not chains.classify_e_plus_alpha(2)((3, 2))
    assert chains.classify_e_plus_alpha(3)((3, 2))
    assert chains.classify_e_plus_alpha(3)((2, 4))
    with pytest.raises(ValueError):
        chains.classify_e_plus_alpha(4)


def test_classify_matches_direct_evaluation():
    for alpha in (1, 2, 3):
        pred = chains.classify_e_plus_alpha(alpha)
        for ws in all_admissible_chains_up_to(60):
            direct = chains.e(ws) + Fraction(alpha, chains.d(ws)) == 1
            assert pred(ws) == direct, (alpha, ws)
        # the empty chain
        assert pred(()) == (Fraction(alpha, 1) == 1)


def test_e_sandwich_for_two_run_prefix():
    # for admissible [(k),c,rest]: bounds from the head of the chain
    import itertools

    for k in range(0, 7):
        for c in range(2, 7):
            for n in range(0, 5):
                for rest in itertools.product((2, 3, 4, 5, 6), repeat=n):
                    ws = (2,) * k + (c,) + rest
                    lo = Fraction(k * (c - 1) + 1, k * (c - 1) + c)
                    hi = Fraction(k * (c - 2) + 1, k * (c - 2) + c - 1)
                    val = chains.e(ws)
                    assert lo <= val < hi, (ws, lo, val, hi)


def test_first_weight_two_identity():
    # d = 2 d' - d'' holds exactly when the first weight is 2
    for ws in all_admissible_chains_up_to(40):
        lhs = chains.d(ws)
        rhs = 2 * chains.d_prime(ws) - d_second(ws)
        if ws[0] == 2:
            assert lhs == rhs
        elif len(ws) >= 1:
            assert (lhs == rhs) == (ws[0] == 2)


def test_degenerate_chain_raises():
    # [1,1] has discriminant 0
    assert chains.d((1, 1)) == 0
    with pytest.raises(chains.DegenerateChainError):
        chains.e((1, 1))


def test_d_of_long_chains():
    # one pass, no recursion: long chains neither overflow the stack nor
    # stay cached
    assert chains.d((2,) * 5000) == 5001
    assert chains.d((3,) + (2,) * 3000) == 2 * 3001 + 1
    assert not hasattr(chains.d, "cache_info")
