from math import gcd

import pytest

from dgk.graphs import parse_chain
from dgk.pairs import (
    CharPairSeq,
    FiberTree,
    PairSequenceError,
    _fiber_size,
    mu_sums,
    pairs_from_fiber,
    reconstruct_fiber,
)
from dgk.ruling import RulingFiber
from reference import WeightedTree, all_sequences, chain_weights, mu_trace


def test_sequence_validation():
    CharPairSeq(((14, 3),))
    CharPairSeq(((4, 2), (2, 1)))
    CharPairSeq(((1, 0),))
    with pytest.raises(PairSequenceError):
        CharPairSeq(((3, 4),))
    with pytest.raises(PairSequenceError):
        CharPairSeq(((4, 2), (3, 1)))
    with pytest.raises(PairSequenceError):
        CharPairSeq(((4, 2),))
    with pytest.raises(PairSequenceError):
        CharPairSeq(((3, 0),))


def test_smooth_fiber():
    tree = reconstruct_fiber(((1, 0),))
    assert chain_weights(tree) == (0,)
    assert tree.neg_curve is None
    assert pairs_from_fiber(tree).pairs == ((1, 0),)
    # a lone curve is a fiber only as the 0-curve of multiplicity 1
    for field, value, got in (("mults", 2, "0:2"), ("weights", 1, "1:1")):
        bad = reconstruct_fiber(((1, 0),))
        getattr(bad, field)[0] = value
        with pytest.raises(ValueError, match=f"must be the 0-curve 0:1, got {got}"):
            pairs_from_fiber(bad)


@pytest.mark.parametrize("k", range(2, 21))
def test_single_pair_families(k):
    tree = reconstruct_fiber(((k, 1),))
    assert chain_weights(tree) == (k, 1) + (2,) * (k - 1)
    assert tree.mults[tree.neg_curve] == k
    tree = reconstruct_fiber(((k, k - 1),))
    assert chain_weights(tree) == (2,) * (k - 1) + (1, k)
    assert tree.mults[tree.neg_curve] == k


def test_fourteen_three():
    tree = reconstruct_fiber(((14, 3),))
    assert chain_weights(tree) == parse_chain("[5,3,1,2,3,(3)]")
    assert tree.mults[tree.neg_curve] == 14
    order = tree.chain_order()
    assert tuple(tree.mults[v] for v in order) == (1, 5, 14, 9, 4, 3, 2, 1)
    assert pairs_from_fiber(tree).pairs == ((14, 3),)


def test_fiber_properties():
    for seq in (((14, 3),), ((6, 4), (2, 1)), ((12, 8), (4, 2), (2, 1))):
        tree = reconstruct_fiber(seq)
        # a complete fiber has discriminant zero
        assert WeightedTree.from_fiber(tree).discriminant() == 0
        # the (-1)-curve carries multiplicity c1
        assert tree.mults[tree.neg_curve] == seq[0][0]
        # the (-1)-curve is the only weight-1 component besides possibly U
        ones = [v for v in range(1, len(tree)) if tree.weights[v] == 1]
        assert ones == [tree.neg_curve]
        # fiber relations: weight * mult equals the sum of neighbour mults
        for v in range(len(tree)):
            assert tree.weights[v] * tree.mults[v] == sum(
                tree.mults[u] for u in tree.adj[v]
            )
        # in an unbranched fiber both tips have multiplicity one
        if tree.is_chain():
            ms = [tree.mults[v] for v in tree.chain_order()]
            assert ms[0] == 1 and ms[-1] == 1


def test_round_trip_exhaustive_small():
    count = 0
    for seq in all_sequences(30, 4):
        tree = reconstruct_fiber(seq)
        assert pairs_from_fiber(tree).pairs == seq, seq
        count += 1
    assert count == 3728


def test_u_is_a_tip_and_chains_are_read_from_it():
    # FiberTree.chain_order starts its one walk at U, so every rebuilt fiber
    # must have U at a tip; the order it reads is a Hamiltonian path from U
    count = 0
    for seq in [((1, 0),), *all_sequences(40, 4)]:
        tree = reconstruct_fiber(seq)
        n = len(tree)
        assert len(tree.adj[0]) == (n > 1), seq
        if tree.is_chain():
            order = tree.chain_order()
            assert order[0] == 0 and sorted(order) == list(range(n)), seq
            steps = {frozenset(step) for step in zip(order, order[1:])}
            assert steps == {frozenset((a, b)) for a in range(n) for b in tree.adj[a]}, seq
            count += 1
    assert count == 1958


def test_path_refuses_what_is_not_a_chain_off_the_anchor():
    # hand-built trees: the chain 1 - 0 - 2 with U inside it, then 0 - 1
    # with 1 forking to 2 and 3, then the chain 0 - 1 - 2 - 3
    tree = FiberTree()
    for _ in range(4):
        tree.add_node(2, 1, 0)
    tree.connect(0, 1)
    tree.connect(0, 2)
    with pytest.raises(ValueError, match="not a chain hanging off the anchor"):
        tree.chain_order()
    assert tree.path(0, {2}) == [2]
    tree.disconnect(0, 2)
    tree.connect(1, 2)
    tree.connect(1, 3)
    with pytest.raises(ValueError, match="not a path"):
        tree.path(0, {1, 2, 3})
    tree.disconnect(1, 3)
    tree.connect(2, 3)
    assert tree.path(0, {1, 2, 3}) == [1, 2, 3]
    with pytest.raises(ValueError, match="not connected"):
        tree.path(0, {1, 3})
    assert tree.path(0, set()) == []


def test_fiber_size_counts_the_curves_built():
    # the bound on reconstruct_fiber reads the size off the pairs alone
    for seq in [((1, 0),), *all_sequences(30, 3), ((1200, 1),), ((3000, 2999),)]:
        assert _fiber_size(CharPairSeq(seq)) == len(reconstruct_fiber(seq)), seq


NOT_A_FIBER = "tree is not the fiber of any pair sequence"


@pytest.mark.parametrize("seq", [((1200, 1),), ((3000, 2999),)])
def test_round_trip_long_fibers(seq):
    # a few thousand curves: the inverse walks without recursing
    assert pairs_from_fiber(reconstruct_fiber(seq)).pairs == seq


def test_raising_one_weight_or_multiplicity_is_rejected():
    count = 0
    for seq in all_sequences(20, 3):
        for field in ("weights", "mults"):
            for v in range(len(reconstruct_fiber(seq))):
                tree = reconstruct_fiber(seq)
                getattr(tree, field)[v] += 1
                with pytest.raises(ValueError, match=NOT_A_FIBER):
                    pairs_from_fiber(tree)
                count += 1
    assert count > 10000


@pytest.mark.parametrize("seq", [((1, 1),), ((14, 3),), ((6, 4), (2, 1))])
def test_zero_multiplicity_is_rejected(seq):
    for v in range(len(reconstruct_fiber(seq))):
        tree = reconstruct_fiber(seq)
        tree.mults[v] = 0
        with pytest.raises(ValueError, match=NOT_A_FIBER):
            pairs_from_fiber(tree)


@pytest.mark.parametrize("seq", [((14, 3),), ((12, 8), (4, 2), (2, 1))])
def test_extra_edge_making_a_cycle_is_rejected(seq):
    tree = reconstruct_fiber(seq)
    far = max(range(len(tree)), key=lambda v: (len(tree.adj[v]) == 1, v))
    for v in range(len(tree)):
        if v != far and v not in tree.adj[far]:
            cyclic = reconstruct_fiber(seq)
            cyclic.connect(v, far)
            with pytest.raises(ValueError, match=NOT_A_FIBER):
                pairs_from_fiber(cyclic)


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def pair_sequences(draw):
    c = draw(st.integers(1, 60))
    seq = []
    while True:
        p = draw(st.integers(1, c))
        seq.append((c, p))
        g = gcd(c, p)
        if g == 1:
            break
        if len(seq) >= 4:
            seq.append((g, 1))
            break
        c = g
    return tuple(seq)


@given(pair_sequences())
@settings(max_examples=300, deadline=None)
def test_round_trip_random_deeper(seq):
    tree = reconstruct_fiber(seq)
    assert pairs_from_fiber(tree).pairs == seq


def test_mu_trace_and_sums():
    assert mu_trace(14, 3) == [3, 3, 3, 3, 2, 1, 1]
    assert mu_sums(14, 3) == (1, 16, 42)
    assert mu_sums(7, 7) == (7, 7, 49)
    assert mu_sums(9, 1) == (1, 9, 9)
    for c in range(1, 61):
        for p in range(1, c + 1):
            g, s1, s2 = mu_sums(c, p)
            assert g == gcd(c, p) and s1 == c + p - g and s2 == c * p
            # the closed forms against the simulated trace
            trace = mu_trace(c, p)
            assert (s1, s2) == (sum(trace), sum(m * m for m in trace))
    for c, p in ((2, 3), (3, 0), (0, 0)):
        with pytest.raises(ValueError):
            mu_sums(c, p)


def test_fiber_numerics():
    # kappa = c_h CE + c_h' and rho = kappa CE + c_h' CE + c_h' of a fiber,
    # with c_h' = c_h - i0, or 0 when i0 = 0
    fiber = RulingFiber(((4, 1),), 1, 0, 2)
    assert (fiber.c_h_prime, fiber.kappa, fiber.rho) == (0, 2, 4)
    assert fiber.rho == fiber.kappa**2  # no boundary curves in the fiber

    fiber2 = RulingFiber(((2, 1),), 2, 1, 1)
    assert fiber2.full_pairs() == CharPairSeq(((4, 2), (2, 1)))
    assert (fiber2.c_h_prime, fiber2.kappa, fiber2.rho) == (1, 3, 5)
    assert 2 * fiber2.rho == fiber2.kappa**2 + 1  # single boundary curve
    assert fiber2.uc1 * fiber2.kappa == 2 * 3

    assert RulingFiber(((4, 1),), 1, 0, 1).kappa == 1

    with pytest.raises(ValueError, match="i0 = 0 requires c_h = 1"):
        RulingFiber(((2, 1),), 2, 0, 1)
    with pytest.raises(ValueError, match=r"i0 must lie in 1\.\.1, got 2"):
        RulingFiber(((2, 1),), 2, 2, 1)
    with pytest.raises(ValueError, match="CE must be nonnegative"):
        RulingFiber(((4, 1),), 1, 0, -1)


def test_rho_at_most_kappa_squared():
    for c_h in range(1, 8):
        for CE in range(0, 5):
            for i0 in range(0, c_h):
                if (i0 == 0) != (c_h == 1):
                    continue
                fiber = RulingFiber(((3, 1),), c_h, i0, CE)
                assert fiber.full_pairs().pairs == ((3 * c_h, c_h), (c_h, 1))
                assert fiber.rho <= fiber.kappa**2
                chp = c_h - i0 if i0 else 0
                assert fiber.kappa == c_h * CE + chp
                assert fiber.rho == fiber.kappa * CE + chp * CE + chp
