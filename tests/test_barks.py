import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd

import pytest

from dgk import chains
from dgk.barks import (
    _B1,
    _B2,
    _FAMILIES,
    SpecIndex,
    _continuants,
    _graph_key,
    _make_shape,
    _slice,
    _slice_continuants,
    _spec_graph,
    bark_chain,
    bark_fork,
    bark_one_sided,
    catalog_index,
    eshape_catalog,
    family_specs,
    fork_invariants,
    fork_sums,
    group_order,
    is_platonic_triple,
    require_admissible_fork,
    shape_of,
)
from dgk.chains import chain_record
from dgk.graphs import Fork, canonical_chain, format_chain, parse_chain
from reference import (
    WeightedTree,
    all_admissible_chains_up_to,
    chain_bark_square,
    decompose_exceptional,
    is_admissible_fork,
    reference_bark_fork,
    reference_chain_barks,
    symmetric_fork_sums,
)


def F(n, d=1):
    return Fraction(n, d)


def seeded_forks(seed=6, count=60):
    """Admissible forks with twig triples (2,2,n), (2,3,3), (2,3,4), (2,3,5),
    b in 1..4 and twigs drawn at random among the oriented chains of each d."""
    rng = random.Random(seed)
    triples = [(2, 2, n) for n in range(2, 25)] + [(2, 3, 3), (2, 3, 4), (2, 3, 5)]
    forks = []
    while len(forks) < count:
        twigs = tuple(rng.choice(chains.oriented_chains_with_d(dd)) for dd in rng.choice(triples))
        fork = Fork(rng.randint(1, 4), twigs)
        if is_admissible_fork(fork):
            forks.append(fork)
    return forks


def test_one_sided_examples():
    bk = bark_one_sided((2, 2))
    assert bk.coefficients == (F(2, 3), F(1, 3))
    assert bk.bk_square == F(-2, 3)
    bk = bark_one_sided((3,))
    assert bk.coefficients == (F(1, 3),)
    assert bk.bk_square == F(-1, 3)
    bk = bark_one_sided((2, 3))
    assert bk.coefficients == (F(3, 5), F(1, 5))
    assert bk.bk_square == F(-3, 5)


def test_chain_bark_examples():
    for n in range(1, 8):
        bk = bark_chain((2,) * n)
        assert all(c == 1 for c in bk.coefficients)
        assert bk.bk_square == -2
    bk = bark_chain((3,))
    assert bk.coefficients == (F(2, 3),)
    assert bk.bk_square == F(-4, 3)
    assert bark_chain((2, 3)).bk_square == F(-7, 5)


def test_bark_errors():
    with pytest.raises(ValueError):
        bark_chain((1, 2))
    with pytest.raises(ValueError):
        bark_one_sided(())


def test_chain_barks_cross_validate_d50():
    # closed forms vs the dense linear solve, additivity of the two one-sided
    # barks, and the -2 bound with its equality case
    for ws, full_by_solve, left_by_solve in reference_chain_barks(50):
        full = bark_chain(ws)
        left = bark_one_sided(ws)
        assert full == full_by_solve
        assert left == left_by_solve
        assert left.bk_square == -chains.e(ws)
        right = bark_one_sided(ws[::-1])
        summed = tuple(
            a + b for a, b in zip(left.coefficients, right.coefficients[::-1])
        )
        assert summed == full.coefficients
        assert full.bk_square == chain_bark_square(ws)
        assert full.bk_square >= -2
        assert (full.bk_square == -2) == all(w == 2 for w in ws)
        assert all(0 < m <= 1 for m in full.coefficients)
        assert all(0 < m < 1 for m in left.coefficients)
        if any(m == 1 for m in full.coefficients):
            assert all(w == 2 for w in ws)


def test_fork_anchors():
    e8 = Fork(2, ((2,), (2, 2), (2, 2, 2, 2)))
    bk = bark_fork(e8)
    assert all(c == 1 for c in bk.coefficients)
    assert bk.bk_square == -2
    inv = fork_invariants(e8)
    assert inv.d == 1 and inv.delta == F(31, 30)

    fk = Fork(2, ((2,), (2,), (3,)))
    assert bark_fork(fk).bk_square == F(-3, 2)
    assert group_order(fk) == 24
    assert fork_invariants(fk).d == 8

    quat = Fork(2, ((2,), (2,), (2,)))
    assert bark_fork(quat).bk_square == -2
    assert group_order(quat) == 8
    assert fork_invariants(quat).d == 4


def test_binary_polyhedral_orders():
    # the three (-2)-forks carry the binary polyhedral groups
    e6 = Fork(2, ((2,), (2, 2), (2, 2)))
    e7 = Fork(2, ((2,), (2, 2), (2, 2, 2)))
    e8 = Fork(2, ((2,), (2, 2), (2, 2, 2, 2)))
    assert [group_order(f) for f in (e6, e7, e8)] == [24, 48, 120]
    # binary dihedral series on (2,2,n)
    for n in range(2, 8):
        dyn = Fork(2, ((2,), (2,), (2,) * (n - 1)))
        assert group_order(dyn) == 4 * n


def test_group_order_chain():
    assert group_order((5,)) == 5
    assert group_order(parse_chain("[2,3,4]")) == 18
    with pytest.raises(ValueError):
        group_order((1,))


def test_platonic_gate():
    assert is_platonic_triple((2, 3, 5))
    assert is_platonic_triple((2, 2, 9))
    assert not is_platonic_triple((3, 3, 3))
    bad = Fork(2, ((3,), (3,), (3,)))
    assert not is_admissible_fork(bad)
    with pytest.raises(ValueError):
        bark_fork(bad)
    with pytest.raises(ValueError):
        group_order(bad)


def test_admissible_graphs_are_negative_definite():
    for ws in all_admissible_chains_up_to(50):
        assert WeightedTree.from_chain(ws).is_negative_definite()
    for shape in eshape_catalog(10):
        if shape.is_fork:
            assert WeightedTree.from_fork(shape.graph).is_negative_definite()


def test_fork_closed_form_vs_determinant():
    # d(F) in closed form against the determinant of the tree
    for shape in eshape_catalog(12):
        if shape.is_fork:
            inv = fork_invariants(shape.graph)
            d, dl, e, et = inv.d, inv.delta, inv.e, inv.e_tilde
            assert d == shape.d == WeightedTree.from_fork(shape.graph).discriminant()
            assert d == d_of_fork_by_schur(shape.graph)
            assert 1 < dl <= et < 2 <= shape.graph.b
            assert bark_fork(shape.graph).bk_square < -e < -1
            assert -bark_fork(shape.graph).bk_square <= 2


def d_of_fork_by_schur(fork):
    """d1*d2*d3*(b - e~) over Fraction, the Schur complement at the branch."""
    et = sum(chains.e_tilde(t) for t in fork.twigs)
    value = chains.d(fork.twigs[0]) * chains.d(fork.twigs[1]) * chains.d(fork.twigs[2])
    return value * (fork.b - et)


def test_fork_discriminant_vs_determinant_on_all_small_forks():
    # every triple of twigs of length <= 2 over the weights 0..3 and b in
    # -1..3, admissible or not, including twigs with d = 0: b*D - Et from
    # fork_sums is the determinant
    twigs = [ws for n in (1, 2) for ws in product((0, 1, 2, 3), repeat=n)]
    for triple in combinations_with_replacement(twigs, 3):
        dd, _, _, et = fork_sums(*map(chain_record, triple))
        for b in range(-1, 4):
            assert b * dd - et == WeightedTree.from_fork(Fork(b, triple)).discriminant()


def test_fork_sums_match_the_symmetric_form():
    # fork_sums steps from the pair (T1, T2) to T3; every ordered triple of
    # oriented twigs with d <= 12, and of the small twigs above with d = 0
    # among them, against D = d1*d2*d3, S = sum D/d_i and the like
    admissible = [ws for dd in range(2, 13) for ws in chains.oriented_chains_with_d(dd)]
    small = [ws for n in (1, 2) for ws in product((0, 1, 2, 3), repeat=n)]
    for twigs in (admissible, small):
        records = [chain_record(ws) for ws in twigs]
        for triple in product(records, repeat=3):
            assert fork_sums(*triple) == symmetric_fork_sums(*triple), triple
    assert len(admissible) > 40


def test_fork_bark_coefficients_match_dense_solve():
    # the coefficients, not only Bk^2: catalog forks of size <= 12 and
    # seeded forks over the Platonic triples
    forks = [s.graph for s in eshape_catalog(12) if s.is_fork] + seeded_forks()
    assert len(forks) > 60
    for fork in forks:
        assert bark_fork(fork) == reference_bark_fork(fork), fork


def test_fork_invariants_and_group_order_on_seeded_forks():
    # the group order against the integer form 4*d(F)*D/(S - D)^2, with
    # D = d1*d2*d3 and S = d2*d3 + d1*d3 + d1*d2; the library reads
    # 4*(b - e~)/(delta - 1)^2 off the fork invariants
    catalog_forks = [s.graph for s in eshape_catalog(12) if s.is_fork]
    assert catalog_forks
    for fork in seeded_forks(seed=7) + catalog_forks:
        inv = fork_invariants(fork)
        assert inv == (fork.b, *fork_sums(*map(chain_record, fork.twigs)))
        d, dl, e, et = inv.d, inv.delta, inv.e, inv.e_tilde
        assert d == WeightedTree.from_fork(fork).discriminant() == d_of_fork_by_schur(fork)
        assert dl == sum(F(1, chains.d(t)) for t in fork.twigs)
        assert e == sum(chains.e(t) for t in fork.twigs)
        assert et == sum(chains.e_tilde(t) for t in fork.twigs)
        d1, d2, d3 = (chains.d(t) for t in fork.twigs)
        dd = d1 * d2 * d3
        order, rest = divmod(4 * d * dd, (d2 * d3 + d1 * d3 + d1 * d2 - dd) ** 2)
        assert rest == 0 and group_order(fork) == order


def test_fork_invariants_reject_bad_twigs():
    with pytest.raises(ValueError, match="nonempty"):
        fork_invariants(Fork(2, ((), (2,), (3,))))
    with pytest.raises(ValueError, match="zero discriminant"):
        fork_invariants(Fork(2, ((1, 1), (2,), (3,))))


def test_decompose():
    e, delta = decompose_exceptional(parse_chain("[2,2,3,2]"))
    assert e == (3,)
    assert sorted(delta) == [(2,), (2, 2)]
    e, delta = decompose_exceptional((4,))
    assert e == (4,) and delta == []
    for r in range(0, 4):
        for x in range(0, 4):
            e, _ = decompose_exceptional((2,) * r + (3,) + (2,) * x)
            assert e == (3,)
    # an all-(-2) graph strips to nothing
    e, delta = decompose_exceptional((2, 2, 2))
    assert e == () and delta == [(2, 2, 2)]


def test_closed_forms_match_tree_routes():
    # a shape reads E and Delta off its spec in closed form; the tree route
    # is decompose_exceptional of the reference module, on the catalog and
    # on every fork spec of the size-60 catalog
    forks = [_make_shape(spec) for spec in family_specs(60) if spec[0].branch]
    assert len(forks) > 100
    for shape in [*eshape_catalog(20), *forks]:
        e_ws, comps = decompose_exceptional(shape.graph)
        assert shape.e_weights == e_ws
        assert shape.n_delta_components == len(comps)
        assert shape.ke == sum(w - 2 for w in e_ws)
    # b > e~ decides negative definiteness of forks with admissible twigs
    twigs = [ws for dd in range(2, 8) for ws in chains.oriented_chains_with_d(dd)]
    not_definite = 0
    for triple in combinations_with_replacement(twigs, 3):
        for b in (1, 2, 3):
            fork = Fork(b, triple)
            definite = WeightedTree.from_fork(fork).is_negative_definite()
            et = sum(chains.e_tilde(t) for t in triple)
            assert (b > et) == definite
            platonic = is_platonic_triple(tuple(sorted(chains.d(t) for t in triple)))
            assert is_admissible_fork(fork) == (platonic and definite)
            if platonic and definite:
                assert require_admissible_fork(fork) == fork_invariants(fork)
            not_definite += not definite
    assert not_definite > 0


@pytest.mark.parametrize("max_size", [12, 60])
def test_each_shape_keeps_its_printed_key(max_size):
    # the key is formatted once, when the shape is built, from its graph
    for es in eshape_catalog(max_size):
        assert es.key() == _graph_key(es.graph), es.spec


def test_catalog_families():
    cat = eshape_catalog(12)
    by_key = {}
    for s in cat:
        by_key.setdefault(s.key(), []).append(s)
    assert [s.epsilon for s in by_key["[5]"]] == [0, 1]
    assert [s.epsilon for s in by_key["[6]"]] == [0]
    assert [s.epsilon for s in by_key["[7]"]] == [0]
    assert sorted(s.epsilon for s in by_key["[4]"]) == [1, 2]
    assert [s.epsilon for s in by_key["[3]"]] == [2]
    # the six chains with two external curves
    c4 = [s for s in cat if s.spec[0].name == "c4"]
    assert len(c4) == 6
    assert all(s.epsilon == 1 for s in c4)
    assert {s.key() for s in c4} == {
        "[2,4,2]", "[2,5,2]", "[2,3,3,2]", "[2,3,4,2]", "[(2),4,2]", "[(2),5,2]",
    }
    # epsilon 0 shapes have K.E in 3..5, epsilon 1 in 2..3, epsilon 2 gives 1
    for s in cat:
        if s.epsilon == 0:
            assert s.ke in (3, 4, 5)
        elif s.epsilon == 1:
            assert s.ke in (2, 3)
        else:
            assert s.ke == 1 or s.key() == "[4]"
        exceptional = s.key() == "[4]" and s.epsilon == 2
        assert s.ke + 2 * s.epsilon <= 5 or exceptional
    # every fork strips to E = [3]
    for s in cat:
        if s.is_fork:
            assert s.e_weights == (3,)
            assert s.epsilon == 2


def test_all_minus_two_shape_rejected():
    from dgk.barks import Family, _make_shape

    # the spec of the chain [(1),2,(1)] = (2, 2, 2)
    with pytest.raises(ValueError):
        _make_shape((Family("b3", 2, (2,)), 1, 1))


def test_shapes_compare_and_hash_on_graph_and_epsilon():
    # the other fields are read from the spec; != agrees with ==
    es = next(es for es in eshape_catalog(8) if es.key() == "[4]" and es.epsilon == 1)
    same = es._replace(ke=es.ke + 3, spec=None)
    assert es == same and not es != same and hash(es) == hash(same)
    other = es._replace(epsilon=2)
    assert es != other and not es == other
    assert es != tuple(es)


def test_family_refuses_weights_below_three():
    from dgk.barks import Family

    for weights in ((2,), (3, 2), ()):  # () would be a chain of runs alone
        with pytest.raises(ValueError, match="at least 3"):
            Family("c1", 1, weights)
    assert Family("b2", 2, (), branch=3).ke == 1


def test_a_fork_shape_forms_one_graph_and_one_record(monkeypatch):
    # d(F), Bk^2 and |G| of a fork shape come from one fork_invariants
    # record of one graph
    from dgk import barks

    calls = {"fork_invariants": 0, "_spec_graph": 0}
    for name in calls:
        def counted(*args, real=getattr(barks, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(barks, name, counted)
    forks = [spec for spec in family_specs(60) if spec[0].branch]
    for spec in forks:
        _make_shape(spec)
    assert calls == dict.fromkeys(calls, len(forks))


def test_small_dihedral_fork_discriminant():
    # the (2,2,3) fork with a [3]-twig: abelianization order 8, group order 24
    fk = Fork(2, ((2,), (2,), (3,)))
    assert WeightedTree.from_fork(fk).discriminant() == 8
    assert group_order(fk) == 24


# ---------------------------------------------------------------------------
# the spec enumeration against the enumeration it replaced


def reference_catalog(max_size):
    """(graph, epsilon, families) of every catalog shape, in catalog order.

    The enumeration the catalog used before specs: weight tuples and forks
    are built and canonicalised, keyed by their bracket string, and a second
    family adding the same (key, epsilon) joins the first one's tags.
    """
    found = {}

    def graph_key(graph):
        if isinstance(graph, Fork):
            twigs = ",".join(format_chain(t) for t in graph.sorted_twigs())
            return f"fork(b={graph.b};{twigs})"
        return format_chain(graph)

    def add(graph, epsilon, family):
        if not isinstance(graph, Fork):
            graph = canonical_chain(graph)
        key = (graph_key(graph), epsilon)
        if key not in found:
            found[key] = (graph, epsilon, (family,))
        elif family not in found[key][2]:
            found[key] = found[key][:2] + (found[key][2] + (family,),)

    def runs(count):
        return (2,) * count

    for w in (5, 6, 7):
        add((w,), 0, "a")
    b1_pairs = [((3,), (2, 2)), ((3,), (2, 2, 2)), ((3,), (2, 2, 2, 2)), ((2, 3), (2, 2))]
    b1_pairs += [(runs(n) + (3,), (2,)) for n in range(0, max_size)]
    for a, b in b1_pairs:
        fork = Fork(2, (a, b, (2,)))
        if 1 + len(a) + len(b) + 1 <= max_size and is_admissible_fork(fork):
            add(fork, 2, "b1")
    b2_pairs = [((2, 2), (2, 2)), ((2, 2), (2, 2, 2)), ((2, 2), (2, 2, 2, 2))]
    b2_pairs += [((2,), runs(n)) for n in range(1, max_size)]
    for a, b in b2_pairs:
        fork = Fork(3, (a, b, (2,)))
        if 1 + len(a) + len(b) + 1 <= max_size and is_admissible_fork(fork):
            add(fork, 2, "b2")
    for r in range(0, max_size):
        for x in range(r, max_size):
            if r + x + 1 <= max_size:
                add(runs(r) + (3,) + runs(x), 2, "b3")
    add((4,), 2, "b4")
    for r in range(0, max_size):
        for w in (4, 5):
            add(runs(r) + (w,), 1, "c1")
    for x in range(0, max_size):
        for y in range(0, max_size):
            if x + y + 2 <= max_size:
                add(runs(x) + (3,) + runs(y) + (3,), 1, "c2")
                add(runs(x) + (3,) + runs(y) + (4,), 1, "c2")
                add(runs(x) + (4,) + runs(y) + (3,), 1, "c2")
    for r in range(0, max_size):
        for x in range(0, max_size):
            for y in range(0, max_size):
                if r + x + y + 3 <= max_size:
                    add(runs(r) + (3,) + runs(x) + (3,) + runs(y) + (3,), 1, "c3")
    for ws in ((2, 4, 2), (2, 5, 2), (2, 3, 3, 2), (2, 3, 4, 2), (2, 4, 2, 2), (2, 5, 2, 2)):
        add(ws, 1, "c4")

    def size(graph):
        return 1 + sum(map(len, graph.twigs)) if isinstance(graph, Fork) else len(graph)

    ordered = sorted(found.items(), key=lambda item: (size(item[1][0]), item[0]))
    return [entry for _, entry in ordered if size(entry[0]) <= max_size]


def reference_shape_index(shapes):
    """Shapes keyed as the scan probes them, from their Fraction Bk^2."""
    index = {}
    for s in shapes:
        num, den = s.bk_square.numerator, s.bk_square.denominator
        key = (s.size - s.epsilon - s.ke, num + s.epsilon * den, den)
        index.setdefault(key, []).append(s)
    return index


def by_key(shapes):
    return sorted(shapes, key=lambda s: (s.key(), s.epsilon))


@pytest.mark.parametrize("max_size", [0, 3, 20, 60])
def test_catalog_matches_reference_enumeration(max_size):
    cat = eshape_catalog(max_size)
    got = [(s.graph, s.epsilon, (s.spec[0].name,)) for s in cat]
    assert got == reference_catalog(max_size)
    assert {s.spec for s in cat} == set(family_specs(max_size))
    assert len(family_specs(max_size)) == len(cat)


@pytest.mark.parametrize("max_size", [0, 1, 2, 3, 12, 20, 60])
def test_catalog_index_matches_shape_index(max_size):
    cat = eshape_catalog(max_size)
    want = reference_shape_index(cat)
    catalog_index.cache_clear()
    index = catalog_index(max_size)
    assert index.first_keys == {s.size - s.epsilon - s.ke for s in cat}
    # every bucket, built in reverse key order, keyed in full
    probes = {
        (k, *pair): index.specs_at(held)
        for k in sorted(index.first_keys, reverse=True)
        for pair, held in index[k].items()
    }
    assert index.keys() == index.first_keys
    assert probes.keys() == want.keys()
    for key, specs in probes.items():  # the same shapes, each as often
        assert by_key(_make_shape(spec) for spec in specs) == by_key(want[key])
    assert index.reach == max((s.epsilon + s.ke for s in cat), default=0)


def test_catalog_index_lists_no_catalog():
    family_specs.cache_clear()
    catalog_index.cache_clear()
    index = catalog_index(60)
    held = sum(
        len(index.specs_at(held)) for k in index.first_keys for held in index[k].values()
    )
    assert held == 39811
    info = family_specs.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_every_bucket_position_decodes_to_a_spec_of_its_key():
    # a bucket holds positions, not specs: decoded, each is a spec whose own
    # product gives the bucket's k and reduced pair, and together they are
    # the catalog, each spec once
    catalog_index.cache_clear()
    index = catalog_index(60)
    decoded = []
    for k in index.first_keys:
        for (num, den), held in index[k].items():
            specs = index.specs_at(held)
            assert len(specs) == (1 if type(held) is int else len(held)) >= 1
            for spec in specs:
                family = spec[0]
                d, n = _continuants(spec)
                assert sum(spec[1:]) + family.offset == k
                assert Fraction(num, den) == Fraction(n, d) + family.epsilon, spec
                assert den > 0 and gcd(num, den) == 1
            decoded += specs
    assert len(decoded) == 39811
    assert Counter(decoded) == Counter(family_specs(60))


def test_slice_stepping_matches_the_product_past_the_catalog_sizes():
    # each slice steps d and num along its lines; every spec must still
    # get its own product's values, for
    # small slices (c3 below run sum 4 has lines of fewer than three specs)
    # and for run sums past the size-60 catalog; a fork takes its record's
    # each spec read back from its position, the i-th spec of the slice
    for family in _FAMILIES:
        for s in (*range(16), 57, 58, 59, 60, 97, 149, 150):
            lines = _slice(family, s)
            got = list(_slice_continuants(lines))
            index = SpecIndex([lines] if lines else [])
            specs = [spec for i in range(len(got)) for spec in index.specs_at(i)]
            assert specs == [sp for line in lines for sp in line.specs()]
            for spec, (d, num) in zip(specs, got):
                assert sum(spec[1:]) == s
                assert (d, num) == _continuants(spec), spec


def test_fork_tails_in_closed_form_past_the_catalog_sizes():
    # b1's tail Fork(2, ([2]^n + [3], [2], [2])) has first key n + 1 and
    # b2's Fork(3, ([2], [2]^n, [2])), n >= 1, first key n; both have
    # d(F) = 4(n + 2) and Bk^2 = -(2n + 3)/(n + 2).  The key counts E on the
    # tree; bark_fork, quadratic in n, is checked on every tenth n past 100
    for n in range(400):
        tails = [((_B1, n, 1), Fork(2, ((2,) * n + (3,), (2,), (2,))), n + 1)]
        if n >= 1:
            tails.append(((_B2, 1, n), Fork(3, ((2,), (2,) * n, (2,))), n))
        for spec, fork, key in tails:
            family = spec[0]
            assert _spec_graph(spec) == fork
            e_weights, _ = decompose_exceptional(fork)
            size = 1 + sum(map(len, fork.twigs))
            assert size - family.epsilon - sum(w - 2 for w in e_weights) == key
            assert sum(spec[1:]) + family.offset == key
            assert (family.epsilon, family.ke, e_weights) == (2, 1, (3,))
            inv = fork_invariants(fork)
            bk2 = F(-(2 * n + 3), n + 2)
            assert _continuants(spec) == (inv.d, bk2 * inv.d) and inv.d == 4 * (n + 2)
            assert inv.bk_square == bk2
            if n < 100 or n % 10 == 0:
                assert bark_fork(fork).bk_square == bk2


def test_fork_slices_hold_the_admissible_forks_of_their_templates():
    # on the run grid a, m < 80 the b1 and b2 slices hold exactly the forks
    # Fork(2, ([(a),3], [(m)], [2])) and Fork(3, ([(a)], [(m)], [2])) that
    # the reference gate accepts, each once up to twig order
    templates = {
        _B1: lambda a, m: Fork(2, ((2,) * a + (3,), (2,) * m, (2,))),
        _B2: lambda a, m: Fork(3, ((2,) * a, (2,) * m, (2,))),
    }
    for family, template in templates.items():
        held = [
            spec for s in range(2 * 80) for line in _slice(family, s) for spec in line.specs()
        ]
        held = [spec for spec in held if max(spec[1:]) < 80]
        keys = [(fork.b, fork.sorted_twigs()) for fork in map(_spec_graph, held)]
        assert all(_spec_graph(spec) == template(*spec[1:]) for spec in held)
        assert len(set(keys)) == len(keys)
        grid = [template(a, m) for a in range(80) for m in range(80)]
        assert set(keys) == {(f.b, f.sorted_twigs()) for f in grid if is_admissible_fork(f)}


def test_shape_fields_match_independent_routes():
    # the catalog reads a chain's size, d and Bk^2 off its runs; here they
    # come from the weights, by routes that share no code with that product
    cat = eshape_catalog(60)
    assert len(cat) == 39811
    for s in cat:
        if s.is_fork:
            inv = fork_invariants(s.graph)
            want = (1 + sum(map(len, s.graph.twigs)), inv.d, inv.bk_square)
        else:
            want = (len(s.graph), chains.d(s.graph), chain_bark_square(s.graph))
        assert (s.size, s.d, s.bk_square) == want
        assert s.ke == sum(w - 2 for w in s.e_weights)


def test_catalog_index_builds_buckets_on_demand():
    catalog_index.cache_clear()
    index = catalog_index(12)
    k = max(index.first_keys)
    assert k not in index and k + 1 not in index
    # a key without a slice gives an empty bucket, and keeps it
    empty = index[k + 1]
    assert empty == {} and k + 1 in index and index[k + 1] is empty
    bucket = index[k]
    assert bucket and index[k] is bucket


def test_catalog_leaves_the_hit_cache_empty():
    eshape_catalog.cache_clear()
    shape_of.cache_clear()
    assert len(eshape_catalog(60)) == 39811
    assert shape_of.cache_info().currsize == 0
    # a hit materialises one shape, equal to the catalog's
    spec = eshape_catalog(60)[-1].spec
    assert shape_of(spec) == eshape_catalog(60)[-1]
    assert shape_of.cache_info().currsize == 1
