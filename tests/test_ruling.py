import random
from fractions import Fraction
from functools import cache
from math import lcm
from types import SimpleNamespace

import pytest

from dgk import chains
from dgk.graphs import format_chain, parse_chain
from dgk.pairs import reconstruct_fiber
from dgk.ruling import (
    ContractionError,
    FiberTuple,
    RulingFiber,
    RulingScenario,
    TwoFiberSolution,
    _assemble_solution,
    _equation_solutions,
    _int_quadratic_roots,
    _tail_pairs,
    check_ruling_equations,
    contract_boundary,
    minimalize_chain,
    minimalized_section_side_32,
    second_fiber_square_branch,
    solve_two_fiber,
    tail_chain_23_branch,
    two_run_twig_branch,
)
from dgk.search import load_bounds
from reference import (
    all_sequences,
    coprime_pairs_with_length,
    first_pair_parts_by_components,
    integer_roots,
    is_positive_perfect_square,
    reference_equation_solutions,
    reference_solve_two_fiber,
    shape,
    tail_pairs_by_splits,
    two_fiber_relations,
)

E4 = lambda: shape("[4]", 1)
SOLVER_SHAPES = (("[2,3]", 2), ("[3]", 2), ("[4]", 1), ("[5]", 1))
# every catalog E of one curve and at most one external (-2)-curve, the
# shapes solve_two_fiber accepts
ONE_CURVE_SHAPES = (
    ("[3]", 2), ("[4]", 1), ("[4]", 2), ("[5]", 0), ("[5]", 1), ("[6]", 0), ("[7]", 0),
    ("[2,3]", 2), ("[2,4]", 1), ("[2,5]", 1),
)
DEFAULT_PREDICATES = solve_two_fiber.__kwdefaults__["predicate_names"]


def test_default_predicates_are_those_of_the_fiber_pairs_file():
    # dgk solve twofiber and the queries benchmark use the default; dgk search
    # fiber-pairs reads its file, so the two lists must not drift apart
    assert DEFAULT_PREDICATES == tuple(load_bounds("fiber_pairs")["predicates"])


def oracle_sweep():
    """Every oriented admissible twig with d <= 7."""
    return [ws for dd in range(2, 8) for ws in chains.oriented_chains_with_d(dd)]


def branch_of(c_pr, p_pr, alpha, k):
    """T1 of the first fiber with pairs (2c', c'), alpha pairs (c', c') and
    (c', p'), and k boundary curves: its groups 2 to alpha + 2, tip first."""
    upairs = ((2 * c_pr, c_pr),) + ((c_pr, c_pr),) * alpha + ((c_pr, p_pr),)
    tree = reconstruct_fiber(RulingFiber(upairs, 1 + k, k, 1).full_pairs())
    z1 = tree.first_pair_parts()[1]
    branch = {v for v in range(len(tree)) if 2 <= tree.groups[v] <= alpha + 2}
    return tuple(tree.weights[v] for v in reversed(tree.path(z1, branch)))


def test_tail_pairs_read_back_the_pair_of_every_fiber():
    # the read off T1 gives back exactly the (c', p') the fiber was built
    # from, and nothing else, for every coprime pair with a Euclid trace of
    # at most 10 steps, alpha = 0..3 and k = 0, 1 boundary curves.  The d = 1
    # test, the R test and c' >= p' only prune, so these exact lists are what
    # catches losing one of them
    cases = 0
    for length in range(1, 11):
        for c_pr, p_pr in coprime_pairs_with_length(length):
            for alpha in range(4):
                for k in (0, 1):
                    t1 = branch_of(c_pr, p_pr, alpha, k)
                    assert len(t1) == length + alpha
                    assert list(_tail_pairs(t1, alpha, k)) == [(c_pr, p_pr)], (t1, alpha, k)
                    cases += 1
    assert cases == 4096


def test_every_pair_read_off_a_twig_rebuilds_it():
    # the other direction, on twigs no fiber need have: every (c', p') read
    # off an oriented twig of d <= 60 rebuilds that twig, so a twig that is
    # not a branch gives none.  Losing the R test shows here
    pairs = 0
    for t1 in [ws for dd in range(2, 61) for ws in chains.oriented_chains_with_d(dd)]:
        for alpha in range(min(4, len(t1))):
            for k in (0, 1):
                for c_pr, p_pr in _tail_pairs(t1, alpha, k):
                    assert branch_of(c_pr, p_pr, alpha, k) == t1, (t1, alpha, k, c_pr, p_pr)
                    pairs += 1
    assert pairs == 173


def test_the_continuant_read_matches_the_read_split_by_split():
    # the prefix and suffix continuants give each split's d(A + [1] + B),
    # d(A) and d(B) as chains.d of the split does, ends included (A or B
    # empty); every oriented twig of d <= 60, alpha <= 3 and k <= 1
    reads = 0
    for t1 in [ws for dd in range(2, 61) for ws in chains.oriented_chains_with_d(dd)]:
        for alpha in range(min(4, len(t1))):
            for k in (0, 1):
                want = tuple(tail_pairs_by_splits(t1, alpha, k))
                assert _tail_pairs(t1, alpha, k) == want, (t1, alpha, k)
                reads += bool(want)
    assert reads == 173


def assert_within_reference(t1, t2, es):
    """The solver's tuples are the reference sweep's in order, with tuples
    left out, and no tuple left out rebuilds T1 and T2; returns them."""
    got = list(_equation_solutions(t1, t2, es))
    rest = iter(reference_equation_solutions(t1, t2, es))
    for tup in got:
        for ref in rest:
            if ref == tup:
                break
            assert _assemble_solution(ref, t1, t2, es) is None, (t1, t2, ref)
        else:
            raise AssertionError(f"{tup} is not in the reference sweep in order, {(t1, t2)}")
    for ref in rest:
        assert _assemble_solution(ref, t1, t2, es) is None, (t1, t2, ref)
    return got


@pytest.mark.parametrize("key,eps", SOLVER_SHAPES)
def test_equation_solutions_match_fraction_reference(key, eps):
    # the (5)/(6) tuples themselves, before any boundary is reconstructed
    es = shape(key, eps)
    sweep = oracle_sweep()
    for t1 in sweep:
        for t2 in sweep:
            assert_within_reference(t1, t2, es)


KAPPA_3_TUPLE = FiberTuple(
    n=1, gamma=3, epsilon=2, ke=1, kappa=3, kappa_t=4, c=12, p=6, c_prime=6,
    p_prime=1, c_tilde=9, p_tilde=4, delta_f_size=1, delta_ft_size=0,
)


def test_equation_solutions_kappa_3_boundary_tuple():
    # the mixed-boundary tuple: kappa = 3 on a fiber with one boundary curve
    # (rho = 5) and kappa~ = 4 on one without (rho~ = 16), asked of the
    # branch [(5),3] its pair (c', p') = (6, 1) rebuilds
    t1, t2, es = parse_chain("[(5),3]"), (2,), shape("[2,3]", 2)
    got = list(_equation_solutions(t1, t2, es))
    assert KAPPA_3_TUPLE in got
    assert _assemble_solution(KAPPA_3_TUPLE, t1, t2, es) is not None
    tup = got[got.index(KAPPA_3_TUPLE)]
    assert (tup.alpha, tup.rho, tup.rho_t, tup.d) == (0, 5, 16, 36)
    assert len(tup.fibers()[0].upairs) + 1 == 3  # h = 3 + alpha


def both_rho_forms_sweep(d_max=6):
    """(T1, T2, stand-in E) over the twigs of d <= d_max: (5)-(6) read only
    gamma, epsilon, K.E and the number of external (-2)-curves of E, so
    stand-in data for an irreducible E plus one such curve reach the
    boundary-curve forms of rho on either fiber, which the catalog shapes of
    the paper leave unused on the second fiber."""
    sweep = [ws for dd in range(2, d_max + 1) for ws in chains.oriented_chains_with_d(dd)]
    for gamma in (4, 5, 6):
        for eps in (0, 1, 2):
            es = SimpleNamespace(e_weights=(gamma,), epsilon=eps, ke=gamma - 2, size=2)
            for t1 in sweep:
                for t2 in sweep:
                    yield t1, t2, es


def test_equation_solutions_match_reference_on_both_rho_forms():
    splits = set()
    for t1, t2, es in both_rho_forms_sweep():
        got = assert_within_reference(t1, t2, es)
        splits.update((f.delta_f_size, f.delta_ft_size) for f in got)
    assert splits == {(1, 0), (0, 1)}


@cache
def swept_tuples():
    """Every tuple the solver yields on the one-curve catalog shapes over the
    twigs of d <= 13, and on both rho forms over the twigs of d <= 9."""
    sweep = [ws for dd in range(2, 14) for ws in chains.oriented_chains_with_d(dd)]
    sweeps = [(t1, t2, shape(key, eps)) for key, eps in ONE_CURVE_SHAPES
              for t1 in sweep for t2 in sweep]
    return [tup for t1, t2, es in sweeps + list(both_rho_forms_sweep(9))
            for tup in _equation_solutions(t1, t2, es)]


def test_equation_solutions_have_zero_ruling_residuals():
    # the solver checks no residual: kappa is a root of twice (6) and p~ is
    # solved from (5), so every tuple it yields satisfies (1)/(2) on its two
    # fibers, on the catalog shapes and on both rho forms
    count = 0
    for tup in swept_tuples():
        assert check_ruling_equations(tup.scenario())[:2] == (0, 0), tup
        count += 1
    assert count == 68


def test_fiber_tuple_refuses_a_kappa_its_fiber_cannot_carry():
    # with a boundary curve on a fiber, kappa = 2 CE + 1 is odd: kappa = 4
    # would lay out a first fiber of kappa 3 and rho 5 under kappa 4, rho 8.
    # The check runs however the record is built, and a solution runs it too
    message = r"{} = 4 is not \(1 \+ k\) CE \+ k on a fiber with k = 1 boundary curves"
    boundary = (2, (2,), (2, 2), (3, 3), E4())
    for name, fields in (
        ("kappa", (1, 3, 2, 1, 4, 4, 12, 6, 6, 1, 12, 4, 1, 0)),
        ("kappa_t", (1, 3, 2, 1, 3, 4, 12, 6, 6, 1, 9, 4, 0, 1)),
    ):
        for build in (
            lambda: FiberTuple(*fields),
            lambda: FiberTuple(**dict(zip(FiberTuple._fields, fields))),
            lambda: TwoFiberSolution(*fields, *boundary),
            lambda: TwoFiberSolution(**dict(zip(TwoFiberSolution._fields, fields + boundary))),
        ):
            with pytest.raises(ValueError, match=message.format(name)):
                build()


def test_every_swept_tuple_is_accepted_and_its_fibers_carry_it():
    # the solver's parity tests keep kappa - k divisible by 1 + k on each
    # fiber, so every tuple of its sweeps builds, and its two fibers carry
    # its kappa and rho
    tuples = swept_tuples()
    assert len(tuples) == 68
    assert KAPPA_3_TUPLE in tuples
    splits = set()
    for tup in tuples:
        assert FiberTuple(*tup) == tup
        assert [(f.kappa, f.rho) for f in tup.fibers()] == [
            (tup.kappa, tup.rho), (tup.kappa_t, tup.rho_t)
        ]
        splits.add((tup.delta_f_size, tup.delta_ft_size))
    assert splits == {(0, 0), (1, 0), (0, 1)}


def random_fiber_tuple(rng):
    """A FiberTuple whose fibers lay out, with d = c kappa = c~ kappa~ and
    either rho form on each fiber; not in general a solution."""
    n = rng.randint(1, 3)
    alpha = rng.randint(0, n)
    eps = rng.randint(0, 2)
    df, dft = rng.randint(0, 1), rng.randint(0, 1)
    # a fiber with a boundary curve has odd kappa, so CE = (kappa - 1)/2
    kappa = rng.randrange(3 if df else 2, 40, 1 + df)
    kappa_t = rng.randrange(3 if dft else 2, 40, 1 + dft)
    d = lcm(kappa, kappa_t) * rng.randint(1, 4)
    c, c_t = d // kappa, d // kappa_t
    c_pr = rng.randint(1, 30)
    return FiberTuple(
        n, rng.randint(2, 9), eps, alpha + 4 - n - eps, kappa, kappa_t,
        c, rng.randint(1, c), c_pr, rng.randint(1, c_pr), c_t, rng.randint(1, c_t),
        df, dft,
    )


def test_equations_5_6_are_1_2_on_the_two_fibers():
    # with d = c kappa = c~ kappa~: r5 = r1 and r6 = d r1 - r2
    rng = random.Random(20100)
    splits = set()
    for _ in range(3000):
        tup = random_fiber_tuple(rng)
        r1, r2, _, _ = check_ruling_equations(tup.scenario())
        r5, r6 = two_fiber_relations(
            n=tup.n, gamma=tup.gamma, alpha=tup.alpha, kappa=tup.kappa,
            kappa_t=tup.kappa_t, c=tup.c, p=tup.p, c_prime=tup.c_prime,
            p_prime=tup.p_prime, c_tilde=tup.c_tilde, p_tilde=tup.p_tilde,
            rho=tup.rho, rho_t=tup.rho_t,
        )
        assert (r5, r6) == (r1, tup.d * r1 - r2), tup
        # the fibers carry the tuple's kappa and rho
        assert [(f.kappa, f.rho) for f in tup.fibers()] == [
            (tup.kappa, tup.rho), (tup.kappa_t, tup.rho_t)
        ]
        splits.add((tup.delta_f_size, tup.delta_ft_size))
    assert splits == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("key,eps", ONE_CURVE_SHAPES)
@pytest.mark.parametrize("predicates", ["none", "default"])
def test_solver_matches_fraction_reference(key, eps, predicates):
    # every oriented twig pair with d <= 7; with no predicates every solution
    # of (5)-(6) that reconstructs a boundary is compared
    es = shape(key, eps)
    sweep = oracle_sweep()
    kwargs = {"predicate_names": ()} if predicates == "none" else {}
    names = () if predicates == "none" else DEFAULT_PREDICATES
    for t1 in sweep:
        for t2 in sweep:
            want = reference_solve_two_fiber(t1, t2, es, names)
            assert solve_two_fiber(t1, t2, es, **kwargs) == want, (t1, t2)


def test_reference_finds_equation_solutions():
    # the comparison above is not vacuous: without predicates the [4] sweep
    # has solutions the default predicates reject
    es = E4()
    sweep = oracle_sweep()
    raw = [s for t1 in sweep for t2 in sweep
           for s in reference_solve_two_fiber(t1, t2, es, ())]
    kept = [s for t1 in sweep for t2 in sweep
            for s in reference_solve_two_fiber(t1, t2, es, DEFAULT_PREDICATES)]
    assert len(raw) > len(kept) >= 3


def test_int_quadratic_roots():
    # a = 0: linear, integral or not, and the degenerate a = b = 0
    assert _int_quadratic_roots(0, 2, -6) == [3]
    assert _int_quadratic_roots(0, -4, 6) == []
    assert _int_quadratic_roots(0, 0, 0) == []
    assert _int_quadratic_roots(0, 0, 5) == []
    # negative and non-square discriminants
    assert _int_quadratic_roots(1, 0, 1) == []
    assert _int_quadratic_roots(1, 0, -2) == []
    # a double root is listed once
    assert _int_quadratic_roots(1, -4, 4) == [2]
    assert _int_quadratic_roots(-3, 12, -12) == [2]
    # one integer root, one non-integer root: 2x^2 - 5x + 2 = (2x - 1)(x - 2)
    assert _int_quadratic_roots(2, -5, 2) == [2]
    assert _int_quadratic_roots(-2, 5, -2) == [2]
    # two integer roots, ascending
    assert _int_quadratic_roots(1, 1, -6) == [-3, 2]


def test_int_quadratic_roots_match_fraction_reference():
    for a in range(-4, 5):
        for b in range(-6, 7):
            for c in range(-6, 7):
                want = integer_roots(Fraction(a, 2), Fraction(b, 2), Fraction(c, 2))
                assert _int_quadratic_roots(a, b, c) == want, (a, b, c)


def test_two_fiber_relations_anchor_tuples():
    # the three solution tuples satisfy (5) and (6) exactly
    anchors = [
        dict(n=1, gamma=4, alpha=0, kappa=4, kappa_t=2, c=4, p=1,
             c_prime=1, p_prime=1, c_tilde=8, p_tilde=5, rho=16, rho_t=4),
        dict(n=1, gamma=4, alpha=0, kappa=4, kappa_t=2, c=4, p=3,
             c_prime=1, p_prime=1, c_tilde=8, p_tilde=1, rho=16, rho_t=4),
        dict(n=2, gamma=4, alpha=1, kappa=4, kappa_t=2, c=2, p=1,
             c_prime=1, p_prime=1, c_tilde=4, p_tilde=3, rho=16, rho_t=4),
    ]
    for kw in anchors:
        assert two_fiber_relations(**kw) == (0, 0)
        # and (1)/(2) on the tuple's two fibers, which have no boundary curve
        tup = FiberTuple(
            kw["n"], kw["gamma"], 0, kw["alpha"] + 4 - kw["n"], kw["kappa"],
            kw["kappa_t"], kw["c"], kw["p"], kw["c_prime"], kw["p_prime"],
            kw["c_tilde"], kw["p_tilde"], 0, 0,
        )
        assert check_ruling_equations(tup.scenario())[:2] == (0, 0)


def test_two_fiber_relations_d_mismatch():
    with pytest.raises(ValueError):
        two_fiber_relations(
            n=1, gamma=4, alpha=0, kappa=4, kappa_t=3, c=4, p=1,
            c_prime=1, p_prime=1, c_tilde=8, p_tilde=5, rho=16, rho_t=9,
        )


def test_check_ruling_equations_two_fiber():
    # the mixed-boundary scenario with kappa = 3: residuals of (1)-(2) vanish
    scenario = RulingScenario(
        n=1, gamma=3, d=36,
        fibers=(
            RulingFiber(((12, 6), (6, 1)), 2, 1, 1),
            RulingFiber(((9, 4),), 1, 0, 4),
        ),
        h1_order=1,
    )
    r1, r2, r3, r4 = check_ruling_equations(scenario)
    assert (r1, r2) == (0, 0)
    # the solver lays out the same two fibers from the tuple
    assert KAPPA_3_TUPLE.scenario() == scenario


def test_single_fiber_forces_kappa_one():
    # a lone singular fiber makes (3) read d*|H1| = uc1, i.e. kappa*|H1| = 1
    fiber = RulingFiber(((4, 1),), 1, 0, 2)
    assert fiber.kappa == 2
    scenario = RulingScenario(
        n=1, gamma=4, d=fiber.uc1 * fiber.kappa, fibers=(fiber,), h1_order=1,
    )
    _, _, r3, _ = check_ruling_equations(scenario)
    assert r3 != 0  # 8*1 - 4: no positive |H1| fits


def test_lcm_residual_detects_scaled_d():
    sols = solve_two_fiber(parse_chain("[2]"), parse_chain("[(3)]"), E4())
    sol = sols[0]
    good = sol.scenario(h1_order=2)
    r = check_ruling_equations(good)
    assert r[0] == 0 and r[1] == 0 and r[2] == 0
    # equation (4) is exactly what these tuples fail
    assert r[3] != 0
    halved = good._replace(d=good.d // 2)
    assert check_ruling_equations(halved)[3] != check_ruling_equations(good)[3]


def test_solver_finds_the_three_tuples():
    L = [parse_chain(s) for s in (
        "[2]", "[(2)]", "[(3)]", "[(4)]", "[(5)]",
        "[3]", "[4]", "[5]", "[6]", "[2,3]", "[3,2]",
    )]
    found = []
    for t1 in L:
        for t2 in L:
            found.extend(solve_two_fiber(t1, t2, E4()))
    got = {
        (s.n, s.gamma, s.kappa, s.kappa_t, s.c, s.p, s.c_tilde, s.p_tilde,
         s.b, s.t1, s.t2, s.t3)
        for s in found
    }
    assert got == {
        (1, 4, 4, 2, 4, 1, 8, 5, 2, (2,), (2, 2, 2), parse_chain("[3,3,(4)]")),
        (1, 4, 4, 2, 4, 3, 8, 1, 1, (2,), (4,), parse_chain("[(8),4]")),
        (2, 4, 4, 2, 2, 1, 4, 3, 2, (2, 2), (2,), parse_chain("[4,(6)]")),
    }
    # every tuple is rejected by the homology cross-check
    assert all(s.rejected_by_square_gcd for s in found)
    for s in found:
        assert s.minus_dd_over_de in (1, 4)
        assert s.gcd_c in (2, 4)


@pytest.mark.parametrize("t1,t2", [((), (4,)), ((1,), (1,)), ((2,), ()), ((2,), (3, 0))])
def test_solver_rejects_bad_twigs(t1, t2):
    with pytest.raises(ValueError, match="is not a nonempty admissible chain"):
        solve_two_fiber(t1, t2, E4())


def test_t3_reconstruction_values():
    from dgk.ruling import reconstruct_t3

    sols = solve_two_fiber(parse_chain("[2]"), parse_chain("[4]"), E4())
    assert len(sols) == 1
    assert format_chain(sols[0].t3) == "[(8),4]"
    assert sols[0].d_of_d == -16
    assert reconstruct_t3(sols[0]) == (1, parse_chain("[(8),4]"))


def test_adjoint_consistency_on_solutions():
    # e(adjoint of the lower chain) = 1 - e(lower chain), with the adjoint
    # realized by the section-side chain of the reconstruction
    sols = solve_two_fiber(parse_chain("[2]"), parse_chain("[(3)]"), E4())
    s = sols[0]
    z_l = (3, 3)  # lower chain of the second fiber for this tuple
    adj = chains.chain_from_e(1 - chains.e(z_l))
    assert chains.e(adj) + chains.e(z_l) == 1


def second_fiber_chains(tup):
    """(section-side chain, lower chain) of the first pair of the second
    fiber of a (5)/(6) tuple, rebuilt as the solver rebuilds that fiber."""
    tree_t = reconstruct_fiber(tup.fibers()[1].full_pairs())
    zut, _, zlt = tree_t.first_pair_parts()
    upper = tuple(tree_t.weights[v] for v in zut) + (tree_t.weights[0],)
    return upper, tuple(tree_t.weights[v] for v in zlt)


def test_first_pair_parts_walk_matches_the_component_search():
    # one walk of the group-1 curves from the base component, split at Z1,
    # against the component search it replaced, on every fiber of the sweep
    count = 0
    for seq in all_sequences(40, 4):
        tree = reconstruct_fiber(seq)
        assert tree.first_pair_parts() == first_pair_parts_by_components(tree), seq
        count += 1
    assert count == 7360


def test_adjoint_consistency_over_oracle_sweep():
    # on every (5)/(6) tuple of the oracle sweep, the section-side chain of
    # the second fiber is the adjoint of its lower chain, e + e' = 1
    checked = 0
    sweep = oracle_sweep()
    for key, eps in SOLVER_SHAPES:
        es = shape(key, eps)
        for t1 in sweep:
            for t2 in sweep:
                for tup in _equation_solutions(t1, t2, es):
                    upper, lower = second_fiber_chains(tup)
                    if lower:
                        assert upper == chains.chain_from_e(1 - chains.e(lower)), tup
                        checked += 1
    assert checked > 0


def test_tail_chain_23_branch():
    out = tail_chain_23_branch()
    assert out["quadratic"] == (3, -7, -46)
    assert not out["square_discriminant"]
    assert out["solutions"] == []


def test_second_fiber_square_branch():
    assert second_fiber_square_branch() == [(5, 4, 9, 4)]


def test_two_run_twig_branch():
    sols = two_run_twig_branch(E4())
    assert len(sols) == 1
    s = sols[0]
    assert (s.kappa, s.c_prime, s.p_prime) == (2, 25, 6)
    assert format_chain(s.t1) == "[(3),7,(6)]"
    assert s.b == 2
    assert s.d_of_d == -25
    assert s.rejected_by_square_gcd
    assert not is_positive_perfect_square(s.minus_dd_over_de)


def test_section_side_32_minimalization():
    ws = minimalized_section_side_32()
    assert ws == [2, 2]
    assert chains.d(tuple(ws)) == 3


def test_minimalize_chain():
    assert minimalize_chain([3, 2, 2, 2, 1]) == [2]
    assert minimalize_chain([1]) == []
    assert minimalize_chain([2, 1, 3]) == []
    assert minimalize_chain([4, 1, 4]) == [3, 3]
    # blowing down the first (-1)-curve leaves the second at weight 0
    with pytest.raises(ContractionError):
        minimalize_chain([1, 1])


def test_contract_boundary():
    # b = 5 | 2, 1, 3, then a fixed 4: blowing down the 1 gives 5 | 1, 2, 4,
    # then 4 | 1, 4 and 3 | 3; the fixed entry is lowered, never blown down
    assert contract_boundary(5, [(2, True), (1, True), (3, True), (4, False)]) == (3, (3,))
    with pytest.raises(ContractionError, match="branch weight dropped to 0"):
        contract_boundary(1, [(1, True), (3, False)])
    with pytest.raises(ContractionError, match="third twig contracted away entirely"):
        contract_boundary(3, [(1, True)])
    with pytest.raises(ContractionError, match=r"third twig not admissible: \[1\]"):
        contract_boundary(3, [(1, False)])
