"""The reference routes: slow, independent computations the tests compare
the package against.

The package computes every discriminant, bark, stripped shape and solver
tuple in closed form.  The generic routes those closed forms replaced live
here and nowhere else: the weighted tree with its determinant and
negative-definiteness test, the dense linear solve for barks, the
per-weight recurrence for a chain's Bk^2, the tree route that strips
external (-2)-curves, the simulated multiplicity trace, the
continued-fraction recurrence for e, d'' of a chain, the two-fiber solver
and the square/zar_bk2 entries in ``Fraction`` arithmetic, the ruling
equations (5)/(6) as the paper writes them, the predicate report as one
function in ``Fraction`` arithmetic, the verdict one hit at a time, a
fork's twig sums in their symmetric form and the scan kernel one twig
triple at a time.  ``tests/test_source.py`` keeps them
out of the package: every package function must have a caller in the
package.

Test files import from here with ``from reference import ...``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from dgk import chains
from dgk.barks import (
    BarkCoefficients,
    ForkInvariants,
    eshape_catalog,
    fork_invariants,
    fork_sums,
    require_admissible_fork,
    shape_of,
)
from dgk.graphs import Fork, Weights, format_chain
from dgk.pairs import FiberTree
from dgk.predicates import PREDICATES, BoundaryCandidate, PredicateReport
from dgk.ruling import FiberTuple, _assemble_solution

# ---------------------------------------------------------------------------
# weighted trees: intersection matrices, determinants, definiteness


class WeightedTree:
    """A tree of weighted vertices; the common carrier for matrix checks."""

    def __init__(self, weights: list[int], edges: list[tuple[int, int]]):
        n = len(weights)
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"bad edge ({a},{b})")
            adj[a].add(b)
            adj[b].add(a)
        if n and len(edges) != n - 1:
            raise ValueError("a tree on n vertices has n-1 edges")
        if n and not self._connected(adj):
            raise ValueError("graph is not connected")
        self.weights = list(weights)
        self.adj = adj

    @staticmethod
    def _connected(adj: list[set[int]]) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(adj)

    @classmethod
    def from_chain(cls, weights: Weights) -> "WeightedTree":
        edges = [(i, i + 1) for i in range(len(weights) - 1)]
        return cls(list(weights), edges)

    @classmethod
    def from_fork(cls, fork: Fork) -> "WeightedTree":
        # vertex 0 is the branch; twigs follow tip-first, so the last vertex
        # of each twig is wired to the branch.
        weights = [fork.b]
        edges = []
        for twig in fork.twigs:
            if not twig:
                raise ValueError("fork twigs must be nonempty")
            start = len(weights)
            weights.extend(twig)
            for i in range(len(twig) - 1):
                edges.append((start + i, start + i + 1))
            edges.append((len(weights) - 1, 0))
        return cls(weights, edges)

    @classmethod
    def from_fiber(cls, fiber: FiberTree) -> "WeightedTree":
        edges = [(a, b) for a in range(len(fiber)) for b in fiber.adj[a] if a < b]
        return cls(fiber.weights, edges)

    def intersection_matrix(self) -> list[list[int]]:
        """Diagonal -w_i, entry 1 for adjacent vertices."""
        n = len(self.weights)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = -self.weights[i]
            for j in self.adj[i]:
                m[i][j] = 1
        return m

    def minus_intersection_matrix(self) -> list[list[int]]:
        n = len(self.weights)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = self.weights[i]
            for j in self.adj[i]:
                m[i][j] = -1
        return m

    def discriminant(self) -> int:
        """Determinant of the minus intersection matrix; 1 for the empty tree.

        Computed by expanding at a vertex: removing a vertex C splits the tree
        into components R_i met in C_i, and
        d = w_C * prod d(R_i) - sum_i d(R_i - C_i) * prod_{j != i} d(R_j).
        """
        if not self.weights:
            return 1
        return self._disc_connected(frozenset(range(len(self.weights))))

    def _disc_connected(self, nodes: frozenset[int]) -> int:
        memo = getattr(self, "_disc_memo", None)
        if memo is None:
            memo = self._disc_memo = {}
        cached = memo.get(nodes)
        if cached is not None:
            return cached
        c = next(iter(nodes))
        comps = self._components(nodes - {c})
        d_comp = [self._disc_connected(comp) for comp in comps]
        result = self.weights[c]
        for d in d_comp:
            result *= d
        for i, comp in enumerate(comps):
            ci = next(v for v in comp if c in self.adj[v])
            term = self._disc_forest(comp - {ci})
            for j, d in enumerate(d_comp):
                if j != i:
                    term *= d
            result -= term
        memo[nodes] = result
        return result

    def _disc_forest(self, nodes: frozenset[int]) -> int:
        result = 1
        for comp in self._components(nodes):
            result *= self._disc_connected(comp)
        return result

    def _components(self, nodes: frozenset[int]) -> list[frozenset[int]]:
        remaining = set(nodes)
        comps = []
        while remaining:
            seed = remaining.pop()
            comp = {seed}
            stack = [seed]
            while stack:
                v = stack.pop()
                for u in self.adj[v]:
                    if u in remaining:
                        remaining.discard(u)
                        comp.add(u)
                        stack.append(u)
            comps.append(frozenset(comp))
        return comps

    def is_negative_definite(self) -> bool:
        """All leading principal minors of the minus matrix positive (exact).

        One fraction-free elimination pass: the Bareiss pivots are exactly the
        leading principal minors, so the first nonpositive pivot decides.
        """
        n = len(self.weights)
        if n == 0:
            return True
        a = self.minus_intersection_matrix()
        prev = 1
        for k in range(n):
            if a[k][k] <= 0:
                return False
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return True


def int_det(matrix: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant over the integers."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_admissible_fork(fork: Fork) -> bool:
    """Whether :func:`dgk.barks.require_admissible_fork` takes the fork:
    the gate the catalog once applied to each of its forks."""
    try:
        require_admissible_fork(fork)
    except ValueError:
        return False
    return True


def fork_to_json(fork: Fork) -> str:
    """The fork description :func:`dgk.graphs.parse_fork` reads."""
    return json.dumps({"b": fork.b, "twigs": [format_chain(t) for t in fork.twigs]})


# ---------------------------------------------------------------------------
# barks: the dense intersection matrix and an exact Gaussian elimination


def exact_solve(matrix, rhs):
    """Solve a nonsingular square system exactly by Gaussian elimination."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / pv
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    return [a[i][n] / a[i][i] for i in range(n)]


def reference_bark(tree, rhs):
    """The bark solving Bk . D_i = rhs_i, and Bk^2 = sum of coefficient * rhs."""
    coeffs = exact_solve(tree.intersection_matrix(), rhs)
    return BarkCoefficients(tuple(coeffs), sum(c * r for c, r in zip(coeffs, rhs)))


def reference_bark_one_sided(ws):
    return reference_bark(WeightedTree.from_chain(ws), [-1] + [0] * (len(ws) - 1))


def reference_bark_chain(ws):
    tree = WeightedTree.from_chain(ws)
    return reference_bark(tree, [len(tree.adj[i]) - 2 for i in range(len(ws))])


def reference_bark_fork(fork):
    tree = WeightedTree.from_fork(fork)
    return reference_bark(tree, [len(tree.adj[i]) - 2 for i in range(len(tree.weights))])


def chain_bark_square(weights: Weights) -> Fraction:
    """Bk^2 of an admissible chain, -(d(ws[1:]) + d(ws[:-1]) + 2)/d, by one
    pass of d = a*d_prev - d_prev2 along the chain and along its tail."""
    d_prev, d_full = 1, weights[0]
    dp_prev, dp = 0, 1
    for a in weights[1:]:
        d_prev, d_full = d_full, a * d_full - d_prev
        dp_prev, dp = dp, a * dp - dp_prev
    return -Fraction(dp + d_prev + 2, d_full)


# ---------------------------------------------------------------------------
# external (-2)-curves stripped on the tree


def strip_external_minus_two(tree: WeightedTree) -> tuple[list[int], list[list[int]]]:
    """Remove (-2)-tips repeatedly; returns (kept vertices, removed components).

    The removed vertices form the divisor of external (-2)-curves; they are
    grouped into connected components (as subgraphs of the original tree).
    """
    n = len(tree.weights)
    alive = set(range(n))
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            deg = len(tree.adj[v] & alive)
            if deg <= 1 and tree.weights[v] == 2:
                alive.discard(v)
                changed = True
    removed = set(range(n)) - alive
    comps: list[list[int]] = []
    seen: set[int] = set()
    for v in sorted(removed):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        stack = [v]
        while stack:
            x = stack.pop()
            for u in tree.adj[x]:
                if u in removed and u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return sorted(alive), comps


def decompose_exceptional(graph: Weights | Fork) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """(weights of E, weight tuples of the external (-2)-components)."""
    tree = (
        WeightedTree.from_fork(graph)
        if isinstance(graph, Fork)
        else WeightedTree.from_chain(graph)
    )
    kept, removed = strip_external_minus_two(tree)
    e_ws = tuple(tree.weights[v] for v in kept)
    delta = [tuple(tree.weights[v] for v in comp) for comp in removed]
    return e_ws, delta


# ---------------------------------------------------------------------------
# chains, pair sequences and catalog shapes


def oriented_chains_by_walk(target: int) -> list[Weights]:
    """All oriented admissible chains with discriminant ``target``.

    Walks the prepend recursion d_new = a*d - d' from the empty chain with
    an explicit stack, so a chain of target - 1 curves needs no call depth;
    d strictly increases at each step, so the search tree is finite.
    Independent of the continued-fraction inversion the package uses.
    """
    if target < 1:
        raise ValueError("discriminant must be >= 1")
    found: list[Weights] = []
    stack: list[tuple[Weights, int, int]] = [((), 1, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        chain, dd, dp = pop()
        if dd == target:
            if chain:
                found.append(chain)
            continue
        # the children a*dd - dp <= target, walked in increasing a: pushed
        # last, so popped first, are those of d <= (target + dd)/2, which
        # have children themselves; the rest are leaves, and only the one
        # of d = target is kept
        a = (target + dp) // dd
        if a * dd - dp == target:
            push(((a,) + chain, target, dd))
        a = ((target + dd) // 2 + dp) // dd
        while a >= 2:
            push(((a,) + chain, a * dd - dp, dd))
            a -= 1
    return found


def d_second(weights: Weights) -> int:
    """d' of the chain with its first component removed; 0 if length < 2."""
    if len(weights) < 2:
        return 0
    return chains.d_prime(weights[1:])


def all_admissible_chains_up_to(limit: int):
    """All oriented admissible chains with discriminant <= limit, by the walk."""
    for dd in range(2, limit + 1):
        yield from oriented_chains_by_walk(dd)


@cache
def reference_chain_barks(limit: int):
    """(chain, full bark, one-sided bark) by the dense solve for every
    oriented admissible chain with discriminant <= limit, computed once a
    session for the tests that compare the closed forms with it."""
    return tuple(
        (ws, reference_bark_chain(ws), reference_bark_one_sided(ws))
        for ws in all_admissible_chains_up_to(limit)
    )


def e_by_recurrence(weights):
    """e via e(T) = 1/(a1 - e(T - T1)); independent of the d'/d route."""
    value = Fraction(0)
    for a in reversed(weights):
        value = 1 / (a - value)
    return value


def mu_trace(c: int, p: int) -> list[int]:
    """Multiplicities of the blow-up centers of one pair group, in order."""
    if not c >= p >= 1:
        raise ValueError(f"need c >= p >= 1, got {(c, p)}")
    out = []
    while c != p:
        out.append(min(c, p))
        if c - p >= p:
            c = c - p
        else:
            c, p = p, c - p
    out.append(c)
    return out


def all_sequences(c1_max, h_max):
    """Every valid pair sequence with c1 <= c1_max and at most h_max pairs."""

    def extend(prefix, c_next):
        for p in range(1, c_next + 1):
            nxt = prefix + ((c_next, p),)
            g = gcd(c_next, p)
            if g == 1:
                yield nxt
            elif len(nxt) < h_max:
                yield from extend(nxt, g)

    for c1 in range(1, c1_max + 1):
        yield from extend((), c1)


def first_pair_parts_by_components(tree: FiberTree) -> tuple[list[int], int, list[int]]:
    """(Z_u, Z1, Z_l) of a fiber: the curves of the first pair, split at the
    highest-multiplicity one; Z_u is the side facing the base component.
    The route of :meth:`dgk.pairs.FiberTree.first_pair_parts` before it
    became one walk: search the components of the group-1 curves other than
    Z1, and order each by its breadth-first distance from Z1."""
    g1 = {v for v in range(len(tree)) if tree.groups[v] == 1}
    z1 = max(g1)  # vertices are numbered in creation order
    rest = g1 - {z1}
    comp_u: set[int] = set()
    comp_l: set[int] = set()
    for v in rest:
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for u in tree.adj[x]:
                if u in rest and u not in comp:
                    comp.add(u)
                    stack.append(u)
        if any(0 in tree.adj[x] for x in comp):
            comp_u |= comp
        else:
            comp_l |= comp

    def by_distance(comp: set[int]) -> list[int]:
        dist = {z1: 0}
        queue = [z1]
        for x in queue:
            for u in tree.adj[x]:
                if u in comp and u not in dist:
                    dist[u] = dist[x] + 1
                    queue.append(u)
        return sorted(comp, key=dist.__getitem__)

    return by_distance(comp_u), z1, by_distance(comp_l)


def chain_weights(tree: FiberTree) -> Weights:
    """The weights of an unbranched fiber in chain order from U."""
    return tuple(tree.weights[v] for v in tree.chain_order())


@cache
def _shapes_by_key(size):
    return {(s.key(), s.epsilon): s for s in eshape_catalog(size)}


def shape(key, eps, size=12):
    """The catalog shape of at most ``size`` components with this key and epsilon."""
    return _shapes_by_key(size)[(key, eps)]


# ---------------------------------------------------------------------------
# the verdict one hit at a time


def short_circuit_verdict(record, twigs, eshape, names, group_order_mode="actual") -> bool:
    """Whether the hit (record, twigs, eshape) passes every predicate of
    ``names``, its tests made in the order of ``names`` up to the first that
    fails: the verdict the package once decided hit by hit, and the oracle of
    the tests ``dgk.predicates.decide`` makes in a mode it has no table of."""
    g = eshape.group_order_for(group_order_mode)
    return all(PREDICATES[name].test(record, twigs, eshape, g) for name in names)


# ---------------------------------------------------------------------------
# the twig sums and the scan kernel, one triple at a time


def symmetric_fork_sums(r1, r2, r3) -> tuple[int, int, int, int]:
    """(D, S, E, Et) of three twig records in their symmetric form:
    D = d1*d2*d3 and, with Q_i = D/d_i, S = sum Q_i, E = sum d'_i*Q_i and
    Et = sum d(T_i[:-1])*Q_i."""
    q1 = r2.d * r3.d
    q2 = r1.d * r3.d
    q3 = r1.d * r2.d
    return (
        r1.d * q1,
        q1 + q2 + q3,
        r1.d_prime * q1 + r2.d_prime * q2 + r3.d_prime * q3,
        r1.d_prime_rev * q1 + r2.d_prime_rev * q2 + r3.d_prime_rev * q3,
    )


def reference_scan_triples(triples, bounds, index) -> list[BoundaryCandidate]:
    """The scan one (r1, r2, r3) triple at a time, with the twig sums of
    ``fork_sums`` per triple: the oracle of the pair-major
    ``dgk.search._scan_triples``."""
    found: list[BoundaryCandidate] = []
    names, b_values, delta_gmin = bounds.predicates, bounds.b, bounds.delta_gmin
    for r1, r2, r3 in triples:
        dd, s, e, et = fork_sums(r1, r2, r3)
        if s >= dd:  # delta >= 1
            continue
        if delta_gmin is not None and s * delta_gmin + dd <= dd * delta_gmin:
            continue
        e_minus_1 = e - dd
        gap_sq = (dd - s) ** 2
        key = 4 + r1.kd + r2.kd + r3.kd
        for b in b_values:
            slack = et - b * dd
            if slack <= 0:  # b >= e~
                continue
            bucket = index[key + b]
            if not bucket:
                continue
            num = e_minus_1 * slack - gap_sq
            den = dd * slack
            g = gcd(num, den)
            held = bucket.get((num // g, den // g))
            for spec in () if held is None else index.specs_at(held):
                shape = shape_of(spec)
                if bounds.exclude_eps2_chains and shape.epsilon == 2 and not shape.is_fork:
                    continue
                twigs = (r1.ws, r2.ws, r3.ws)
                if short_circuit_verdict(ForkInvariants(b, dd, s, e, et), twigs, shape, names,
                                         bounds.group_order_mode):
                    found.append(BoundaryCandidate(b, twigs, shape))
    found.sort(key=BoundaryCandidate.sort_key)
    return found


# ---------------------------------------------------------------------------
# the square and zar_bk2 predicates in Fraction arithmetic


def cand_et(cand):
    return sum(chains.e_tilde(t) for t in cand.twigs)


def cand_delta(cand):
    return sum(chains.delta(t) for t in cand.twigs)


def reference_square_and_zar_bk2(cand):
    """The square and zar_bk2 entries by the Fraction route:
    d(D) = d1*d2*d3*(b - e~) and P^2 = (1 - delta)^2/(e~ - b)."""
    es = cand.eshape
    d1, d2, d3 = (chains.d(t) for t in cand.twigs)
    e = sum(chains.e(t) for t in cand.twigs)
    et, delta = cand_et(cand), cand_delta(cand)
    ratio = -(Fraction(d1 * d2 * d3) * (cand.b - et)) / es.d
    root = isqrt(ratio.numerator) if ratio > 0 else -1
    is_square = ratio.denominator == 1 and root * root == ratio.numerator
    square = (is_square, f"-d(D)/d(E) = {ratio}")
    if et == cand.b or delta == 1:
        return square, (False, "degenerate: e~ = b or delta = 1")
    rhs = -((1 - delta) ** 2 / (et - cand.b)) + e - 1 - es.epsilon
    return square, (es.bk_square == rhs, f"{es.bk_square} vs {rhs}")


# ---------------------------------------------------------------------------
# the predicate suite as one function, each predicate put in turn


def is_positive_perfect_square(x: Fraction) -> bool:
    if x <= 0 or x.denominator != 1:
        return False
    n = x.numerator
    r = isqrt(n)
    return r * r == n


def reference_report(cand: BoundaryCandidate, group_order_mode: str = "actual") -> PredicateReport:
    """The predicate report as one function with a put per predicate, in
    the package's order; the oracle of :data:`dgk.predicates.PREDICATES`."""
    inv = fork_invariants(cand.fork)
    delta, e, et = inv.delta, inv.e, inv.e_tilde
    es = cand.eshape
    eps = es.epsilon
    g = es.group_order_for(group_order_mode)
    bk2_e = es.bk_square
    entries: dict[str, tuple[bool, str]] = {}

    def put(name: str, ok: bool, witness: object) -> None:
        entries[name] = (bool(ok), str(witness))

    # Noether count: #E + #D = 7 + eps + K.D + K.E
    size_d = 1 + sum(len(t) for t in cand.twigs)
    k_dot_d = (cand.b - 2) + sum(w - 2 for t in cand.twigs for w in t)
    lhs = es.size + size_d
    rhs = 7 + eps + k_dot_d + es.ke
    put("noether", lhs == rhs, f"{lhs} vs {rhs}")

    # delta <= e = -Bk^2 D <= 1 + eps + Bk^2 E + 3/|G|
    bmy_rhs = 1 + eps + bk2_e + Fraction(3, g)
    put("bmy", delta <= e <= bmy_rhs, f"{delta} <= {e} <= {bmy_rhs}")

    # the three eps < 2 inequalities (s = 3 twigs throughout)
    if eps < 2:
        put("eps2_ii", 1 - Fraction(6, g) <= delta, f"1-6/{g} vs {delta}")
        val = eps + bk2_e + Fraction(9, g)
        put("eps2_iii", val >= 0, f"{val}")
        if es.delta_empty:
            bound = Fraction(eps) + Fraction(es.ke, 4) + Fraction(1, 2)
            put("eps2_iv", e + delta >= bound, f"{e + delta} vs {bound}")
        else:
            put("eps2_iv", True, "skipped: external (-2)-curves present")
    else:
        for name in ("eps2_ii", "eps2_iii", "eps2_iv"):
            put(name, True, "skipped: eps = 2")

    # Zariski-decomposition conditions on the fork boundary
    put("zar_b", cand.b in (1, 2) and cand.b < et, f"b={cand.b}, e~={et}")
    put("zar_delta", delta < 1, f"delta={delta}")
    if et != cand.b and delta != 1:
        rhs_bk = -((1 - delta) ** 2) / (et - cand.b) + e - 1 - eps
        put("zar_bk2", bk2_e == rhs_bk, f"{bk2_e} vs {rhs_bk}")
    else:
        put("zar_bk2", False, "degenerate: e~ = b or delta = 1")

    # -d(D)/d(E) must be a positive perfect square
    ratio = Fraction(-inv.d, es.d)
    put("square", is_positive_perfect_square(ratio), f"-d(D)/d(E) = {ratio}")

    # K.E + 2 eps <= 5 with the single allowed exception
    exceptional = es.key() == "[4]" and eps == 2
    put("ke", es.ke + 2 * eps <= 5 or exceptional, f"{es.ke}+2*{eps}")

    # strict inequalities of the general-type intermediate surface
    w2_ok = (
        et + delta < cand.b + 1
        and delta + Fraction(1, g) > 1
        and eps != 0
    )
    put(
        "w2",
        w2_ok,
        f"e~+delta={et + delta} vs b+1={cand.b + 1};"
        f" delta+1/|G|={delta + Fraction(1, g)}",
    )
    put(
        "w2_delta_g",
        delta + Fraction(1, g) > 1,
        f"{delta + Fraction(1, g)}",
    )

    # when the external (-2)-part has three components the branch weight is 2
    put(
        "delta3",
        es.n_delta_components < 3 or cand.b == 2,
        f"delta components={es.n_delta_components}, b={cand.b}",
    )

    # context inequality of the nonpositive-Kodaira branch
    put(
        "et_plus_delta_ge_2",
        et + delta >= 2,
        f"{et + delta}",
    )

    # boundary contains no chain (2,1,2): at most one twig may end in a
    # (-2)-curve when the branch vertex is a (-1)-curve
    two_ends = sum(1 for t in cand.twigs if t[-1] == 2)
    put(
        "no_212",
        cand.b != 1 or two_ends <= 1,
        f"b={cand.b}, twigs ending in 2: {two_ends}",
    )

    # every twig of minimal discriminant is a single curve
    dmin = min(chains.d(t) for t in cand.twigs)
    min_ok = all(
        len(t) == 1 for t in cand.twigs if chains.d(t) == dmin
    )
    put("min_twig_irreducible", min_ok, f"d_min={dmin}")

    return PredicateReport(entries)


# ---------------------------------------------------------------------------
# the two-fiber solver: equations (5)/(6) as the paper writes them, (6) in
# Fraction arithmetic with rho as a rational form in kappa, and an uncached
# sweep of the (c', p') pairs


def coprime_pairs_with_length(length):
    """Brute force: every coprime c >= p >= 1 up to c = Fib(length + 1),
    which bounds c for a trace of ``length`` steps."""
    fa, fb = 1, 1
    for _ in range(length):
        fa, fb = fb, fa + fb
    out = []
    for c in range(1, fb + 1):
        for p in range(1, c + 1):
            if gcd(c, p) == 1 and len(mu_trace(c, p)) == length:
                out.append((c, p))
    return out


def tail_pairs_by_splits(t1, alpha, k):
    """The read of (c', p') off T1 with ``chains.d`` of each split's
    A + [1] + B, A and B taken afresh: the oracle of the continuant read
    ``dgk.ruling._tail_pairs``."""
    body, r = t1[:len(t1) - alpha], t1[len(t1) - alpha:]
    for i, w in enumerate(body):
        a, b = body[:i], body[i + 1:]
        if w == 2 + k and chains.d(a + (1,) + b) == 1:
            c_pr, p_pr = chains.d(a), chains.d(b)
            if p_pr <= c_pr and r == ((1 - -c_pr // p_pr,) + (2,) * alpha)[:alpha]:
                yield c_pr, p_pr


def integer_roots(a: Fraction, b: Fraction, c: Fraction) -> list[int]:
    """Integer roots of a x^2 + b x + c = 0 (a may be zero)."""
    if a == 0:
        if b == 0:
            return []
        x = -c / b
        return [int(x)] if x.denominator == 1 else []
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    num = disc.numerator * disc.denominator
    r = isqrt(num)
    if r * r != num:
        return []
    sq = Fraction(r, disc.denominator)
    roots = []
    for sign in (1, -1):
        x = (-b + sign * sq) / (2 * a)
        if x.denominator == 1:
            roots.append(int(x))
    return sorted(set(roots))


def _rho_form(delta_size: int) -> tuple[Fraction, Fraction]:
    """rho as a*kappa^2 + a0: (1, 0) without boundary curves, else the
    single-boundary-curve form (kappa^2+1)/2."""
    if delta_size == 0:
        return Fraction(1), Fraction(0)
    if delta_size == 1:
        return Fraction(1, 2), Fraction(1, 2)
    raise ValueError("only 0 or 1 boundary curves per fiber are supported")


def _rho_value(kappa: int, delta_size: int) -> int:
    a, a0 = _rho_form(delta_size)
    val = a * kappa * kappa + a0
    if val.denominator != 1:
        raise ValueError(f"rho not integral for kappa={kappa}")
    return int(val)


def two_fiber_relations(
    *,
    n: int,
    gamma: int,
    alpha: int,
    kappa: int,
    kappa_t: int,
    c: int,
    p: int,
    c_prime: int,
    p_prime: int,
    c_tilde: int,
    p_tilde: int,
    rho: int,
    rho_t: int,
) -> tuple[int, int]:
    """Exact residuals of equations (5) and (6); requires d = c kappa = c~ kappa~."""
    d = c * kappa
    if d != c_tilde * kappa_t:
        raise ValueError(f"d mismatch: c*kappa = {d}, c~*kappa~ = {c_tilde * kappa_t}")
    r5 = d * n + gamma - 2 - (kappa * (p + alpha * c_prime + p_prime) + kappa_t * p_tilde)
    r6 = d * (gamma - 2) - gamma - (
        kappa * kappa * (c - c_prime) * (alpha * c_prime + p_prime) - rho - rho_t
    )
    return r5, r6


def reference_equation_solutions(t1, t2, eshape):
    """The solver's sweep up to the (5)/(6) check, with (6) solved over the
    rationals; yields the FiberTuple of each solution."""
    gamma = eshape.e_weights[0]
    eps = eshape.epsilon
    ke = eshape.ke
    n_delta_curves = eshape.size - len(eshape.e_weights)
    splits = [(0, 0)] if n_delta_curves == 0 else [(1, 0), (0, 1)]
    d2 = chains.d(t2)
    p_over = d2 - chains.d_prime(t2)
    for n in (1, 2, 3):
        alpha = n + eps + ke - 4
        if not 0 <= alpha <= n:
            continue
        h = 3 + alpha
        tail_len = len(t1) - (h - 3)
        if tail_len < 1:
            continue
        for df, dft in splits:
            c_h = 1 + df
            ct_h = 1 + dft
            for c_pr, p_pr in coprime_pairs_with_length(tail_len):
                c = c_pr * d2
                p = c_pr * p_over
                a, a0 = _rho_form(df)
                for kappa_t in range(2, 3 * c + 1):
                    if (c * (gamma - 2)) % kappa_t:
                        continue
                    if dft == 1 and kappa_t % 2 == 0:
                        continue
                    rho_t = _rho_value(kappa_t, dft)
                    qa = Fraction((c - c_pr) * (alpha * c_pr + p_pr)) - a
                    qb = Fraction(-c * (gamma - 2))
                    qc = Fraction(gamma) - a0 - rho_t
                    for kappa in integer_roots(qa, qb, qc):
                        if kappa < 2 or (df == 1 and kappa % 2 == 0):
                            continue
                        if (kappa - (c_h - 1)) % c_h or (kappa - (c_h - 1)) // c_h < 1:
                            continue
                        d = c * kappa
                        if d % kappa_t:
                            continue
                        c_t = d // kappa_t
                        if (kappa_t - (ct_h - 1)) % ct_h:
                            continue
                        if (kappa_t - (ct_h - 1)) // ct_h < 1:
                            continue
                        num = d * n + gamma - 2 - kappa * (p + alpha * c_pr + p_pr)
                        if num % kappa_t:
                            continue
                        p_t = num // kappa_t
                        if not 1 <= p_t <= c_t or gcd(c_t, p_t) != 1:
                            continue
                        if (gamma - 2) % gcd(kappa, kappa_t):
                            continue
                        rho = _rho_value(kappa, df)
                        r5, r6 = two_fiber_relations(
                            n=n, gamma=gamma, alpha=alpha, kappa=kappa,
                            kappa_t=kappa_t, c=c, p=p, c_prime=c_pr,
                            p_prime=p_pr, c_tilde=c_t, p_tilde=p_t,
                            rho=rho, rho_t=rho_t,
                        )
                        if r5 or r6:
                            continue
                        yield FiberTuple(
                            n=n, gamma=gamma, epsilon=eps, ke=ke, kappa=kappa,
                            kappa_t=kappa_t, c=c, p=p, c_prime=c_pr,
                            p_prime=p_pr, c_tilde=c_t, p_tilde=p_t,
                            delta_f_size=df, delta_ft_size=dft,
                        )


def reference_solve_two_fiber(t1, t2, eshape, predicate_names):
    """solve_two_fiber with the default b set and group-order mode."""
    solutions = []
    for tup in reference_equation_solutions(t1, t2, eshape):
        sol = _assemble_solution(tup, t1, t2, eshape)
        if sol is None or sol.b not in (1, 2):
            continue
        cand = BoundaryCandidate(sol.b, (sol.t1, sol.t2, sol.t3), eshape)
        if reference_report(cand).passes(predicate_names):
            solutions.append(sol)
    solutions.sort(key=lambda s: s.sort_key())
    return solutions
