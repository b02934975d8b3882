"""Hamburger-Noether pairs and fiber reconstruction.

A sequence of pairs (c_i, p_i) with c_i >= p_i >= 1, c_{i+1} = gcd(c_i, p_i)
and gcd(c_h, p_h) = 1 describes how a degenerate fiber of a ruling is built
from a smooth 0-curve U by blow-ups.  Each pair drives one Euclidean group of
blow-ups: while c > p the infinitely-near point stays on the intersection of
the two active curves and the contact pair drops to (c-p, p) or swaps to
(p, c-p); at c = p one final blow-up separates the germ, ending the group.
The first blow-up of a group happens at a generic point of the previous
group's last curve.  Multiplicities add along centers, weights grow by one
each time a curve is touched.

The smooth case is the single pair (1, 0): the fiber is the 0-curve itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .graphs import Weights, WeightedTree


class PairSequenceError(ValueError):
    """A pair sequence violating the gcd/order conventions."""


@dataclass(frozen=True)
class CharPairSeq:
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ps = self.pairs
        if not ps:
            raise PairSequenceError("empty pair sequence")
        if ps == ((1, 0),):
            return
        for i, (c, p) in enumerate(ps):
            if c < 1 or p < 1:
                raise PairSequenceError(
                    f"pair {i + 1} is {c, p}; entries must be positive"
                    " (only the smooth sequence (1,0) allows zero)"
                )
            if c < p:
                raise PairSequenceError(f"pair {i + 1} is {c, p}; needs c >= p")
        for i in range(len(ps) - 1):
            g = gcd(*ps[i])
            if ps[i + 1][0] != g:
                raise PairSequenceError(
                    f"pair {i + 2} starts with {ps[i + 1][0]},"
                    f" expected gcd{ps[i]} = {g}"
                )
        if gcd(*ps[-1]) != 1:
            raise PairSequenceError("last pair must be coprime")

    @property
    def h(self) -> int:
        return len(self.pairs)

    @property
    def smooth(self) -> bool:
        return self.pairs == ((1, 0),)

    @property
    def c1(self) -> int:
        return self.pairs[0][0]


class FiberTree:
    """Fiber produced by a pair sequence: a weighted tree with multiplicities.

    Vertex 0 is U (the component the fiber was produced from); vertices carry
    (weight, multiplicity, group index); ``neg_curve`` is the last curve of
    the construction, the unique (-1)-curve when the fiber is singular.
    """

    def __init__(self) -> None:
        self.weights: list[int] = []
        self.mults: list[int] = []
        self.groups: list[int] = []
        self.adj: list[set[int]] = []
        self.neg_curve: int | None = None

    def add_node(self, weight: int, mult: int, group: int) -> int:
        self.weights.append(weight)
        self.mults.append(mult)
        self.groups.append(group)
        self.adj.append(set())
        return len(self.weights) - 1

    def connect(self, a: int, b: int) -> None:
        self.adj[a].add(b)
        self.adj[b].add(a)

    def disconnect(self, a: int, b: int) -> None:
        self.adj[a].discard(b)
        self.adj[b].discard(a)

    def touch(self, v: int) -> None:
        self.weights[v] += 1

    def __len__(self) -> int:
        return len(self.weights)

    def is_chain(self) -> bool:
        return all(len(nb) <= 2 for nb in self.adj)

    def chain_order(self) -> list[int]:
        """Vertices in chain order starting from U's end; requires a path."""
        if not self.is_chain():
            raise ValueError("fiber is branched")
        n = len(self.weights)
        if n == 1:
            return [0]
        tips = [v for v in range(n) if len(self.adj[v]) == 1]
        start = 0 if len(self.adj[0]) == 1 else min(tips)
        order = [start]
        prev = None
        cur = start
        while len(order) < n:
            nxt = next(u for u in self.adj[cur] if u != prev)
            order.append(nxt)
            prev, cur = cur, nxt
        if order[0] != 0 and order[-1] == 0:
            order.reverse()
        return order

    def chain_weights(self) -> Weights:
        return tuple(self.weights[v] for v in self.chain_order())

    def chain_mults(self) -> tuple[int, ...]:
        return tuple(self.mults[v] for v in self.chain_order())

    def to_weighted_tree(self) -> WeightedTree:
        edges = [(a, b) for a in range(len(self)) for b in self.adj[a] if a < b]
        return WeightedTree(self.weights, edges)

    def canon(self) -> object:
        """Canonical form (rooted at U, (-1)-curve marked) for comparisons."""

        def enc(v: int, parent: int | None) -> tuple:
            kids = sorted(
                enc(u, v) for u in self.adj[v] if u != parent
            )
            return (self.weights[v], self.mults[v], v == self.neg_curve, tuple(kids))

        return enc(0, None)


def reconstruct_fiber(seq: CharPairSeq | tuple[tuple[int, int], ...]) -> FiberTree:
    """Build the fiber tree of a pair sequence by simulating the blow-ups."""
    if not isinstance(seq, CharPairSeq):
        seq = CharPairSeq(tuple(seq))
    tree = FiberTree()
    u = tree.add_node(0, 1, 0)
    if seq.smooth:
        return tree
    germ = u
    for gi, (c, p) in enumerate(seq.pairs, start=1):
        a, b = germ, None  # active curves; b None means the transversal germ
        while True:
            if b is None:
                # first blow-up of the group: generic point of a
                new = tree.add_node(1, tree.mults[a], gi)
                tree.touch(a)
                tree.connect(a, new)
            else:
                # center is the intersection point of the active curves
                new = tree.add_node(1, tree.mults[a] + tree.mults[b], gi)
                tree.touch(a)
                tree.touch(b)
                tree.disconnect(a, b)
                tree.connect(a, new)
                tree.connect(b, new)
            if c == p:
                germ = new
                break
            if c - p >= p:
                a, b = a, new
                c = c - p
            else:
                a, b = new, a
                c, p = p, c - p
    tree.neg_curve = germ
    return tree


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


def mu_sums(c: int, p: int) -> tuple[int, int, int]:
    """(gcd, sum of center multiplicities, sum of their squares) of a group.

    Closed forms: sum mu = c + p - gcd(c,p) and sum mu^2 = c*p; the
    simulated :func:`mu_trace` is the reference the tests compare against.
    """
    if not c >= p >= 1:
        raise ValueError(f"need c >= p >= 1, got {(c, p)}")
    g = gcd(c, p)
    return g, c + p - g, c * p


def _undo_walks(tree: FiberTree) -> list[list[tuple[int, int]]]:
    """All consistent peeling orders, each as a list of (vertex, group-base).

    Walks backwards from the (-1)-curve, undoing blow-ups.  An undo target
    must currently be a (-1)-curve adjacent to the previous target; a vertex
    with one neighbour undoes a sprout and closes a group.  Ambiguities fork
    the walk; impossible branches die out.
    """
    n = len(tree)
    results: list[list[tuple[int, int]]] = []

    def rec(weights: list[int], adj: list[set[int]], alive: set[int],
            cur: int, trail: list[tuple[int, int]]) -> None:
        if weights[cur] != 1:
            return
        nbrs = sorted(adj[cur] & alive)
        if len(nbrs) == 1:
            (a,) = nbrs
            if tree.mults[cur] != tree.mults[a]:
                return
            weights[a] -= 1
            alive.discard(cur)
            trail.append((cur, a))
            if len(alive) == 1:
                if alive == {0} and weights[0] == 0:
                    results.append(list(trail))
            else:
                rec(weights, adj, alive, a, trail)
            trail.pop()
            alive.add(cur)
            weights[a] += 1
        elif len(nbrs) == 2:
            a, b = nbrs
            if tree.mults[cur] != tree.mults[a] + tree.mults[b]:
                return
            weights[a] -= 1
            weights[b] -= 1
            adj[a].add(b)
            adj[b].add(a)
            alive.discard(cur)
            trail.append((cur, -1))
            for nxt in (a, b):
                rec(weights, adj, alive, nxt, trail)
            trail.pop()
            alive.add(cur)
            adj[a].discard(b)
            adj[b].discard(a)
            weights[a] += 1
            weights[b] += 1

    if tree.neg_curve is not None:
        rec(list(tree.weights), [set(s) for s in tree.adj],
            set(range(n)), tree.neg_curve, [])
    return results


def pairs_from_fiber(tree: FiberTree) -> CharPairSeq:
    """Inverse of :func:`reconstruct_fiber`.

    Peels groups off the fiber backwards; candidate (c, p) values for each
    group are pinned by the multiplicity of its last curve and validated by
    re-simulating the whole sequence and comparing trees.
    """
    if len(tree) == 1:
        if tree.weights[0] != 0:
            raise ValueError("a one-component fiber must be a 0-curve")
        return CharPairSeq(((1, 0),))
    if tree.neg_curve is None:
        raise ValueError("singular fiber without a marked (-1)-curve")

    candidates: set[tuple[tuple[int, int], ...]] = set()
    target = tree.canon()
    for walk in _undo_walks(tree):
        # group boundaries are the sprout undos; the walk runs last-to-first
        groups: list[tuple[list[int], int]] = []
        current: list[int] = []
        for v, base in walk:
            current.append(v)
            if base >= 0:
                groups.append((current, base))
                current = []
        if current:
            continue
        # rebuild candidate (c, p) values group by group, last group first:
        # c is pinned by c_next * mult(last curve) / mult(base curve), and p
        # must reproduce the group's blow-up count
        per_group: list[tuple[int, list[int]]] = []
        g_next = 1
        ok = True
        for members, base in groups:
            last = members[0]
            c_scaled = g_next * tree.mults[last]
            base_mult = tree.mults[base]
            if c_scaled % base_mult:
                ok = False
                break
            c = c_scaled // base_mult
            steps = len(members)
            ps = [
                p
                for p in range(1, c + 1)
                if gcd(c, p) == g_next and len(mu_trace(c, p)) == steps
            ]
            if not ps:
                ok = False
                break
            per_group.append((c, ps))
            g_next = c
        if not ok:
            continue
        seqs: list[list[tuple[int, int]]] = [[]]
        for c, ps in reversed(per_group):
            seqs = [s + [(c, p)] for s in seqs for p in ps]
        for s in seqs:
            candidates.add(tuple(s))

    matches = []
    for cand in sorted(candidates):
        try:
            rebuilt = reconstruct_fiber(cand)
        except PairSequenceError:
            continue
        if rebuilt.canon() == target:
            matches.append(cand)
    if not matches:
        raise ValueError("tree is not the fiber of any pair sequence")
    if len(matches) > 1:
        raise ValueError(f"ambiguous fiber: pair sequences {matches}")
    return CharPairSeq(matches[0])


@dataclass(frozen=True)
class FiberNumerics:
    """Derived integers of one singular fiber of a ruling.

    c_h is the last pair's first entry, i0 the position of the boundary
    (-2)-component meeting the exceptional curve (0 when there is none),
    CE the intersection of the fiber's (-1)-curve with that curve.
    """

    CE: int
    c_h: int
    c_h_prime: int
    kappa: int
    rho: int
    d_contrib: int

    @property
    def kappa_valid(self) -> bool:
        return self.kappa >= 2


def fiber_numerics(seq: CharPairSeq, CE: int, i0: int) -> FiberNumerics:
    c_h = seq.pairs[-1][0]
    k = c_h - 1  # number of boundary (-2)-curves in this fiber
    if i0 == 0:
        if k != 0:
            raise ValueError("i0 = 0 requires c_h = 1")
        chp = 0
    else:
        if not 1 <= i0 <= k:
            raise ValueError(f"i0 must lie in 1..{k}, got {i0}")
        chp = c_h - i0
    if CE < 0:
        raise ValueError("CE must be nonnegative")
    kappa = c_h * CE + chp
    rho = kappa * CE + chp * CE + chp
    # c_h divides c1 along the gcd chain of the pairs
    return FiberNumerics(CE, c_h, chp, kappa, rho, seq.c1 // c_h * kappa)
