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

from math import gcd
from typing import NamedTuple

from .graphs import MAX_CURVES


class PairSequenceError(ValueError):
    """A pair sequence violating the gcd/order conventions."""


class _CharPairSeqFields(NamedTuple):
    pairs: tuple[tuple[int, int], ...]


class CharPairSeq(_CharPairSeqFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        ps = self.pairs
        if not ps:
            raise PairSequenceError("empty pair sequence")
        if ps == ((1, 0),):
            return self
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
        return self

    @property
    def smooth(self) -> bool:
        return self.pairs == ((1, 0),)


class FiberTree:
    """Fiber produced by a pair sequence: a weighted tree with multiplicities.

    Vertex 0 is U (the component the fiber was produced from), a tip of the
    tree; the other vertices are numbered in creation order and carry
    (weight, multiplicity, group index); ``neg_curve`` is the last curve of
    the construction, the unique (-1)-curve when the fiber is singular.
    The tree is walked here alone: :meth:`path`, :meth:`chain_order`,
    :meth:`first_pair_parts` and :meth:`edges` rely on these conventions.
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

    def edges(self) -> list[tuple[int, int]]:
        """The edges (a, b) with a < b, sorted."""
        return sorted((a, b) for a in range(len(self)) for b in self.adj[a] if a < b)

    def path(self, anchor: int, members: set[int]) -> list[int]:
        """The path-shaped vertex set ``members`` in order, starting at the
        member next to ``anchor``."""
        if not members:
            return []
        start = [v for v in members if anchor in self.adj[v]]
        if len(start) != 1:
            raise ValueError("vertex set is not a chain hanging off the anchor")
        order = [start[0]]
        prev = anchor
        while True:
            nxt = [u for u in self.adj[order[-1]] if u in members and u != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                raise ValueError("vertex set is not a path")
            prev = order[-1]
            order.append(nxt[0])
        if len(order) != len(members):
            raise ValueError("vertex set is not connected")
        return order

    def chain_order(self) -> list[int]:
        """Vertices in chain order from U, which must be a tip of the path."""
        if not self.is_chain():
            raise ValueError("fiber is branched")
        return [0] + self.path(0, set(range(1, len(self))))

    def first_pair_parts(self) -> tuple[list[int], int, list[int]]:
        """(Z_u, Z1, Z_l): the curves of the first pair, split at the
        highest-multiplicity one; Z_u is the side facing U."""
        path = self.path(0, {v for v in range(len(self)) if self.groups[v] == 1})
        # Z1 is the newest curve of the pair: vertices are numbered in creation order
        i = path.index(max(path))
        return path[:i][::-1], path[i], path[i + 1 :]


def _fiber_size(seq: CharPairSeq) -> int:
    """The curves of the fiber of ``seq``: U, and one per blow-up, which is one
    per Euclidean subtraction, so the partial quotients of each c/p."""
    size = 1
    for c, p in seq.pairs:
        while p:
            size += c // p
            c, p = p, c % p
    return size


def reconstruct_fiber(seq: CharPairSeq | tuple[tuple[int, int], ...]) -> FiberTree:
    """Build the fiber tree of a pair sequence by simulating the blow-ups;
    a fiber past :data:`dgk.graphs.MAX_CURVES` curves is refused unbuilt."""
    if not isinstance(seq, CharPairSeq):
        seq = CharPairSeq(tuple(seq))
    size = _fiber_size(seq)
    if size > MAX_CURVES:
        raise PairSequenceError(f"the pairs give a fiber of {size} curves, past {MAX_CURVES}")
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


def mu_sums(c: int, p: int) -> tuple[int, int, int]:
    """(gcd, sum of center multiplicities, sum of their squares) of a group.

    Closed forms: sum mu = c + p - gcd(c,p) and sum mu^2 = c*p; the tests
    compare them with the simulated ``mu_trace`` of ``tests/reference.py``.
    """
    if not c >= p >= 1:
        raise ValueError(f"need c >= p >= 1, got {(c, p)}")
    g = gcd(c, p)
    return g, c + p - g, c * p


def pairs_from_fiber(tree: FiberTree) -> CharPairSeq:
    """Inverse of :func:`reconstruct_fiber`.

    One backward walk from the marked (-1)-curve undoes the blow-ups newest
    first.  The curve undone must have weight 1 and one or two neighbours
    whose multiplicities sum to its own; contracting it lowers their weights
    by one and joins two neighbours.  With one neighbour it was the first
    curve of its group, grown on the group's base B, and the walk goes on at
    B; with two it goes on at the one neighbour other than U now of weight 1
    (every older curve was touched again, so only the newest has weight 1).
    Read last group first from g = 1, a group with last curve L gives the
    pair (g*C, g*P) and g becomes g*C: C = m(L)/m(B), and P is 1 for C = 1,
    else the inverse mod C of m(x)/m(B) for x L's neighbour towards U.  One
    re-simulation then checks the pairs vertex by vertex, rebuilt curve i
    being the i-th curve undone counted from the oldest and U being 0.
    """
    if len(tree) == 1:
        w, m = tree.weights[0], tree.mults[0]
        if (w, m) != (0, 1):
            raise ValueError(f"a one-component fiber must be the 0-curve 0:1, got {w}:{m}")
        return CharPairSeq(((1, 0),))
    if tree.neg_curve is None:
        raise ValueError("singular fiber without a marked (-1)-curve")
    not_a_fiber = ValueError("tree is not the fiber of any pair sequence")
    mults = tree.mults
    if min(mults) < 1:
        raise not_a_fiber
    towards_u, queue = {0: 0}, [0]  # each vertex's neighbour on its path to U
    for v in queue:
        for u in tree.adj[v] - towards_u.keys():
            towards_u[u] = v
            queue.append(u)

    weights = list(tree.weights)
    adj = [set(nb) for nb in tree.adj]
    undone: list[int] = []
    groups: list[tuple[int, int]] = []  # (last curve, base), last group first
    last = cur = tree.neg_curve
    while cur != 0:
        nbrs = tuple(adj[cur])
        if weights[cur] != 1 or mults[cur] != sum(mults[u] for u in nbrs):
            raise not_a_fiber
        for u in nbrs:
            weights[u] -= 1
            adj[u].discard(cur)
        undone.append(cur)
        if len(nbrs) == 1:
            groups.append((last, nbrs[0]))
            last = cur = nbrs[0]
            continue
        nxt = [u for u in nbrs if u != 0 and weights[u] == 1]
        if len(nbrs) != 2 or len(nxt) != 1:
            raise not_a_fiber
        a, b = nbrs
        adj[a].add(b)
        adj[b].add(a)
        cur = nxt[0]

    pairs: list[tuple[int, int]] = []
    g = 1
    try:
        for last, base in groups:
            c, r = divmod(mults[last], mults[base])
            x, s = divmod(mults[towards_u[last]], mults[base])
            if r or s:
                raise not_a_fiber
            pairs.insert(0, (g * c, g * (pow(x, -1, c) if c > 1 else 1)))
            g *= c
        seq = CharPairSeq(tuple(pairs))
    except ValueError:  # a residue without inverse, or a PairSequenceError
        raise not_a_fiber from None

    # the matching sends the marked curve, undone first, to the rebuilt
    # (-1)-curve, which is the newest
    order = [0] + undone[::-1]
    rebuilt = reconstruct_fiber(seq)
    index = {v: i for i, v in enumerate(order)}
    if len(rebuilt) != len(tree) or len(order) != len(tree) or any(
        rebuilt.weights[i] != tree.weights[v]
        or rebuilt.mults[i] != mults[v]
        or rebuilt.adj[i] != {index[u] for u in tree.adj[v]}
        for i, v in enumerate(order)
    ):
        raise not_a_fiber
    return seq
