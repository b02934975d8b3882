"""Weighted chains, forks and trees.

A weighted chain is stored as a tuple of positive integers: the weight w of a
vertex means the corresponding curve has self-intersection -w.  A chain is
*admissible* when every weight is >= 2.  Bracket notation compresses maximal
runs of at least two consecutive 2's, so ``[3,(2)]`` denotes the chain
(3, 2, 2) and ``[(0)]`` the empty chain.

Forks are trees with a single branching vertex of valency three; the three
twigs are stored tip-first (the last entry of each twig is the component
attached to the branching vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import re

Weights = tuple[int, ...]


class ChainParseError(ValueError):
    """Malformed bracket notation; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(\(\s*\d+\s*\)|\d+|,|\[|\])")


def parse_chain(text: str) -> Weights:
    """Parse bracket notation into a weight tuple.

    Accepts ``[w1,...,wk]`` where each item is a positive integer or ``(m)``
    with m >= 0 standing for m consecutive 2's.  ``[]`` and ``[(0)]`` give the
    empty chain.
    """
    pos = 0
    tokens: list[tuple[str, int]] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ChainParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    if not tokens or tokens[0][0] != "[":
        raise ChainParseError("expected '['", 0)
    if tokens[-1][0] != "]":
        raise ChainParseError("expected ']'", len(text) - 1)
    items = tokens[1:-1]
    weights: list[int] = []
    expect_item = True
    for tok, at in items:
        if expect_item:
            if tok == ",":
                raise ChainParseError("expected weight, found ','", at)
            if tok in "[]":
                raise ChainParseError(f"unexpected {tok!r}", at)
            if tok.startswith("("):
                count = int(tok[1:-1])
                weights.extend([2] * count)
            else:
                w = int(tok)
                if w <= 0:
                    raise ChainParseError("weights must be positive", at)
                weights.append(w)
            expect_item = False
        else:
            if tok != ",":
                raise ChainParseError("expected ','", at)
            expect_item = True
    if items and expect_item:
        raise ChainParseError("trailing ','", tokens[-1][1])
    return tuple(weights)


def format_chain(weights: Weights) -> str:
    """Inverse of :func:`parse_chain`; maximal runs of >= 2 twos become (m)."""
    parts: list[str] = []
    i = 0
    n = len(weights)
    while i < n:
        if weights[i] == 2:
            j = i
            while j < n and weights[j] == 2:
                j += 1
            run = j - i
            parts.append(f"({run})" if run >= 2 else "2")
            i = j
        else:
            parts.append(str(weights[i]))
            i += 1
    return "[" + ",".join(parts) + "]"


def reverse_chain(weights: Weights) -> Weights:
    return tuple(reversed(weights))


def canonical_chain(weights: Weights) -> Weights:
    """The lexicographically smaller of a chain and its reversal."""
    rev = reverse_chain(weights)
    return weights if weights <= rev else rev


def is_admissible_chain(weights: Weights) -> bool:
    return all(w >= 2 for w in weights)


@dataclass(frozen=True)
class Fork:
    """Branch vertex of weight ``b`` with three tip-first twigs."""

    b: int
    twigs: tuple[Weights, Weights, Weights]

    def sorted_twigs(self) -> tuple[Weights, Weights, Weights]:
        """Twigs in (discriminant, weights) order; the canonical layout."""
        from .chains import d  # chains imports this module

        t = sorted(self.twigs, key=lambda ws: (d(ws), ws))
        return (t[0], t[1], t[2])

    def to_json(self) -> str:
        return json.dumps(
            {"b": self.b, "twigs": [format_chain(t) for t in self.twigs]}
        )


def is_int(value) -> bool:
    return type(value) is int  # not bool, which JSON keeps apart


def parse_fork(text: str) -> Fork:
    """The fork of ``{"b": integer, "twigs": [three bracket chains]}``; an
    error names the key at fault."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad fork description: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("a fork description must be a JSON object")
    for key in ("b", "twigs"):
        if key not in data:
            raise ValueError(f"fork key {key!r} is missing")
    b, twigs = data["b"], data["twigs"]
    if not is_int(b):
        raise ValueError(f"fork key 'b' must be an integer, got {b!r}")
    if not (isinstance(twigs, list) and len(twigs) == 3 and all(isinstance(t, str) for t in twigs)):
        raise ValueError(f"fork key 'twigs' must be a list of three strings, got {twigs!r}")
    parsed = []
    for i, t in enumerate(twigs, 1):
        try:
            parsed.append(parse_chain(t))
        except ChainParseError as exc:
            raise ValueError(f"fork key 'twigs': twig {i} {t!r}: {exc}") from exc
    return Fork(b, (parsed[0], parsed[1], parsed[2]))


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


def _int_det(matrix: list[list[int]]) -> int:
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

