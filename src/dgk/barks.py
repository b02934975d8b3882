"""Barks of admissible chains and forks, group orders, exceptional shapes.

The bark of a connected admissible divisor is the rational combination of its
components solving (K + D - Bk D) . D_i = 0, i.e. Bk . D_i = beta(D_i) - 2.
For an oriented chain the one-sided bark Bk'(T, T1) instead solves
T_i . Bk' = -delta_{i,1}; its coefficients are m'_i = d(T_{i+1}+...+T_n)/d(T)
and Bk'^2 = -e(T).  Every bark, discriminant and group order here is its
closed form in integers and Fraction; the dense linear solve and the tree
determinant they replace are reference routes in ``tests/reference.py``.

A fork's twig sums are the integers formed by :func:`fork_sums_along`, once
per twig pair and third discriminant z: D and S, and the parts of E and Et
that T3 does not enter, so that each third of discriminant z adds one term
to each.  The scan calls it once per block of thirds of one discriminant,
and everything else reads one triple's sums through :func:`fork_sums` and
the :class:`ForkInvariants` record.  :func:`specs_named` is the one reader
of a shape's name.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import chains
from .chains import ChainRecord, DegenerateChainError
from .graphs import (
    ChainParseError, Fork, Weights, canonical_chain, format_chain, parse_chain, require_admissible,
)

PLATONIC_SPECIAL = {(2, 3, 3), (2, 3, 4), (2, 3, 5)}


def is_platonic_triple(triple: tuple[int, int, int]) -> bool:
    t = tuple(sorted(triple))
    return t in PLATONIC_SPECIAL or (t[0] == 2 and t[1] == 2 and t[2] >= 2)


def fork_sums_along(r1: ChainRecord, r2: ChainRecord, z: int) -> tuple[int, int, int, int, int]:
    """(a, D, S, E0, Et0) of the pair (T1, T2) with any third twig T3 of
    discriminant z, the one place a pair's twig sums are formed.

    D = d1*d2*d3 and, with Q_i = D/d_i, S = sum Q_i, E = sum d'_i*Q_i and
    Et = sum d(T_i[:-1])*Q_i.  With a = d1*d2 and d3 = z, D = a*z and
    S = (d1 + d2)*z + a depend on T3 only through z, and so do
    E0 = (d'_1*d2 + d'_2*d1)*z and Et0 = (d(T1[:-1])*d2 + d(T2[:-1])*d1)*z,
    so that E = E0 + a*d'_3 and Et = Et0 + a*d(T3[:-1]).  The scan calls it
    once per block of thirds of one discriminant.  Nothing is divided, so
    d = 0 twigs are fine.
    """
    a = r1.d * r2.d
    return (
        a,
        a * z,
        (r1.d + r2.d) * z + a,
        (r1.d_prime * r2.d + r2.d_prime * r1.d) * z,
        (r1.d_prime_rev * r2.d + r2.d_prime_rev * r1.d) * z,
    )


def fork_sums(r1: ChainRecord, r2: ChainRecord, r3: ChainRecord) -> tuple[int, int, int, int]:
    """(D, S, E, Et) of three twig records, from :func:`fork_sums_along`."""
    a, dd, s, e0, et0 = fork_sums_along(r1, r2, r3.d)
    return dd, s, e0 + a * r3.d_prime, et0 + a * r3.d_prime_rev


class ForkInvariants(NamedTuple):
    """The integer record (b, D, S, E, Et) of a fork, with the sums of
    :func:`fork_sums`; each closed form of the fork is one property."""

    b: int
    D: int
    S: int
    E: int
    Et: int

    @property
    def d(self) -> int:
        """d(F) = d1*d2*d3*(b - e~) = b*D - Et."""
        return self.b * self.D - self.Et

    @property
    def delta(self) -> Fraction:
        return Fraction(self.S, self.D)

    @property
    def e(self) -> Fraction:
        return Fraction(self.E, self.D)

    @property
    def e_tilde(self) -> Fraction:
        return Fraction(self.Et, self.D)

    @property
    def d_bk_square(self) -> int:
        """d(F)*Bk^2 F = -((S - D)^2 + E*d(F))/D, as Bk^2 F = -(delta - 1)^2/(b - e~) - e;
        an integer, since d(F) clears the bark's coefficients."""
        return (-((self.S - self.D) ** 2) - self.E * self.d) // self.D

    @property
    def bk_square(self) -> Fraction:
        return Fraction(self.d_bk_square, self.d)

    @property
    def group_order(self) -> int:
        """4*(b - e~)/(delta - 1)^2 = 4*d(F)*D/(S - D)^2; see :func:`group_order`."""
        order, rest = divmod(4 * self.d * self.D, (self.S - self.D) ** 2)
        if rest:
            raise ValueError(f"fork record {self} has no integral group order")
        return order


def fork_invariants(fork: Fork) -> ForkInvariants:
    """The record of a fork with nonempty twigs of nonzero discriminant."""
    records = [chains.chain_record(t) for t in fork.twigs]
    for r in records:
        if r.d == 0:  # named from the branch end, the end e~ reads a twig from
            raise DegenerateChainError(f"chain {format_chain(r.ws[::-1])} has zero discriminant")
    if not all(fork.twigs):
        raise ValueError("fork twigs must be nonempty")
    return ForkInvariants(fork.b, *fork_sums(*records))


def require_admissible_fork(fork: Fork) -> ForkInvariants:
    """The record of an admissible fork; the one refusal of any other fork,
    naming the fork and the condition it fails.

    Admissible means admissible twigs (a bad twig's refusal is
    :func:`dgk.graphs.require_admissible`'s, after the fork), a Platonic
    twig triple and a negative definite matrix.  With admissible twigs the
    twig blocks are negative definite, and the Schur complement at the
    branch vertex is b - e~, so the fork is negative definite exactly when
    d(F) = d1*d2*d3*(b - e~) > 0, i.e. when b > e~.
    """
    try:
        records = [chains.chain_record(require_admissible(t, "twig")) for t in fork.twigs]
    except ValueError as err:
        raise ValueError(f"{_graph_key(fork)} is not admissible: {err}") from None
    ds = tuple(r.d for r in records)
    if not is_platonic_triple(ds):  # type: ignore[arg-type]
        raise ValueError(
            f"{_graph_key(fork)} is not admissible:"
            f" its twig discriminants {ds} are not a Platonic triple"
        )
    inv = ForkInvariants(fork.b, *fork_sums(*records))
    if inv.d <= 0:
        raise ValueError(
            f"{_graph_key(fork)} is not admissible: b = {fork.b} is not above e~ = {inv.e_tilde}"
        )
    return inv


class BarkCoefficients(NamedTuple):
    coefficients: tuple[Fraction, ...]
    bk_square: Fraction


def bark_one_sided(weights: Weights) -> BarkCoefficients:
    """Bk'(T, T1) for an oriented admissible chain, pushing at the first tip:
    m_i = d(T after i)/d(T) and Bk'^2 = -e(T)."""
    _, suf = chains.continuants(require_admissible(weights, "chain"))
    coeffs = tuple(Fraction(suf[i + 1], suf[0]) for i in range(len(weights)))
    return BarkCoefficients(coeffs, -coeffs[0])


def bark_chain(weights: Weights) -> BarkCoefficients:
    """Full bark of an admissible chain, Bk = Bk'(T,T1) + Bk'(T,Tn):
    m_i = (d(T after i) + d(T before i))/d(T).  Bk . D_i is -1 at the two
    ends and 0 inside, so Bk^2 = -(m_1 + m_n) = -(d' + d'~ + 2)/d."""
    pre, suf = chains.continuants(require_admissible(weights, "chain"))
    coeffs = tuple(Fraction(suf[i + 1] + pre[i + 1], suf[0]) for i in range(len(weights)))
    return BarkCoefficients(coeffs, -(coeffs[0] + coeffs[-1]))


def bark_fork(fork: Fork) -> BarkCoefficients:
    """Bark of an admissible fork; vertex order is branch then twigs tip-first.

    The branch coefficient is c_B = (delta(F) - 1)/(b - e~(F)), which is
    (S - D)/d(F) in the integers of :class:`ForkInvariants`, and vertex i of
    a twig T gets its one-sided part plus the branch's share,
    (d(T after i) + c_B * d(T before i))/d(T); Bk^2 F is the record's.
    """
    inv = require_admissible_fork(fork)
    c_b = Fraction(inv.S - inv.D, inv.d)
    coeffs = [c_b]
    for t in fork.twigs:
        pre, suf = chains.continuants(t)
        coeffs.extend((suf[i + 1] + c_b * pre[i + 1]) / suf[0] for i in range(len(t)))
    return BarkCoefficients(tuple(coeffs), inv.bk_square)


def group_order(graph: Weights | Fork) -> int:
    """Order of the local fundamental group of the quotient singularity.

    Chains resolve cyclic groups, so the order is the discriminant.  For an
    admissible fork the link is a spherical Seifert space over S^2(d1,d2,d3)
    and the order is 4*(b - e~) / (delta - 1)^2.  This reproduces the binary
    polyhedral orders on the (-2)-forks (24, 48, 120), the quaternion group
    on the (2,2,2) fork and 24 on the (2,2,3) fork with a [3]-twig.
    """
    if isinstance(graph, Fork):
        return require_admissible_fork(graph).group_order
    return chains.d(require_admissible(graph, "chain"))


class ExceptionalShape(NamedTuple):
    """One entry of the catalog of exceptional divisors.

    ``graph`` (chain weights or a Fork) and ``epsilon`` are the shape's
    identity, all that == and hash read: no graph lies in two families with
    the same epsilon.  The rest is read from ``spec``, the catalog spec the
    shape was built from, whose family is ``spec[0]``: E (the components left
    after stripping external (-2)-tips), the number of components of Delta
    (those stripped), K.E over E, the size, discriminant, bark square and
    local group order.
    """

    graph: Weights | Fork
    epsilon: int
    e_weights: tuple[int, ...]
    n_delta_components: int
    ke: int
    size: int
    d: int
    bk_square: Fraction
    g_order: int
    spec: ShapeSpec
    key_text: str

    def __eq__(self, other) -> bool:
        return isinstance(other, ExceptionalShape) and self[:2] == other[:2]

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

    @property
    def is_fork(self) -> bool:
        return isinstance(self.graph, Fork)

    @property
    def delta_empty(self) -> bool:
        return self.n_delta_components == 0

    def key(self) -> str:
        return self.key_text

    def group_order_for(self, mode: str) -> int:
        """|G| under the group-order convention ``mode``; see
        :func:`group_order_reader`."""
        return group_order_reader(mode)(self)


# |G| under each group-order convention: "actual" is the true local group
# order, "h1" substitutes the abelianization order d (they agree on chains).
_GROUP_ORDERS = {"actual": attrgetter("g_order"), "h1": attrgetter("d")}
GROUP_ORDER_MODES = " or ".join(map(repr, _GROUP_ORDERS))


def group_order_reader(mode: object) -> Callable[[ExceptionalShape], int]:
    """The |G| of a shape under the group-order convention ``mode``, one of
    :data:`GROUP_ORDER_MODES`: the one reader of a mode, and the one
    refusal of any other."""
    reader = _GROUP_ORDERS.get(mode) if isinstance(mode, str) else None
    if reader is None:
        raise ValueError(f"unknown group order mode {mode!r}")
    return reader


def _graph_key(graph: Weights | Fork) -> str:
    if isinstance(graph, Fork):
        twigs = ",".join(format_chain(t) for t in graph.sorted_twigs())
        return f"fork(b={graph.b};{twigs})"
    return format_chain(graph)


# ---------------------------------------------------------------------------
# the catalog of exceptional shapes


class _FamilyFields(NamedTuple):
    name: str
    epsilon: int
    weights: Weights
    branch: int = 0


class Family(_FamilyFields):
    """A catalog family: its tag, its epsilon, the weights other than 2 of
    its chains in order, and for the fork families b1 and b2 the weight of
    the branch (0 for a chain family).  Every weight is at least 3 and a
    chain family has one, so no spec is made of (-2)-curves only.

    Three constants are derived from the fields: ``curves``, the components
    outside the runs; ``ke``, K.E = sum(w - 2) over the weights and the
    branch; and ``offset`` = curves - epsilon - K.E.  A chain spec's E is
    its chain without the end runs and every fork spec's E is [3] (see
    :func:`_make_shape`), so K.E is the family's, and a spec of run sum s
    has s + curves components and the Noether key s + offset.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(w < 3 for w in self.weights) or not (self.weights or self.branch):
            raise ValueError(f"family {self.name} needs weights of at least 3, not {self.weights}")
        return self

    @property
    def curves(self) -> int:
        # a fork adds its branch and its [2] twig to the curves of its weights
        return len(self.weights) + (2 if self.branch else 0)

    @property
    def ke(self) -> int:
        return sum(self.weights) - 2 * len(self.weights) + max(self.branch - 2, 0)

    @property
    def offset(self) -> int:
        return self.curves - self.epsilon - self.ke


# A shape spec is (family, r0, r1, ..., rk) for the chain
# [(r0),w1,(r1),...,wk,(rk)] of a chain family with weights w1..wk, or
# (family, a, m) for the fork Fork(branch, ([(a),w1,...,wk], [(m)], [2]))
# of a fork family: b1 is Fork(2, ([(a),3], [(m)], [2])) and b2 is
# Fork(3, ([(a)], [(m)], [2])).  Specs are small tuples of small integers
# sharing their Family.
ShapeSpec = tuple

_A = tuple(Family("a", 0, (w,)) for w in (5, 6, 7))
_B1, _B2 = Family("b1", 2, (3,), branch=2), Family("b2", 2, (), branch=3)
_B3, _B4 = Family("b3", 2, (3,)), Family("b4", 2, (4,))
_C1 = tuple(Family("c1", 1, (w,)) for w in (4, 5))
_C2 = tuple(Family("c2", 1, ws) for ws in ((3, 3), (3, 4), (4, 3)))
_C3 = Family("c3", 1, (3, 3, 3))
_FAMILIES = (*_A, _B1, _B2, _B3, _B4, *_C1, *_C2, _C3)
# (c4): the six chains with E.Delta = 2, [2,4,2], [2,5,2], [2,3,3,2],
# [2,3,4,2], [(2),4,2] and [(2),5,2], as (weights, runs)
_C4 = tuple(
    (Family("c4", 1, ws),) + runs
    for ws, runs in (
        ((4,), (1, 1)),
        ((5,), (1, 1)),
        ((3, 3), (1, 0, 1)),
        ((3, 4), (1, 0, 1)),
        ((4,), (1, 2)),
        ((5,), (1, 2)),
    )
)


MAX_CATALOG_SIZE = 100  # the specs grow as the cube of the size, the index as its square


class Line(NamedTuple):
    """Specs of one family along a line: ``first`` and the ``count - 1``
    specs after it, each with run ``rise`` (an index into the spec) one
    larger and the run after it one smaller than the spec before, so that
    all have one run sum.  A fork spec, or any single spec, is a line of
    one."""

    first: ShapeSpec
    count: int = 1
    rise: int = 1

    def spec(self, step: int) -> ShapeSpec:
        """The spec ``step`` places along the line, ``first`` at 0."""
        if not step:
            return self.first
        first, i = self.first, self.rise
        return first[:i] + (first[i] + step, first[i + 1] - step) + first[i + 2:]

    def specs(self) -> list[ShapeSpec]:
        return [self.spec(step) for step in range(self.count)]


def _slice(family: Family, s: int) -> tuple[Line, ...]:
    """The lines of a family's specs of run sum ``s``, each spec once.

    A chain and its reversal are one shape, so where a family holds both the
    parameters of the second are skipped: b3 keeps r <= x, the c2 chain
    [4,(y),3] needs x >= 1 (at x = 0 it is [3,(y),4] reversed), and c3 with
    r = 0 keeps x <= y.  Only c3 has more than one line in a slice, one for
    each r.  A fork family's slice is the fork of its tail, b1 with m = 1
    and b2 with a = 1, and those of its few forks off the tail, each fork a
    line of one.
    """
    name = family.name
    if family.branch:  # (a, m) with a >= 0 and m >= 1
        tail = (s - 1, 1) if name == "b1" else (1, s - 1)
        more = ((0, 2), (0, 3), (1, 2), (0, 4)) if name == "b1" else ((2, 2), (2, 3), (2, 4))
        runs = [(a, m) for a, m in (tail, *more) if a + m == s and a >= 0 and m >= 1]
        return tuple(Line((family, a, m)) for a, m in runs)
    if name == "b3":  # [(r),3,(x)], r rising
        return (Line((family, 0, s), s // 2 + 1),)
    if name == "c1":  # [(r),4] and [(r),5]
        return (Line((family, s, 0)),)
    if name == "c2":  # [(x),3,(y),3], [(x),3,(y),4], [(x),4,(y),3], x rising
        x = 1 if family.weights == (4, 3) else 0
        return (Line((family, x, s - x, 0), s - x + 1),) if x <= s else ()
    if name == "c3":  # [(r),3,(x),3,(y),3], x rising at each r
        return (Line((family, 0, 0, s, 0), s // 2 + 1, 2),) + tuple(
            Line((family, r, 0, s - r, 0), s - r + 1, 2) for r in range(1, s + 1)
        )
    return (Line((family, 0, 0)),) if s == 0 else ()  # (a) and b4: one curve


def _catalog_slices(max_size: int) -> Iterator[tuple[Line, ...]]:
    """The slices of every catalog spec with at most ``max_size`` components.

    Families: (a) single curves [5],[6],[7] with epsilon 0; (b1)/(b2) the
    forks and (b3) the [(r),3,(x)] chains with epsilon 2, together with [4];
    (c1)-(c4) the epsilon 1 chains.  [4] and [5] occur with two epsilon tags.
    Every family but c4 gives its :func:`_slice` of each run sum up to
    max_size less its ``curves``; each (c4) chain is a slice of one line of
    one spec.  No graph lies in two families with the same epsilon (the
    weights other than 2 and the end runs tell the family), so each spec
    has one family tag.  A size past :data:`MAX_CATALOG_SIZE` is refused.
    """
    if max_size > MAX_CATALOG_SIZE:
        raise ValueError(f"catalog size {max_size} is past the bound of {MAX_CATALOG_SIZE}")
    for family in _FAMILIES:
        for s in range(max_size - family.curves + 1):
            lines = _slice(family, s)
            if lines:
                yield lines

    for spec in _C4:
        if sum(spec[1:]) + spec[0].curves <= max_size:
            yield (Line(spec),)


@lru_cache(maxsize=None)
def family_specs(max_size: int) -> tuple[ShapeSpec, ...]:
    """Every catalog spec with at most ``max_size`` components, once each:
    the specs of the slices of :func:`_catalog_slices`."""
    return tuple(
        spec for lines in _catalog_slices(max_size) for line in lines for spec in line.specs()
    )


def _spec_chain(spec: ShapeSpec) -> Weights:
    """The chain [(r0),w1,(r1),...,wk,(rk)] of a chain spec, in its order."""
    chain = (2,) * spec[1]
    for w, r in zip(spec[0].weights, spec[2:]):
        chain += (w,) + (2,) * r
    return chain


def _spec_graph(spec: ShapeSpec) -> Weights | Fork:
    family = spec[0]
    if family.branch:
        return Fork(family.branch, ((2,) * spec[1] + family.weights, (2,) * spec[2], (2,)))
    return canonical_chain(_spec_chain(spec))


def _chain_continuants(spec: ShapeSpec) -> tuple[int, int]:
    """(d, -(d' + d'~ + 2)) of a chain spec, so that Bk^2 is their quotient.

    The product of [[w, -1], [1, 0]] over a chain's weights is
    [[d, -d(ws[:-1])], [d(ws[1:]), -d(ws[1:-1])]], and a run of r 2's
    contributes [[r+1, -r], [r, 1-r]] = I + r*[[1, -1], [1, -1]], so the
    product takes one step per weight other than 2 and none per 2.
    """
    r = spec[1]
    p, q, s, t = 1 + r, -r, r, 1 - r
    for w, r in zip(spec[0].weights, spec[2:]):
        p, q, s, t = p * w + q, -p, s * w + t, -s
        p, q, s, t = p + r * (p + q), q - r * (p + q), s + r * (s + t), t - r * (s + t)
    return p, q - s - 2


def _continuants(spec: ShapeSpec) -> tuple[int, int]:
    """(d, num) of any spec, integers with Bk^2 = num/d: a chain spec's
    run-length product, or d(F) and d(F)*Bk^2 of a fork spec's record."""
    if not spec[0].branch:
        return _chain_continuants(spec)
    inv = fork_invariants(_spec_graph(spec))
    return inv.d, inv.d_bk_square


def _slice_continuants(lines: Iterable[Line]) -> Iterator[tuple[int, int]]:
    """(d, num) of each spec of a slice, line by line and step by step, with
    (d, num) the :func:`_continuants` of the spec.

    A run of r 2's contributes I + r*N with N^2 = 0, so a chain's product
    is linear in each run.  Along a line one run rises as the next falls, so
    d and num are quadratics in the step: the products of the line's first
    three specs fix them, and each further spec costs four additions and
    builds no spec.  A line of fewer than three specs, such as a fork, takes
    each spec's own.
    """
    for line in lines:
        if line.count < 3:
            for step in range(line.count):
                yield _continuants(line.spec(step))
            continue
        (d, n), (d1, n1), (d2, n2) = (_chain_continuants(line.spec(step)) for step in range(3))
        dd, dn = d1 - d, n1 - n
        dd2, dn2 = d2 - d1 - dd, n2 - n1 - dn
        for _ in range(line.count):
            yield d, n
            d, n, dd, dn = d + dd, n + dn, dd + dd2, dn + dn2


def _make_shape(spec: ShapeSpec) -> ExceptionalShape:
    """The shape of a spec, each field in closed form.  A chain spec's E is
    its chain without the end runs, the components of Delta.  A fork spec's
    E is [3]: b1's branch (b = 2) makes one component of Delta with the
    twigs [(m)] and [2], which in b2 (b = 3) are two, and a first run a > 0
    is one more; one fork record gives d(F), Bk^2 and |G|."""
    family, first, last = spec[0], spec[1], spec[-1]
    if family.branch:
        graph = _spec_graph(spec)
        inv = fork_invariants(graph)
        dd, num, g = inv.d, inv.d_bk_square, inv.group_order
        e_weights, n_delta = (3,), (first > 0) + 1 + (family.branch != 2)
    else:
        chain = _spec_chain(spec)
        graph = canonical_chain(chain)
        e_weights = chain[first:len(chain) - last]
        if graph != chain:  # canonical_chain reversed it
            e_weights = e_weights[::-1]
        dd, num = _chain_continuants(spec)
        g, n_delta = dd, (first > 0) + (last > 0)
    return ExceptionalShape(
        graph=graph, epsilon=family.epsilon, e_weights=e_weights, n_delta_components=n_delta,
        ke=family.ke, size=sum(spec[1:]) + family.curves, d=dd, bk_square=Fraction(num, dd),
        g_order=g, spec=spec, key_text=_graph_key(graph),
    )


@lru_cache(maxsize=None)
def shape_of(spec: ShapeSpec) -> ExceptionalShape:
    """The shape of ``spec``, built on first request.

    The scan resolves index hits here, and the searches and the command
    line the shapes they name, so the cache holds only those shapes;
    :func:`eshape_catalog` builds its own.
    """
    return _make_shape(spec)


@lru_cache(maxsize=None)
def eshape_catalog(max_size: int) -> tuple[ExceptionalShape, ...]:
    """All catalog shapes with at most ``max_size`` components, ordered by
    (size, key, epsilon); see :func:`_catalog_slices` for the families."""
    shapes = [_make_shape(spec) for spec in family_specs(max_size)]
    shapes.sort(key=lambda s: (s.size, s.key_text, s.epsilon))
    return tuple(shapes)


@lru_cache(maxsize=None)
def _catalog_names() -> dict[str, tuple[ShapeSpec, ...]]:
    """The specs of :func:`family_specs` (12) by the key of their shapes,
    epsilons ascending; it builds no shape, only each spec's graph for its key."""
    names: dict[str, tuple[ShapeSpec, ...]] = {}
    for spec in sorted(family_specs(12), key=lambda spec: spec[0].epsilon):
        key = _graph_key(_spec_graph(spec))
        names[key] = names.get(key, ()) + (spec,)
    return names


def specs_named(name: str) -> dict[int, ShapeSpec]:
    """{epsilon: spec} of the size-12 catalog shapes ``name`` names, empty
    for none: the one reader of a shape name.  A name is a shape's key, or a
    chain in bracket notation in either orientation, any run notation and
    whitespace around it; a key is found as given, and only a miss parsed."""
    names = _catalog_names()
    if name not in names:
        try:
            name = format_chain(canonical_chain(parse_chain(name)))
        except ChainParseError:  # not a chain, so at most a fork key
            name = name.strip()
    return {spec[0].epsilon: spec for spec in names.get(name, ())}


# A bucket maps a reduced pair to the position of its spec, or to the
# positions of its specs when several share the pair; see SpecIndex.specs_at.
Bucket = dict[tuple[int, int], int | tuple[int, ...]]


class SpecIndex(dict[int, Bucket]):
    """Spec slices keyed for the single scan probe per (twig triple, b).

    The full key is (k, numerator, denominator) with k = #E - epsilon - K.E
    and the fraction Bk^2(E) + epsilon.  Noether's count pins k to
    4 + b + sum K.T_i - sum #T_i and the Zariski identity pins Bk^2(E) +
    epsilon to e - 1 - P^2; neither side depends on epsilon or K.E.

    The index holds slices of :class:`Line`s, not specs.  Every spec of a
    slice has the slice's run sum, so its k is that sum plus the family's
    ``offset``, and the slices are grouped by k when the index is made.
    ``first_keys`` are the k that hold a slice, and the scan joins its twig
    triples on them.  ``reach`` is the largest epsilon + K.E of the slices'
    families, so a probe with first key k asks for shapes of at most
    k + reach components.  The index maps k to its bucket, which keys each
    spec of first key k by the d and Bk^2 that :func:`_slice_continuants`
    steps along its slice.  A bucket holds no spec, only where each spec
    sits: its position, the number of specs before it in the slices' order
    (for the catalog, its index in :func:`family_specs`), which
    :meth:`specs_at` turns back into the spec.  A k's first subscript builds
    its bucket and keeps it, empty for a k without a slice, and builds no
    spec and no shape.
    """

    @classmethod
    def of_specs(cls, specs: Iterable[ShapeSpec]) -> SpecIndex:
        """The index of an explicit spec list, each spec a slice of one."""
        return cls((Line(spec),) for spec in specs)

    def __init__(self, slices: Iterable[Sequence[Line]]) -> None:
        super().__init__()
        groups: dict[int, list[tuple[int, Sequence[Line]]]] = {}  # (first line, slice)
        lines: list[Line] = []
        reach = 0
        for slice_ in slices:
            family, *runs = slice_[0].first
            reach = max(reach, family.epsilon + family.ke)
            groups.setdefault(sum(runs) + family.offset, []).append((len(lines), slice_))
            lines += slice_
        self._groups, self._lines = groups, lines
        # the position of each line's first spec
        self._starts = list(accumulate((line.count for line in lines), initial=0))
        self.first_keys = frozenset(groups)
        self.reach = reach

    def __missing__(self, k: int) -> Bucket:
        bucket: Bucket = {}
        for first, lines in self._groups.get(k, ()):
            eps, position = lines[0].first[0].epsilon, self._starts[first]
            for den, num in _slice_continuants(lines):
                g = gcd(num, den)
                den //= g
                pair = num // g + eps * den, den
                held = bucket.setdefault(pair, position)
                if held != position:  # the pair of an earlier spec too
                    bucket[pair] = (*held, position) if type(held) is tuple else (held, position)
                position += 1
        self[k] = bucket
        return bucket

    def specs_at(self, held: int | tuple[int, ...]) -> list[ShapeSpec]:
        """The specs at the positions a bucket holds for one pair, in the
        order they were keyed: the one decoder of a bucket's values."""
        specs = []
        for position in (held,) if type(held) is int else held:
            i = bisect_right(self._starts, position) - 1
            specs.append(self._lines[i].spec(position - self._starts[i]))
        return specs


@lru_cache(maxsize=None)
def catalog_index(max_size: int) -> SpecIndex:
    """The catalog up to ``max_size`` components as a :class:`SpecIndex`;
    it holds exactly the shapes of :func:`eshape_catalog`, from the same
    slices, but lists no spec before a bucket asks for it and builds no
    shape."""
    return SpecIndex(_catalog_slices(max_size))
