"""The predicate suite on boundary candidates.

A boundary candidate is a branch weight b together with three oriented
admissible twigs (tip first; the last weight sits next to the branch vertex)
and an exceptional shape.  :data:`PREDICATES` names each condition once,
with its test and its witness.  Each test decides its condition in integers:
it cross-multiplies the fork record (b, D, S, E, Et) of
:func:`dgk.barks.fork_invariants` with the shape's integers (d(E), K.E,
epsilon, |G| and Bk^2(E) = q/r) and builds no ``Fraction``.

A join's hits are a :class:`Hits`, sorted by their results' ``sort_key()``
once, when it is built; a result's key reads its shape's stored key.
:func:`decide` is the one decision pass of the searches and the two-fiber
solver: the indices of the hits that pass, ascending and so in sorted
order, each hit decided on the record its join formed.  The ``Hits``
keeps two bit masks per (group-order mode, predicate name), the hits
tested and the hits passed, so a predicate is tested on a hit at most once
per mode however many lists are decided on it: name by name, ``decide``
starts from every hit, tests only the alive hits not yet tested and takes
``alive &= passed``.
A ``Hits`` also keeps, for xy, each report asked for (:meth:`Hits.report`,
read-only), and for final-bounds and knonpos each survivor's golden-file
row (:meth:`Hits.rows`), printed once whatever the mode.  The report
:func:`evaluate_predicates` reads every ok flag from the same tests and
never short-circuits, so a failing candidate still shows every witness
value; ``Fraction`` appears only in the witnesses.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import compress
from math import isqrt
from types import MappingProxyType
from typing import NamedTuple

from . import chains
from .barks import ExceptionalShape, ForkInvariants, fork_invariants, group_order_reader
from .graphs import Fork, Weights, format_chain


class BoundaryCandidate(NamedTuple):
    b: int
    twigs: tuple[Weights, Weights, Weights]
    eshape: ExceptionalShape

    @property
    def fork(self) -> Fork:
        """The boundary fork D: branch weight b with the three twigs."""
        return Fork(self.b, self.twigs)

    def sort_key(self) -> tuple:
        """The order of the results: the shape's key and epsilon, b, and the
        twigs by discriminant, as (d, T)."""
        return (
            self.eshape.key_text,
            self.eshape.epsilon,
            self.b,
            tuple(sorted([(chains.d(t), t) for t in self.twigs])),
        )

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "twigs": [format_chain(t) for t in self.fork.sorted_twigs()],
            "eshape": self.eshape.key(),
            "epsilon": self.eshape.epsilon,
        }


class PredicateReport(NamedTuple):
    """Every predicate evaluated on a candidate, with witnesses."""

    entries: dict[str, tuple[bool, str]]

    def passes(self, names: tuple[str, ...]) -> bool:
        return all(self.entries[n][0] for n in names)

    def to_dict(self) -> dict:
        return {k: {"ok": ok, "witness": w} for k, (ok, w) in self.entries.items()}


def lambda_and_p_square(cand: BoundaryCandidate) -> tuple[Fraction, Fraction]:
    """(lambda, P^2) of a candidate; requires delta < 1 and e~ != b."""
    inv = fork_invariants(cand.fork)
    delta, et = inv.delta, inv.e_tilde
    if delta >= 1 or et == cand.b:
        raise ValueError("degenerate candidate: needs delta < 1 and e~ != b")
    return 1 - (et - cand.b) / (1 - delta), (1 - delta) ** 2 / (et - cand.b)


def _eps2_skip(es: ExceptionalShape) -> str:
    """Why the eps < 2 inequalities pass unread, or "" when they apply."""
    return "skipped: eps = 2" if es.epsilon >= 2 else ""


def _iv_skip(es: ExceptionalShape) -> str:
    return _eps2_skip(es) or ("" if es.delta_empty else "skipped: external (-2)-curves present")


# The integer tests.  Each reads the fork record (b, D, S, E, Et) with
# delta = S/D, e = E/D and e~ = Et/D, the twigs, the shape, whose
# Bk^2(E) = q/r has r > 0, and |G| > 0, and cross-multiplies by D > 0.


def _bmy(v: ForkInvariants, twigs, es: ExceptionalShape, g: int) -> bool:
    # delta <= e <= 1 + eps + q/r + 3/|G|
    q, r = es.bk_square.numerator, es.bk_square.denominator
    return v.S <= v.E and v.E * r * g <= v.D * (g * r * (1 + es.epsilon) + g * q + 3 * r)


def _eps2_iii(v: ForkInvariants, twigs, es: ExceptionalShape, g: int) -> object:
    # eps + q/r + 9/|G| >= 0
    q, r = es.bk_square.numerator, es.bk_square.denominator
    return _eps2_skip(es) or (es.epsilon * r + q) * g + 9 * r >= 0


def _zar_bk2(v: ForkInvariants, twigs, es: ExceptionalShape, g: int) -> bool:
    # q/r = -(1 - delta)^2/(e~ - b) + e - 1 - eps, over D (Et - bD);
    # degenerate when e~ = b or delta = 1
    slack, gap = v.Et - v.b * v.D, v.D - v.S
    if slack == 0 or gap == 0:
        return False
    q, r = es.bk_square.numerator, es.bk_square.denominator
    return q * v.D * slack == r * ((v.E - v.D - es.epsilon * v.D) * slack - gap * gap)


def _square(v: ForkInvariants, twigs, es: ExceptionalShape, g: int) -> bool:
    # -d(D)/d(E) is a positive perfect square
    quo, rem = divmod(-v.d, es.d)
    return rem == 0 and quo > 0 and isqrt(quo) ** 2 == quo


def _min_twig_irreducible(v: ForkInvariants, twigs, es: ExceptionalShape, g: int) -> bool:
    ds = tuple(map(chains.d, twigs))
    d_min = min(ds)
    return all(len(t) == 1 for t, dd in zip(twigs, ds) if dd == d_min)


class _Facts:
    """The values the witnesses of one candidate print, each computed once."""

    def __init__(self, v: ForkInvariants, twigs, es: ExceptionalShape, g: int) -> None:
        self.delta, self.e, self.et = delta, e, et = v.delta, v.e, v.e_tilde
        self.b = b = v.b
        self.eshape = es
        self.eps = eps = es.epsilon
        self.g = g
        self.delta_g = delta + Fraction(1, g)
        # the two sides of Noether's count
        size_d = 1 + sum(len(t) for t in twigs)
        k_dot_d = (b - 2) + sum(w - 2 for t in twigs for w in t)
        self.noether = es.size + size_d, 7 + eps + k_dot_d + es.ke
        self.bmy = 1 + eps + es.bk_square + Fraction(3, g)
        # the eps < 2 inequalities: a skip message, or the values they compare
        self.eps2_skip = _eps2_skip(es)
        self.eps2_iii = None if eps >= 2 else eps + es.bk_square + Fraction(9, g)
        self.iv_skip = _iv_skip(es)
        self.iv = None if self.iv_skip else (
            e + delta, Fraction(eps) + Fraction(es.ke, 4) + Fraction(1, 2))
        # the right side of the Zariski identity, None when degenerate
        self.zar_rhs = None
        if et != b and delta != 1:
            self.zar_rhs = -((1 - delta) ** 2) / (et - b) + e - 1 - eps
        self.ratio = Fraction(-v.d, es.d)
        self.et_delta = et + delta
        self.two_ends = sum(1 for t in twigs if t[-1] == 2)
        self.d_min = min(map(chains.d, twigs))


class Predicate(NamedTuple):
    """A row of :data:`PREDICATES`: an integer test of (fork record, twigs,
    shape, |G|) and a witness text of the facts.  A test may return a skip
    message, which passes."""

    test: Callable[[ForkInvariants, tuple[Weights, ...], ExceptionalShape, int], object]
    witness: Callable[[_Facts], str]


# The predicate suite, in the order a report lists it.
PREDICATES = {
    # Noether count: #E + #D = 7 + eps + K.D + K.E, that is
    # #E - eps - K.E = 4 + b + sum (w - 3)
    "noether": Predicate(
        lambda v, tw, es, g: es.size - es.epsilon - es.ke
        == 4 + v.b + sum(w - 3 for t in tw for w in t),
        lambda f: f"{f.noether[0]} vs {f.noether[1]}",
    ),
    # delta <= e = -Bk^2 D <= 1 + eps + Bk^2 E + 3/|G|
    "bmy": Predicate(_bmy, lambda f: f"{f.delta} <= {f.e} <= {f.bmy}"),
    # the three eps < 2 inequalities (s = 3 twigs throughout)
    "eps2_ii": Predicate(
        lambda v, tw, es, g: _eps2_skip(es) or (g - 6) * v.D <= v.S * g,
        lambda f: f.eps2_skip or f"1-6/{f.g} vs {f.delta}",
    ),
    "eps2_iii": Predicate(_eps2_iii, lambda f: f.eps2_skip or f"{f.eps2_iii}"),
    # e + delta >= eps + K.E/4 + 1/2
    "eps2_iv": Predicate(
        lambda v, tw, es, g: _iv_skip(es)
        or 4 * (v.E + v.S) >= v.D * (4 * es.epsilon + es.ke + 2),
        lambda f: f.iv_skip or f"{f.iv[0]} vs {f.iv[1]}",
    ),
    # Zariski-decomposition conditions on the fork boundary
    "zar_b": Predicate(
        lambda v, tw, es, g: v.b in (1, 2) and v.b * v.D < v.Et,
        lambda f: f"b={f.b}, e~={f.et}",
    ),
    "zar_delta": Predicate(lambda v, tw, es, g: v.S < v.D, lambda f: f"delta={f.delta}"),
    "zar_bk2": Predicate(
        _zar_bk2,
        lambda f: "degenerate: e~ = b or delta = 1" if f.zar_rhs is None
        else f"{f.eshape.bk_square} vs {f.zar_rhs}",
    ),
    # -d(D)/d(E) must be a positive perfect square
    "square": Predicate(_square, lambda f: f"-d(D)/d(E) = {f.ratio}"),
    # K.E + 2 eps <= 5 with the single allowed exception, [4] with eps = 2;
    # every catalog family satisfies it, so only a shape built outside the
    # catalog can fail it
    "ke": Predicate(
        lambda v, tw, es, g: es.ke + 2 * es.epsilon <= 5
        or (es.epsilon == 2 and es.key() == "[4]"),
        lambda f: f"{f.eshape.ke}+2*{f.eps}",
    ),
    # strict inequalities of the general-type intermediate surface:
    # e~ + delta < b + 1, delta + 1/|G| > 1 and eps != 0
    "w2": Predicate(
        lambda v, tw, es, g: v.Et + v.S < (v.b + 1) * v.D
        and v.S * g + v.D > v.D * g and es.epsilon != 0,
        lambda f: f"e~+delta={f.et_delta} vs b+1={f.b + 1}; delta+1/|G|={f.delta_g}",
    ),
    "w2_delta_g": Predicate(
        lambda v, tw, es, g: v.S * g + v.D > v.D * g, lambda f: f"{f.delta_g}"
    ),
    # when the external (-2)-part has three components the branch weight is 2
    "delta3": Predicate(
        lambda v, tw, es, g: es.n_delta_components < 3 or v.b == 2,
        lambda f: f"delta components={f.eshape.n_delta_components}, b={f.b}",
    ),
    # context inequality of the nonpositive-Kodaira branch: e~ + delta >= 2
    "et_plus_delta_ge_2": Predicate(
        lambda v, tw, es, g: v.Et + v.S >= 2 * v.D, lambda f: f"{f.et_delta}"
    ),
    # boundary contains no chain (2,1,2): at most one twig may end in a
    # (-2)-curve when the branch vertex is a (-1)-curve
    "no_212": Predicate(
        lambda v, tw, es, g: v.b != 1 or sum(1 for t in tw if t[-1] == 2) <= 1,
        lambda f: f"b={f.b}, twigs ending in 2: {f.two_ends}",
    ),
    # every twig of minimal discriminant is a single curve
    "min_twig_irreducible": Predicate(_min_twig_irreducible, lambda f: f"d_min={f.d_min}"),
}
PREDICATE_NAMES = tuple(PREDICATES)


def evaluate_predicates(
    cand: BoundaryCandidate, *, group_order_mode: str = "actual"
) -> PredicateReport:
    """Every predicate of :data:`PREDICATES` on ``cand``: the ok flag of its
    integer test, and its witness."""
    v = fork_invariants(cand.fork)
    if v.D < 0:  # the tests multiply through by D
        raise ValueError("the twig discriminants of a candidate must have a positive product")
    twigs, es = cand.twigs, cand.eshape
    g = es.group_order_for(group_order_mode)
    f = _Facts(v, twigs, es, g)
    return PredicateReport(
        {name: (bool(p.test(v, twigs, es, g)), p.witness(f)) for name, p in PREDICATES.items()}
    )


# A hit of a join: the fork record, twigs and shape a verdict reads, and the
# result kept if it passes (a BoundaryCandidate or a ruling.TwoFiberSolution).
Hit = tuple[ForkInvariants, tuple[Weights, Weights, Weights], ExceptionalShape, object]


class Hits(tuple):
    """The hits of a join, sorted by their results' ``sort_key()``, and what
    has been decided on them so far.

    The sort is stable, so hits of equal keys keep the order they came in,
    and the survivors in index order are the survivors sorted.
    ``verdicts`` maps a group-order mode to its verdict masks: for each
    predicate name a pair of bit masks (tested, passed), bit i for hit i,
    set in ``tested`` once the predicate is tested on the hit and in
    ``passed`` if it passed.  ``reports`` holds each :meth:`report` asked
    for, per mode, and ``printed`` each row :meth:`rows` built.  They live
    as long as the ``Hits``: :func:`dgk.search._join` keeps each search's, so a flag
    variant of a joined box reads what an earlier one decided and printed."""

    verdicts: dict[str, dict[str, tuple[int, int]]]
    reports: dict[str, dict[int, PredicateReport]]
    printed: dict[int, dict]

    def __new__(cls, hits: Iterable[Hit]) -> Hits:
        return super().__new__(cls, sorted(hits, key=lambda hit: hit[3].sort_key()))

    def __init__(self, hits: Iterable[Hit]) -> None:
        self.verdicts = {}
        self.reports = {}
        self.printed = {}

    def rows(self, indices: Iterable[int]) -> list[dict]:
        """The ``to_dict()`` of the candidates of the hits at ``indices``,
        their golden-file rows, each built on its first request and kept.
        Each call returns new dicts with new ``twigs`` lists, so a caller
        that edits its output changes nothing kept."""
        printed = self.printed
        out = []
        for i in indices:
            row = printed.get(i)
            if row is None:
                row = printed[i] = self[i][3].to_dict()
            row = row.copy()
            row["twigs"] = row["twigs"].copy()
            out.append(row)
        return out

    def report(self, i: int, group_order_mode: str) -> PredicateReport:
        """The :func:`evaluate_predicates` report of hit ``i``'s candidate,
        built on the first request and kept read-only, so a caller that
        writes into its ``entries`` raises instead of changing the kept one."""
        reports = self.reports.setdefault(group_order_mode, {})
        report = reports.get(i)
        if report is None:
            entries = evaluate_predicates(self[i][3], group_order_mode=group_order_mode).entries
            report = reports[i] = PredicateReport(MappingProxyType(entries))
        return report


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending."""
    if mask.bit_count() * 8 < mask.bit_length():  # a few bits: peel off the lowest
        found = []
        while mask:
            low = mask & -mask
            found.append(low.bit_length() - 1)
            mask ^= low
        return found
    digits = bin(mask)[:1:-1].encode().translate(_DIGITS)  # a byte per bit, lowest first
    return list(compress(range(len(digits)), digits))


def decide(
    hits: Sequence[Hit], names: tuple[str, ...], group_order_mode: str = "actual"
) -> list[int]:
    """The decision pass: the indices, ascending, of the hits that pass
    every predicate of ``names`` on the record the join formed.  ``hits``
    is a :class:`Hits`, so the indices are in the sorted order of the
    results.

    Every hit starts alive, and each verdict is kept in the masks of
    ``group_order_mode``: each name in turn tests only the alive hits it
    holds untested, then takes ``alive &= passed``, and the walk stops once
    no hit is alive.  So a hit is tested in the order of ``names`` up to
    its first failing predicate, less the tests made before, and a list
    decided before makes none."""
    group_order = group_order_reader(group_order_mode)  # refused before any mask is kept
    masks = hits.verdicts.setdefault(group_order_mode, {})
    alive = (1 << len(hits)) - 1
    for name in names:
        if not alive:
            break
        tested, passed = masks.get(name, (0, 0))
        new = alive & ~tested
        if new:
            test = PREDICATES[name].test
            for i in _bits(new):
                record, twigs, shape, _ = hits[i]
                if test(record, twigs, shape, group_order(shape)):
                    passed |= 1 << i
            masks[name] = tested | new, passed
        alive &= passed
    return _bits(alive)
