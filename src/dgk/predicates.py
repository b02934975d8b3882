"""The predicate suite on boundary candidates.

A boundary candidate is a branch weight b together with three oriented
admissible twigs (tip first; the last weight sits next to the branch vertex)
and an exceptional shape.  :data:`PREDICATES` names each condition once,
with its test and its witness.  Each test decides its condition in integers:
it cross-multiplies the fork record (b, D, S, E, Et) of
:func:`dgk.barks.fork_invariants` with the shape's integers (d(E), K.E,
epsilon, |G| and Bk^2(E) = q/r) and builds no ``Fraction``.

:func:`decide` is the one decision pass of the searches and the two-fiber
solver: the results of the hits that pass, canonically sorted, each hit
decided on the record its join formed.  Each hit is tested in the order of
the names up to its first failing predicate.  A join's hits are a
:class:`Hits`, which keeps two bit masks per (group-order mode, predicate
name), the hits tested and the hits passed, so a predicate is tested on a
hit at most once per mode however many lists are decided on it: once a
mode has masks, ``decide`` takes ``alive &= passed`` name by name, testing
only the alive hits not yet tested, and a list decided before costs one
step per name and one per survivor.  A ``Hits`` also keeps each survivor's
sort key and, for xy, each report asked for (:meth:`Hits.report`,
read-only).  The report :func:`evaluate_predicates` reads every ok flag
from the same tests and never short-circuits, so a failing candidate still
shows every witness value; ``Fraction`` appears only in the witnesses.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import compress
from math import isqrt
from types import MappingProxyType
from typing import NamedTuple

from . import chains
from .barks import ExceptionalShape, ForkInvariants, fork_invariants
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
        return (
            self.eshape.key(),
            self.eshape.epsilon,
            self.b,
            tuple(sorted((chains.d(t), t) for t in self.twigs)),
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
    """The hits of a join and what has been decided on them so far.

    ``verdicts`` maps a group-order mode to its verdict masks: for each
    predicate name a pair of bit masks (tested, passed), bit i for hit i,
    set in ``tested`` once the predicate is tested on the hit and in
    ``passed`` if it passed (a :class:`_Masks`).  ``sort_keys`` holds each
    hit's ``sort_key()`` from the first time it passes a decide, and
    ``reports`` each :meth:`report` asked for, per mode.  They live as long
    as the ``Hits``: :func:`dgk.search._join` keeps each search's, so a flag
    variant of a joined box reads what an earlier one decided."""

    verdicts: dict[str, _Masks]
    sort_keys: list
    reports: dict[str, dict[int, PredicateReport]]

    def __init__(self, hits: Iterable[Hit]) -> None:
        self.verdicts = {}
        self.sort_keys = [None] * len(self)
        self.reports = {}

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


class _Masks(dict):
    """The (tested, passed) masks of one group-order mode, by predicate name.

    The mode's first decide leaves its ``names`` and, per hit, 1 + the
    number of them the hit passed (0 if it was not decided), so the walk
    writes one byte per hit; a name's masks are read off those bytes the
    first time they are asked for, and a name never tested has none."""

    def __init__(self, names: tuple[str, ...], stops: bytearray) -> None:
        self.names = names
        self.digits = stops[::-1]  # the last hit first, as int() reads a number

    def __missing__(self, name: str) -> tuple[int, int]:
        if name not in self.names:
            return 0, 0
        j = self.names.index(name)  # tested once it passed the j names before
        tested, passed = (int(self.digits.translate(b"0" * (k + 1) + b"1" * (255 - k)), 2)
                          for k in (j, j + 1))
        self[name] = tested, passed
        return tested, passed


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
    hits: Sequence[Hit], names: tuple[str, ...], group_order_mode: str = "actual",
    alive: int | None = None, indices: bool = False,
) -> list:
    """The decision pass: the result of each hit that passes every predicate
    of ``names`` on the record the join formed, sorted by its ``sort_key()``;
    with ``indices``, a :class:`Hits` gives the indices of those hits in
    that order instead.

    ``alive`` is the bit mask of the hits to decide, bit i for ``hits[i]``;
    all of them by default.  A hit is tested in the order of ``names`` up to
    its first failing predicate.  A :class:`Hits` keeps each verdict in its
    masks under ``group_order_mode`` and each survivor's sort key: the
    mode's first decide walks hit by hit, writing a byte per hit that the
    masks are read off (:class:`_Masks`); once the mode has masks, each name
    takes ``alive &= passed`` after testing only the alive hits it holds
    untested, and the walk stops once no hit is alive.  So every decide
    makes the tests of a verdict that stops at each hit's first failing
    name, less those made before, and a list decided before makes none.
    Any other sequence, such as the two-fiber solver's, keeps nothing."""
    if group_order_mode not in ("actual", "h1"):
        raise ValueError(f"unknown group order mode {group_order_mode!r}")
    if not hits or alive == 0:
        return []
    verdicts = getattr(hits, "verdicts", None)
    if verdicts is None:  # nothing to keep: each hit stops at its first failing name
        found = []
        for i in range(len(hits)) if alive is None else _bits(alive):
            record, twigs, shape, result = hits[i]
            g = shape.group_order_for(group_order_mode)
            for name in names:
                if not PREDICATES[name].test(record, twigs, shape, g):
                    break
            else:
                found.append(result)
        found.sort(key=lambda result: result.sort_key())
        return found
    tables = verdicts.get(group_order_mode)
    if tables is None:  # the mode's first decide: each hit up to its first failing name
        names = tuple(dict.fromkeys(names))  # a repeat tests nothing new
        tests = [PREDICATES[name].test for name in names]
        stops = bytearray(len(hits))
        kept = []
        for i in range(len(hits)) if alive is None else _bits(alive):
            record, twigs, shape, _ = hits[i]
            g = shape.group_order_for(group_order_mode)
            k = 1
            for test in tests:
                if not test(record, twigs, shape, g):
                    break
                k += 1
            else:
                kept.append(i)
            stops[i] = k
        verdicts[group_order_mode] = _Masks(names, stops)
    else:  # the mode has masks: walk the names, testing what is untested
        alive = (1 << len(hits)) - 1 if alive is None else alive
        for name in names:
            if not alive:
                break
            tested, passed = tables[name]
            new = alive & ~tested
            if new:
                test = PREDICATES[name].test
                for i in _bits(new):
                    record, twigs, shape, _ = hits[i]
                    if test(record, twigs, shape, shape.group_order_for(group_order_mode)):
                        passed |= 1 << i
                tables[name] = tested | new, passed
            alive &= passed
        kept = _bits(alive)
    sort_keys = hits.sort_keys
    for i in kept:
        if sort_keys[i] is None:
            sort_keys[i] = hits[i][3].sort_key()
    kept.sort(key=sort_keys.__getitem__)
    return kept if indices else [hits[i][3] for i in kept]
