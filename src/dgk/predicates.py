"""The predicate suite on boundary candidates.

A boundary candidate is a branch weight b together with three oriented
admissible twigs (tip first; the last weight sits next to the branch vertex)
and an exceptional shape.  :data:`PREDICATES` names each condition once,
with its test and its witness.  All conditions are evaluated exactly.  The
report never short-circuits, so a failing candidate still shows every witness
value; the verdict :func:`passes` does, at the first failing name.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from . import chains
from .barks import ExceptionalShape, fork_invariants
from .graphs import Fork, Weights, format_chain


@dataclass(frozen=True)
class BoundaryCandidate:
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


@dataclass(frozen=True)
class PredicateReport:
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


def is_positive_perfect_square(x: Fraction) -> bool:
    if x <= 0 or x.denominator != 1:
        return False
    n = x.numerator
    r = isqrt(n)
    return r * r == n


class _Facts:
    """What the predicates of one candidate read, each value computed once."""

    def __init__(self, cand: BoundaryCandidate, group_order_mode: str) -> None:
        inv = fork_invariants(cand.fork)
        self.delta, self.e, self.et = delta, e, et = inv.delta, inv.e, inv.e_tilde
        self.b, self.twigs, self.eshape = b, twigs, es = cand.b, cand.twigs, cand.eshape
        self.eps = eps = es.epsilon
        self.g = g = es.group_order_for(group_order_mode)
        self.delta_g = delta + Fraction(1, g)
        # the two sides of Noether's count
        size_d = 1 + sum(len(t) for t in twigs)
        k_dot_d = (b - 2) + sum(w - 2 for t in twigs for w in t)
        self.noether = es.size + size_d, 7 + eps + k_dot_d + es.ke
        self.bmy = 1 + eps + es.bk_square + Fraction(3, g)
        # the eps < 2 inequalities: a skip message, or the values they compare
        self.eps2_skip = "skipped: eps = 2" if eps >= 2 else ""
        self.eps2_iii = None if eps >= 2 else eps + es.bk_square + Fraction(9, g)
        self.iv_skip = self.eps2_skip or (
            "" if es.delta_empty else "skipped: external (-2)-curves present"
        )
        self.iv = None if self.iv_skip else (
            e + delta, Fraction(eps) + Fraction(es.ke, 4) + Fraction(1, 2))
        # the right side of the Zariski identity, None when degenerate
        self.zar_rhs = None
        if et != b and delta != 1:
            self.zar_rhs = -((1 - delta) ** 2) / (et - b) + e - 1 - eps
        self.ratio = Fraction(-inv.d, es.d)
        self.et_delta = et + delta
        self.two_ends = sum(1 for t in twigs if t[-1] == 2)
        self.ds = tuple(map(chains.d, twigs))
        self.d_min = min(self.ds)


class Predicate(NamedTuple):
    """A row of :data:`PREDICATES`: a test and a witness text of the facts.
    A test may return a skip message, which passes."""

    test: Callable[[_Facts], object]
    witness: Callable[[_Facts], str]


# The predicate suite, in the order a report lists it.
PREDICATES = {
    # Noether count: #E + #D = 7 + eps + K.D + K.E
    "noether": Predicate(
        lambda f: f.noether[0] == f.noether[1],
        lambda f: f"{f.noether[0]} vs {f.noether[1]}",
    ),
    # delta <= e = -Bk^2 D <= 1 + eps + Bk^2 E + 3/|G|
    "bmy": Predicate(
        lambda f: f.delta <= f.e <= f.bmy,
        lambda f: f"{f.delta} <= {f.e} <= {f.bmy}",
    ),
    # the three eps < 2 inequalities (s = 3 twigs throughout)
    "eps2_ii": Predicate(
        lambda f: f.eps2_skip or 1 - Fraction(6, f.g) <= f.delta,
        lambda f: f.eps2_skip or f"1-6/{f.g} vs {f.delta}",
    ),
    "eps2_iii": Predicate(
        lambda f: f.eps2_skip or f.eps2_iii >= 0,
        lambda f: f.eps2_skip or f"{f.eps2_iii}",
    ),
    "eps2_iv": Predicate(
        lambda f: f.iv_skip or f.iv[0] >= f.iv[1],
        lambda f: f.iv_skip or f"{f.iv[0]} vs {f.iv[1]}",
    ),
    # Zariski-decomposition conditions on the fork boundary
    "zar_b": Predicate(
        lambda f: f.b in (1, 2) and f.b < f.et,
        lambda f: f"b={f.b}, e~={f.et}",
    ),
    "zar_delta": Predicate(lambda f: f.delta < 1, lambda f: f"delta={f.delta}"),
    "zar_bk2": Predicate(
        lambda f: f.zar_rhs is not None and f.eshape.bk_square == f.zar_rhs,
        lambda f: "degenerate: e~ = b or delta = 1" if f.zar_rhs is None
        else f"{f.eshape.bk_square} vs {f.zar_rhs}",
    ),
    # -d(D)/d(E) must be a positive perfect square
    "square": Predicate(
        lambda f: is_positive_perfect_square(f.ratio),
        lambda f: f"-d(D)/d(E) = {f.ratio}",
    ),
    # K.E + 2 eps <= 5 with the single allowed exception, [4] with eps = 2;
    # every catalog family satisfies it, so only a shape built outside the
    # catalog can fail it
    "ke": Predicate(
        lambda f: f.eshape.ke + 2 * f.eps <= 5 or (f.eps == 2 and f.eshape.key() == "[4]"),
        lambda f: f"{f.eshape.ke}+2*{f.eps}",
    ),
    # strict inequalities of the general-type intermediate surface
    "w2": Predicate(
        lambda f: f.et_delta < f.b + 1 and f.delta_g > 1 and f.eps != 0,
        lambda f: f"e~+delta={f.et_delta} vs b+1={f.b + 1}; delta+1/|G|={f.delta_g}",
    ),
    "w2_delta_g": Predicate(lambda f: f.delta_g > 1, lambda f: f"{f.delta_g}"),
    # when the external (-2)-part has three components the branch weight is 2
    "delta3": Predicate(
        lambda f: f.eshape.n_delta_components < 3 or f.b == 2,
        lambda f: f"delta components={f.eshape.n_delta_components}, b={f.b}",
    ),
    # context inequality of the nonpositive-Kodaira branch
    "et_plus_delta_ge_2": Predicate(lambda f: f.et_delta >= 2, lambda f: f"{f.et_delta}"),
    # boundary contains no chain (2,1,2): at most one twig may end in a
    # (-2)-curve when the branch vertex is a (-1)-curve
    "no_212": Predicate(
        lambda f: f.b != 1 or f.two_ends <= 1,
        lambda f: f"b={f.b}, twigs ending in 2: {f.two_ends}",
    ),
    # every twig of minimal discriminant is a single curve
    "min_twig_irreducible": Predicate(
        lambda f: all(len(t) == 1 for t, dd in zip(f.twigs, f.ds) if dd == f.d_min),
        lambda f: f"d_min={f.d_min}",
    ),
}
PREDICATE_NAMES = tuple(PREDICATES)


def evaluate_predicates(
    cand: BoundaryCandidate, *, group_order_mode: str = "actual"
) -> PredicateReport:
    """Every predicate of :data:`PREDICATES` on ``cand``, with its witness."""
    f = _Facts(cand, group_order_mode)
    return PredicateReport(
        {name: (bool(p.test(f)), p.witness(f)) for name, p in PREDICATES.items()}
    )


def passes(
    cand: BoundaryCandidate, names: tuple[str, ...], *, group_order_mode: str = "actual"
) -> bool:
    """Whether ``cand`` passes every predicate of ``names``: the verdict of
    :meth:`PredicateReport.passes`, decided at the first failing name and
    without formatting a witness."""
    f = _Facts(cand, group_order_mode)
    return all(PREDICATES[name].test(f) for name in names)
