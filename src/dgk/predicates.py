"""The predicate suite on boundary candidates.

A boundary candidate is a branch weight b together with three oriented
admissible twigs (tip first; the last weight sits next to the branch vertex)
and an exceptional shape.  All conditions are evaluated exactly and reported
individually; nothing short-circuits, so a failing candidate still shows every
witness value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

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


# The names of the predicates evaluate_predicates reports, in its order.
PREDICATE_NAMES = (
    "noether",
    "bmy",
    "eps2_ii",
    "eps2_iii",
    "eps2_iv",
    "zar_b",
    "zar_delta",
    "zar_bk2",
    "square",
    "ke",
    "w2",
    "w2_delta_g",
    "delta3",
    "et_plus_delta_ge_2",
    "no_212",
    "min_twig_irreducible",
)


def evaluate_predicates(
    cand: BoundaryCandidate, *, group_order_mode: str = "actual"
) -> PredicateReport:
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
