"""Discriminants and rational invariants of weighted chains.

For a chain T = [a1,...,an] the discriminant d(T) is the determinant of the
minus intersection matrix, with d of the empty chain equal to 1.  It obeys

    d([a1,...,an]) = a1 * d([a2,...,an]) - d([a3,...,an]).

d'(T) drops the first component, d''(T) the first two.  For admissible chains
(all weights >= 2, hence d > 0) we work with the exact rationals

    delta = 1/d,  e = d'/d,  e~ = e of the reversed chain,

and e satisfies the continued-fraction recurrence e(T) = 1/(a1 - e(T - T1)),
which makes e a bijection from oriented admissible chains onto the rationals
of (0,1) (the empty chain maps to 0).  Its inverse is the Hirzebruch-Jung
continued fraction, which :func:`chain_of` expands in integers; every chain
this module builds from a fraction or a discriminant comes from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple

from .graphs import (
    MAX_CURVES, Weights, canonical_chain, format_chain, require_admissible, reverse_chain,
)


class DegenerateChainError(ValueError):
    """Raised when an invariant needs d != 0 but the chain has d == 0."""


def d(weights: Weights) -> int:
    """The discriminant, by one pass of the recurrence from the far end."""
    cur, prev = 1, 0
    for a in reversed(weights):
        cur, prev = a * cur - prev, cur
    return cur


def continuants(weights: Weights) -> tuple[list[int], list[int]]:
    """d of every prefix and suffix in one pass: pre[i + 1] = d(weights[:i])
    and suf[i] = d(weights[i:]) for 0 <= i <= n, with pre[0] = suf[n + 1] = 0,
    the d before an empty prefix and after an empty suffix."""
    pre, suf = [0, 1], [0, 1]
    for a, z in zip(weights, reversed(weights)):
        pre.append(a * pre[-1] - pre[-2])
        suf.append(z * suf[-1] - suf[-2])
    return pre, suf[::-1]


def d_prime(weights: Weights) -> int:
    """d of the chain with its first component removed; 0 for the empty chain."""
    if not weights:
        return 0
    return d(weights[1:])


def e(weights: Weights) -> Fraction:
    return invariants(weights).e


def e_tilde(weights: Weights) -> Fraction:
    return e(reverse_chain(weights))


def delta(weights: Weights) -> Fraction:
    return invariants(weights).delta


class ChainRecord(NamedTuple):
    """The integers of one oriented chain; fork sums and scan keys read them,
    and the rational invariants are its properties."""

    ws: Weights
    d: int
    d_prime: int  # d of the chain without its tip, so e = d'/d
    d_prime_rev: int  # d of the chain without its last curve, so e~ = d'(rev)/d
    kd: int  # sum of (w - 3): K.T - #T, the chain's share of the probe key

    @property
    def e(self) -> Fraction:
        return Fraction(self.d_prime, self.d)

    @property
    def e_tilde(self) -> Fraction:
        return Fraction(self.d_prime_rev, self.d)

    @property
    def delta(self) -> Fraction:
        return Fraction(1, self.d)


def chain_record(weights: Weights) -> ChainRecord:
    """The record of any weights; nothing is divided, so d = 0 is fine.

    One pass multiplies [[a, -1], [1, 0]] over the weights; the product is
    [[d, -d(ws[:-1])], [d(ws[1:]), -d(ws[1:-1])]], the identity for the
    empty chain, whose d' and d(ws[:-1]) are both 0.
    """
    p, q, s, t = 1, 0, 0, 1
    for a in weights:
        p, q, s, t = a * p + q, -p, a * s + t, -s
    return ChainRecord(weights, p, s, -q, sum(weights) - 3 * len(weights))


def invariants(weights: Weights) -> ChainRecord:
    """The record of a chain with d != 0, whose fractions are all defined."""
    record = chain_record(weights)
    if record.d == 0:
        raise DegenerateChainError(f"chain {format_chain(weights)} has zero discriminant")
    return record


def chain_of(dd: int, k: int) -> Weights:
    """The admissible chain T with d(T) = dd and d'(T) = k, for coprime 0 <= k < dd.

    The Hirzebruch-Jung expansion of dd/k in integers: a1 is the ceiling of
    dd/k, and T - T1 is the chain of d = k and d' = a1*k - dd.  k == 0 gives
    the empty chain.
    """
    weights: list[int] = []
    while k:
        a = -(-dd // k)
        weights.append(a)
        dd, k = k, a * k - dd
    return tuple(weights)


def chain_from_e(target: Fraction) -> Weights:
    """The unique admissible chain with e equal to ``target`` in [0, 1)."""
    if isinstance(target, (float, bool)):
        raise ValueError(f"e value must be exact, got {target!r}")
    target = Fraction(target)
    if not 0 <= target < 1:
        raise ValueError(f"e value must lie in [0,1), got {target}")
    return chain_of(target.denominator, target.numerator)


def adjoint_chain(weights: Weights) -> Weights:
    """The admissible chain A with e(A) = 1 - e(T): d(A) = d(T), d'(A) = d(T) - d'(T)."""
    record = chain_record(require_admissible(weights, "chain"))
    return chain_of(record.d, record.d - record.d_prime)


def oriented_chains_with_d(target: int) -> list[Weights]:
    """All oriented admissible chains with discriminant ``target``.

    One for each k < target coprime to target: the chain with e~ = k/target,
    the reversal of ``chain_of(target, k)``.  Taken by decreasing k they come
    in increasing order of their reversed weights.
    """
    if target < 1:
        raise ValueError("discriminant must be >= 1")
    return [chain_of(target, k)[::-1] for k in range(target - 1, 0, -1) if gcd(k, target) == 1]


def enumerate_admissible_chains(target: int) -> list[Weights]:
    """Admissible chains with discriminant ``target``, up to reversal.

    Returns canonical forms sorted lexicographically; for target >= 2 the
    list always contains [target] and the chain of target-1 twos, so a
    target past :data:`dgk.graphs.MAX_CURVES` + 1 is refused.
    """
    if target < 2:
        raise ValueError("discriminant must be >= 2")
    if target - 1 > MAX_CURVES:
        raise ValueError(f"discriminant {target} gives a chain past {MAX_CURVES} curves")
    out = {canonical_chain(c) for c in oriented_chains_with_d(target)}
    return sorted(out)


def classify_e_plus_alpha(alpha: int) -> Callable[[Weights], bool]:
    """Shape predicate for oriented admissible chains with e + alpha/d = 1.

    alpha=1: a chain of 2's (possibly empty); alpha=2: 2's followed by a
    single 3; alpha=3: 2's followed by either (3,2) or a single 4.
    """
    if alpha not in (1, 2, 3):
        raise ValueError("alpha must be 1, 2 or 3")

    def pred(weights: Weights) -> bool:
        if alpha == 1:
            return all(w == 2 for w in weights)
        if alpha == 2:
            return len(weights) >= 1 and weights[-1] == 3 and all(
                w == 2 for w in weights[:-1]
            )
        return (
            len(weights) >= 2
            and weights[-2:] == (3, 2)
            and all(w == 2 for w in weights[:-2])
        ) or (
            len(weights) >= 1 and weights[-1] == 4 and all(w == 2 for w in weights[:-1])
        )

    return pred
