"""Weighted chains and forks.

A weighted chain is stored as a tuple of positive integers: the weight w of a
vertex means the corresponding curve has self-intersection -w.  A chain is
*admissible* when every weight is >= 2.  Bracket notation compresses maximal
runs of at least two consecutive 2's, so ``[3,(2)]`` denotes the chain
(3, 2, 2) and ``[(0)]`` the empty chain.

Forks are trees with a single branching vertex of valency three; the three
twigs are stored tip-first (the last entry of each twig is the component
attached to the branching vertex).  The package works on chains and forks
through their discriminants in closed form; the generic weighted tree with
its intersection matrix, determinant and negative-definiteness test is the
reference route of the tests, in ``tests/reference.py``.
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
