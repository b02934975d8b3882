"""Weighted chains and forks.

A weighted chain is stored as a tuple of positive integers: the weight w of a
vertex means the corresponding curve has self-intersection -w.  A chain is
*admissible* when every weight is >= 2.  Bracket notation compresses maximal
runs of at least two consecutive 2's, so ``[3,(2)]`` denotes the chain
(3, 2, 2) and ``[(0)]`` the empty chain.  A fiber is written in the same
notation, where an entry may also carry the mark ``*`` of the (-1)-curve and
a multiplicity, as in ``[5:1,3:5,1*:14]``; a chain is a fiber without them.

Forks are trees with a single branching vertex of valency three; the three
twigs are stored tip-first (the last entry of each twig is the component
attached to the branching vertex); :func:`require_admissible` is the one
check and refusal of a twig.  The package works on chains and forks
through their discriminants in closed form; the generic weighted tree with
its intersection matrix, determinant and negative-definiteness test is the
reference route of the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

Weights = tuple[int, ...]


class ChainParseError(ValueError):
    """Malformed bracket notation; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# one curve of a bracket entry: (weight, mark '*', multiplicity or None,
# entry text, entry position); a run (k) gives k curves of weight 2
Curve = tuple[int, bool, int | None, str, int]

_ENTRY = re.compile(r"\s*(?:\(\s*(\d+)\s*\)|(\d+)\s*(\*?)\s*(?::\s*(\d+))?)\s*")
# the most curves one bracket text may hold, so that a short run such as
# (1000000000) is refused before it is expanded
MAX_CURVES = 100_000


def read_brackets(text: str, word: str) -> list[Curve]:
    """The curves of ``[e1,...,en]``, each entry being w, w*, w:m, w*:m or
    (k); ``word`` ("chain" or "fiber") names the entries in errors, and a
    position counts from the start of ``text``.  An entry that would take
    the text past :data:`MAX_CURVES` curves is refused, a run before it is
    expanded, as is an entry with a number of more digits than ``int()``
    converts."""
    body = text.strip()
    pos = len(text) - len(text.lstrip())
    if not body.startswith("["):
        raise ChainParseError("expected '['", pos)
    curves: list[Curve] = []
    for item in body[1:].removesuffix("]").split(","):
        pos += 1  # past the '[' or the ','
        entry = item.strip()
        m = _ENTRY.fullmatch(item)
        if m is None:
            raise ChainParseError(f"bad {word} entry {entry!r}", pos)
        run, w, star, mult = m.groups()
        try:  # int() refuses a number of more digits than Python converts
            run, w, mult = (None if v is None else int(v) for v in (run, w, mult))
        except ValueError:
            raise ChainParseError(f"{word} entry {entry!r} has too many digits", pos) from None
        if len(curves) + (1 if run is None else run) > MAX_CURVES:
            kind = "entry" if run is None else "run"
            raise ChainParseError(
                f"{kind} {entry!r} takes the {word} past {MAX_CURVES} curves", pos
            )
        if run is None:
            curves.append((w, star == "*", mult, entry, pos))
        else:
            curves.extend([(2, False, None, entry, pos)] * run)
        pos += len(item)
    if not body.endswith("]"):
        raise ChainParseError(f"expected ']' after entry {entry!r}", pos)
    return curves


def parse_chain(text: str) -> Weights:
    """Parse bracket notation into a weight tuple: ``[w1,...,wk]`` where each
    item is a positive integer or ``(m)``, m >= 0 consecutive 2's.  ``[]`` and
    ``[(0)]`` give the empty chain."""
    if "".join(text.split()) == "[]":
        return ()
    curves = read_brackets(text, "chain")
    for w, mark, mult, entry, pos in curves:
        if mark or mult is not None or not w:
            raise ChainParseError(
                f"chain entry {entry!r} must be a positive weight or a run (k)", pos
            )
    return tuple([c[0] for c in curves])


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


def require_admissible(weights: Weights, what: str) -> Weights:
    """``weights``, if they are a nonempty admissible chain; the one refusal
    of a twig that is not, naming it as ``what`` in bracket notation."""
    if not weights or not is_admissible_chain(weights):
        raise ValueError(f"{what} {format_chain(weights)} is not a nonempty admissible chain")
    return weights


class Fork(NamedTuple):
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
