"""Seeded input generation and independent reference arithmetic.

Nothing here imports dgk: the same seed gives byte-identical inputs whatever
the program does, and the reference values used by the output checks come
from a route that shares no code with the program.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from fractions import Fraction
from math import gcd

SEARCHES = ("final-bounds", "xy", "knonpos", "fiber-pairs")

# The predicates the indexed scan enforces through its hash lookup whether or
# not a bounds file lists them.  Dropping one makes today's scan return
# incomplete output silently, so every variant keeps all four.
INDEX_PREDICATES = ("noether", "zar_b", "zar_delta", "zar_bk2")
OTHER_PREDICATES = (
    "bmy",
    "eps2_ii",
    "eps2_iii",
    "eps2_iv",
    "square",
    "ke",
    "w2",
    "w2_delta_g",
    "delta3",
    "et_plus_delta_ge_2",
    "no_212",
    "min_twig_irreducible",
)
ALL_PREDICATES = INDEX_PREDICATES + OTHER_PREDICATES

# Three box levels per search.  Catalog-backed searches (final-bounds,
# knonpos) stay inside their checked-in boxes because nothing checks the
# catalog_max_size cap.  The largest level of final-bounds, knonpos and
# fiber-pairs is the checked-in box; xy stays inside its box, whose full
# size would take four seconds alone.
BOXES = {
    "final-bounds": tuple(
        {"d_rules": [
            {"x": 3, "y_min": 3, "y_max": 3, "z_max": 5},
            {"x": 2, "y_min": 3, "y_max": 5, "z_max": z},
        ]}
        for z in (20, 30, 41)
    ),
    "xy": (
        {"x_max": 2, "y_max": 11, "z_max": 41},
        {"x_max": 3, "y_max": 8, "z_max": 30},
        {"x_max": 4, "y_max": 6, "z_max": 25},
    ),
    "knonpos": (
        {"d2_max": 6, "d3_max": 20, "case2_k_max": 5},
        {"d2_max": 8, "d3_max": 30, "case2_k_max": 7},
        {"d2_max": 11, "d3_max": 42, "case2_k_max": 9},
    ),
    "fiber-pairs": tuple({"twig_d_max": m} for m in (4, 5, 6)),
}

# The four (shape, epsilon) pairs the named-shape searches use; the solver
# needs an irreducible E with at most one external (-2)-curve.
SOLVER_SHAPES = (("[2,3]", 2), ("[3]", 2), ("[4]", 1), ("[5]", 1))
# Shapes of at most three components from the size-12 catalog.
PREDICATE_SHAPES = SOLVER_SHAPES + (
    ("[4]", 2), ("[5]", 0), ("[6]", 0), ("[7]", 0), ("[2,4]", 1),
    ("[3,3]", 1), ("[3,4]", 1), ("[(2),3]", 2), ("[2,3,2]", 2),
    ("[2,4,2]", 1), ("[3,2,3]", 1), ("[3,3,3]", 1),
)


def digest(obj) -> str:
    """SHA-256 of canonical JSON; the determinism check compares these."""
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# reference arithmetic (continuant recurrence, closed forms)


def ref_d(ws) -> int:
    """d by the continuant recurrence, iterated from the far end."""
    cur, prev = 1, 0
    for a in reversed(ws):
        cur, prev = a * cur - prev, cur
    return cur


def ref_e(ws) -> Fraction:
    return Fraction(ref_d(ws[1:]), ref_d(ws)) if ws else Fraction(0)


def ref_fork_values(b: int, twigs) -> tuple[Fraction, Fraction, Fraction]:
    """(delta, e, e~) of a fork."""
    dl = sum(Fraction(1, ref_d(t)) for t in twigs)
    ee = sum(ref_e(t) for t in twigs)
    et = sum(ref_e(t[::-1]) for t in twigs)
    return dl, ee, et


def ref_chain_bark_square(ws) -> Fraction:
    return -Fraction(ref_d(ws[1:]) + ref_d(ws[:-1]) + 2, ref_d(ws))


def ref_fork_bark_square(b: int, twigs) -> Fraction:
    dl, ee, et = ref_fork_values(b, twigs)
    return -((dl - 1) ** 2) / (b - et) - ee


def ref_group_order(b: int, twigs) -> Fraction:
    dl, _, et = ref_fork_values(b, twigs)
    return 4 * (b - et) / (dl - 1) ** 2


def parse_bracket(text: str) -> tuple[int, ...]:
    """Bracket notation, with (m) standing for m 2's, to a weight tuple."""
    out: list[int] = []
    for item in text.strip()[1:-1].split(","):
        item = item.strip()
        if item.startswith("("):
            out.extend([2] * int(item[1:-1]))
        elif item:
            out.append(int(item))
    return tuple(out)


def bracket(ws) -> str:
    return "[" + ",".join(str(w) for w in ws) + "]"


def fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# explore-warm

# The dimensions that set a variant's cost follow a fixed design, so that a
# round costs about the same whatever the seed: each search runs at its three
# box levels, and the levels take the three (b set, delta_gmin) profiles in a
# rotation that differs from search to search.  delta_gmin = 2 is the pruning
# of the relaxed final-bounds file.
PROFILES = (([2], None), ([1], 2), ([1, 2], None))


def explore_round(rng: random.Random) -> list[dict]:
    """One round: every search at every box level, in seeded order, with
    seeded predicate lists, group-order convention and eps2 handling."""
    out = []
    for index, search in enumerate(SEARCHES):
        for level, box in enumerate(BOXES[search]):
            variant = {"search": search, "level": level, **copy.deepcopy(box)}
            # the checked-in files use both conventions
            variant["group_order_mode"] = rng.choice(("actual", "h1"))
            # any subset of the predicates the scan does not enforce itself
            variant["predicates"] = list(INDEX_PREDICATES) + [
                p for p in OTHER_PREDICATES if rng.random() < 0.5
            ]
            if search != "fiber-pairs":
                # the solver sweep has no b set, eps2 switch or delta_gmin
                b, gmin = PROFILES[(level + index) % len(PROFILES)]
                variant.update(b=list(b), delta_gmin=gmin)
                variant["exclude_eps2_chains"] = rng.random() < 0.5
            out.append(variant)
    rng.shuffle(out)
    return out


def explore_rounds(seed: int):
    """The endless stream of rounds for a seed."""
    rng = random.Random(f"explore-{seed}")
    while True:
        yield explore_round(rng)


# ---------------------------------------------------------------------------
# queries

# Calls of each kind in one batch.  Every batch holds the same calls with the
# same spread of input sizes, in seeded order and on fresh seeded inputs, so
# that a batch costs about the same whatever the seed.
QUERY_KINDS = (
    ("d", 6),
    ("invariants", 6),
    ("chain_from_e", 8),
    ("adjoint_chain", 8),
    ("bark_chain", 8),
    ("bark_one_sided", 8),
    ("bark_fork", 8),
    ("group_order", 8),
    ("reconstruct_fiber", 8),
    ("pairs_from_fiber", 8),
    ("solve_two_fiber", 8),
    ("evaluate_predicates", 6),
    ("cli", 10),
)
BATCH_SIZE = sum(n for _, n in QUERY_KINDS)
CLI_VERBS = ("d", "e", "bark", "group", "pairs")
FORK_KINDS = ("22n", "233", "234", "235")
CHAIN_MAX = 16
BARK_CHAIN_MAX = 24


def random_chain(rng: random.Random, length: int) -> tuple[int, ...]:
    return tuple(rng.choice((2, 2, 2, 2, 3, 3, 4, 5, 6, 7)) for _ in range(length))


def spread(i: int, count: int, top: int) -> int:
    """The i-th of ``count`` sizes spread evenly over 1..top."""
    return 1 + (i * top) // count


def oriented_chains_up_to(d_max: int) -> list[tuple[int, ...]]:
    """Every oriented admissible chain with 2 <= d <= d_max, sorted."""
    found = []

    def grow(chain, dd, dp):
        if chain:
            found.append(chain)
        a = 2
        while a * dd - dp <= d_max:
            grow((a,) + chain, a * dd - dp, dd)
            a += 1

    grow((), 1, 0)
    return sorted(found, key=lambda ws: (ref_d(ws), ws))


SMALL_TWIGS = oriented_chains_up_to(7)


def _twig_with_d(rng: random.Random, target: int) -> tuple[int, ...]:
    return rng.choice([ws for ws in SMALL_TWIGS if ref_d(ws) == target])


def random_fork(rng: random.Random, kind: str, length: int) -> dict:
    """An admissible fork: Platonic twig discriminants and b > e~.  Kind 22n
    takes a third twig of ``length`` components."""
    if kind == "22n":
        twigs = [(2,), (2,), random_chain(rng, length)]
    else:
        twigs = [(2,), _twig_with_d(rng, 3), _twig_with_d(rng, int(kind[2]))]
    rng.shuffle(twigs)
    et = sum(ref_e(ws[::-1]) for ws in twigs)
    b = rng.choice([w for w in (2, 3, 4) if w > et])
    return {"b": b, "twigs": [list(t) for t in twigs]}


def random_pairs(rng: random.Random, count: int) -> list[list[int]]:
    """``count`` pairs: c >= p >= 1, each next c the gcd, the last coprime."""
    while True:
        c, p = rng.randint(2, 9), rng.randint(1, 9)
        if p <= c and gcd(c, p) == 1:
            break
    seq = [(c, p)]
    while len(seq) < count:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        if b <= a and gcd(a, b) == 1:
            seq.insert(0, (seq[0][0] * a, seq[0][0] * b))
    return [list(x) for x in seq]


def query(rng: random.Random, kind: str, i: int, count: int) -> dict:
    """The i-th of ``count`` calls of ``kind`` in a batch."""
    q: dict = {"kind": kind}
    if kind in ("d", "invariants", "chain_from_e", "adjoint_chain"):
        q["chain"] = list(random_chain(rng, spread(i, count, CHAIN_MAX)))
    elif kind in ("bark_chain", "bark_one_sided"):
        q["chain"] = list(random_chain(rng, spread(i, count, BARK_CHAIN_MAX)))
    elif kind == "bark_fork":
        q["fork"] = random_fork(rng, FORK_KINDS[i % 4], spread(i, count, 10))
    elif kind == "group_order":
        if i % 2:
            q["fork"] = random_fork(rng, FORK_KINDS[i // 2 % 4], spread(i, count, 10))
        else:
            q["chain"] = list(random_chain(rng, spread(i, count, CHAIN_MAX)))
    elif kind in ("reconstruct_fiber", "pairs_from_fiber"):
        q["pairs"] = random_pairs(rng, 1 + i % 3)
    elif kind == "solve_two_fiber":
        q["t1"] = list(rng.choice(SMALL_TWIGS))
        q["t2"] = list(rng.choice(SMALL_TWIGS))
        q["shape"] = list(SOLVER_SHAPES[i % len(SOLVER_SHAPES)])
    elif kind == "evaluate_predicates":
        q["b"] = rng.choice((1, 2))
        q["twigs"] = [list(random_chain(rng, rng.randint(1, 8))) for _ in range(3)]
        q["shape"] = list(rng.choice(PREDICATE_SHAPES))
        q["group_order_mode"] = rng.choice(("actual", "h1"))
    else:
        verb = q["verb"] = CLI_VERBS[i % len(CLI_VERBS)]
        if verb == "group":
            q["fork"] = random_fork(rng, FORK_KINDS[i % 4], spread(i, count, 10))
        elif verb == "pairs":
            q["pairs"] = random_pairs(rng, 1 + i % 3)
        else:
            q["chain"] = list(random_chain(rng, spread(i, count, CHAIN_MAX)))
    return q


def query_batches(seed: int):
    """The endless stream of query batches for a seed."""
    rng = random.Random(f"queries-{seed}")
    while True:
        batch = [query(rng, kind, i, n) for kind, n in QUERY_KINDS for i in range(n)]
        rng.shuffle(batch)
        yield batch
