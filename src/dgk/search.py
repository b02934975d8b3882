"""The four exhaustive case searches.

Each search enumerates boundary candidates (branch weight, three oriented
twigs, an exceptional shape) inside explicit bounds read from a checked-in
bounds file, evaluates the predicate suite and returns a canonically sorted
list.  Outputs are compared against golden files for exact equality.

:data:`SEARCHES` is the one table of the searches: for each name its
``search_*`` function, bounds file, golden file and the bounds keys it reads.
:func:`parse_bounds` is the one place a bounds file is checked, with the
readers the command line shares: :func:`dgk.barks.specs_named` for shape
names and :func:`dgk.graphs.require_admissible` for ``t1``.  Every
``search_*`` checks the key set and the flags of its file, and
:func:`parse_bounds` runs on each box not yet joined, so a bad file fails
before any work, and the join reads the resulting frozen :class:`Bounds`.

Candidate enumeration is driven by two identities.  Noether's count pins
#E - epsilon - K.E of the exceptional shape to the twig key 4 + b + sum kd,
and the Zariski identity pins its Bk^2 + epsilon, so shapes are found by
hash lookup instead of a product sweep.  The sweep is joined on the first
of the two: a triple is generated only if 4 + b + sum kd is a first key of
the :class:`dgk.barks.SpecIndex` for some b, and the index computes the
rest of the keys of a first key only when a probe asks for it.  A bucket
keeps where each spec sits, not the spec: a hit decodes its positions
through :meth:`dgk.barks.SpecIndex.specs_at`.  :func:`_groups` hands the
scan each twig pair's thirds in blocks of one discriminant z, and the twig
sums D and S, the delta gates and (D - S)^2 depend on T3 only through z, so
:func:`_scan_triples` forms them once per block through
:func:`dgk.barks.fork_sums_along`; each third adds its own term to E and
Et.  The b values run ascending, and the first b >= e~ ends a third's b
loop.

Each search is a join and a decision pass, run by :func:`_decided`.  A
bounds file has two halves: the flags (:data:`FLAG_KEYS`: the
description, the predicate list, the group-order convention and the
epsilon = 2 exclusion), which only the decision pass reads, and the box,
every other key (the edges, ``b``, ``delta_gmin``, the catalog size or the
named shapes, ``t1``), which only the join reads.  :func:`_join` is keyed
on the box as written (:func:`_written`: the ``repr`` of the box entries,
which writes each value with its type), and only its miss runs
:func:`parse_bounds` and hands the :class:`Bounds` to the join: it builds
the box's pairs or shapes once, checks them (the catalog reach, or the
solver's shapes) and gives the hits, each with the record its verdict
reads.  The join is handed the flags too and reads none: one that read
a flag would answer every variant as the first.  So a call checks its key
set and its flags (:func:`_parse_flags`), and a box it has seen is
neither checked nor built again.  xy and final-bounds share
:func:`_rule_join`: both boxes are ``d_rules`` (xy's edges parse into
them) and differ only in their shapes.
:func:`_join` keeps the hits of the last :data:`JOIN_CACHE_SIZE` boxes of
the process; a refused box raises and is not kept.  Each output list of a
join is a :class:`dgk.predicates.Hits`, sorted by the results' sort keys
when it is built, which carries the verdict masks decided on its hits,
xy's reports and the rows final-bounds and knonpos print, so the one cache
keeps them too.  :func:`_decide` applies the flags on every call, so a flag
variant of a joined box runs no scan, repeats no test and prints no row
twice: :func:`dgk.predicates.decide` with the predicate list and the
group-order convention, the decision pass the two-fiber solver shares,
then the epsilon = 2 exclusion on its survivors.  Its indices come
ascending, so the results come sorted.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from collections.abc import Callable
from functools import lru_cache
from math import gcd
from pathlib import Path
from typing import NamedTuple

from . import chains
from .barks import (
    GROUP_ORDER_MODES, MAX_CATALOG_SIZE, ForkInvariants, ShapeSpec, SpecIndex, catalog_index,
    fork_sums_along, group_order_reader, shape_of, specs_named,
)
from .barks import eshape_catalog  # noqa: F401  (perfbench/tracing.py wraps it here)
from .chains import ChainRecord, chain_record
from .graphs import ChainParseError, Weights, is_int, parse_chain, require_admissible
from .predicates import PREDICATE_NAMES, BoundaryCandidate, Hit, Hits, decide
from .predicates import evaluate_predicates  # noqa: F401  (perfbench/tracing.py wraps it here)
from .ruling import TwoFiberSolution, check_two_fiber_shape, two_fiber_candidates
from .ruling import solve_two_fiber  # noqa: F401  (perfbench/tracing.py wraps it here)

# The scan's index probe and gates enforce these whatever a bounds file
# lists (zar_b only through b < e~), so a list without them would promise
# candidates the scan never returns.
INDEX_PREDICATES = ("noether", "zar_b", "zar_delta", "zar_bk2")

# Every scan search reads these keys; the optional keys may be left out.
_SCAN_KEYS = frozenset(
    {"description", "b", "predicates", "group_order_mode", "delta_gmin", "exclude_eps2_chains"}
)
OPTIONAL_KEYS = frozenset({"description", "delta_gmin", "exclude_eps2_chains"})
# The keys only the decision pass reads; every other key is the box's.
FLAG_KEYS = frozenset({"description", "predicates", "group_order_mode", "exclude_eps2_chains"})


class Search(NamedTuple):
    """One row of :data:`SEARCHES`.  :func:`run_search` looks ``function`` up
    in the module globals on each call, and :func:`_join` looks ``join`` up
    the same way, so a wrapper set on the module attribute is the one run;
    ``golden_form`` turns the function's result into what the golden file
    holds."""

    function: str
    join: str
    bounds_file: str
    golden_file: str
    keys: frozenset[str]
    golden_form: Callable


SEARCHES = {
    "final-bounds": Search(
        "search_final_bounds", "_rule_join", "final_bounds", "search_final_bounds.json",
        _SCAN_KEYS | {"d_rules", "catalog_max_size"},
        lambda out: out,
    ),
    "xy": Search(
        "search_xy", "_rule_join", "xy", "search_xy.json",
        _SCAN_KEYS | {"x_max", "y_max", "z_max", "eshapes"},
        lambda found: [cand.to_dict() for cand, _ in found],
    ),
    "knonpos": Search(
        "search_k_nonpositive", "_knonpos_join", "k_nonpositive", "search_k_nonpositive.json",
        _SCAN_KEYS | {"t1", "d2_max", "d3_max", "case2_k_max", "catalog_max_size"},
        lambda out: out,
    ),
    "fiber-pairs": Search(
        "search_fiber_pairs", "_fiber_pairs_join", "fiber_pairs", "search_fiber_pairs.json",
        frozenset({"description", "twig_d_max", "eshapes", "predicates", "group_order_mode"}),
        lambda solutions: [s.to_dict() for s in solutions],
    ),
}


@lru_cache(maxsize=None)
def _records_with_d(dd: int) -> tuple[ChainRecord, ...]:
    """The records of the oriented twigs of discriminant ``dd``, in the
    order of :func:`dgk.chains.oriented_chains_with_d`; none below 2.  The
    one twig table of the four searches, whose outputs ``Hits`` sorts."""
    if dd < 2:
        return ()
    return tuple(map(chain_record, chains.oriented_chains_with_d(dd)))


def load_bounds(name: str, path: str | None = None) -> dict:
    """A bounds file: the packaged ``name`` or the JSON file at ``path``."""
    if path is None:
        return json.loads((Path(__file__).parent / "bounds" / f"{name}.json").read_text("utf-8"))
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read bounds file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"bounds file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"bounds file {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past Python's limit on digits
        raise ValueError(f"bounds file {path} cannot be read: {exc}") from exc


class Rule(NamedTuple):
    """One ``d_rules`` entry: T1 of discriminant x, T2 of y_min..y_max and
    T3 of up to z_max."""

    x: int
    y_min: int
    y_max: int
    z_max: int


class Bounds(NamedTuple):
    """A checked bounds file: each value the file sets, with lists as tuples,
    ``b`` ascending, ``t1`` parsed, ``eshapes`` resolved into catalog specs
    and xy's edges into the ``d_rules`` they stand for; the default for each
    key it leaves out, where ``catalog_max_size`` None means no catalog."""

    predicates: tuple[str, ...]
    group_order_mode: str
    description: object = None
    b: tuple[int, ...] = ()
    delta_gmin: int | None = None
    exclude_eps2_chains: bool = False
    d_rules: tuple[Rule, ...] = ()
    t1: Weights = ()
    d2_max: int = 0
    d3_max: int = 0
    case2_k_max: int = 0
    catalog_max_size: int | None = None
    twig_d_max: int = 0
    eshapes: tuple[ShapeSpec, ...] = ()


_RULE_KEYS = Rule._fields


def _is_group_order_mode(value: object) -> bool:
    """Whether :func:`dgk.barks.group_order_reader` takes ``value``."""
    try:
        group_order_reader(value)
    except ValueError:
        return False
    return True


# For each bounds key, in the order the checks run: a test of its JSON
# value and what the value must be if the test fails.
_CHECKS = {
    **dict.fromkeys(("x_max", "y_max", "z_max", "d2_max", "d3_max"), (is_int, "an integer")),
    # below these, case 2 has no tail and fiber-pairs no twig
    "case2_k_max": (lambda v: is_int(v) and v >= 0, "a nonnegative integer"),
    "twig_d_max": (lambda v: is_int(v) and v >= 2, "an integer of at least 2"),
    "catalog_max_size": (
        lambda v: is_int(v) and v <= MAX_CATALOG_SIZE, f"an integer of at most {MAX_CATALOG_SIZE}"
    ),
    "b": (lambda v: isinstance(v, list) and all(map(is_int, v)), "a list of integers"),
    "d_rules": (
        lambda v: isinstance(v, list) and bool(v) and all(
            isinstance(rule, dict) and rule.keys() == set(_RULE_KEYS)
            and all(map(is_int, rule.values()))
            for rule in v
        ),
        f"a list of objects with integer {', '.join(_RULE_KEYS)}",
    ),
    "exclude_eps2_chains": (lambda v: type(v) is bool, "true or false"),
    "t1": (lambda v: isinstance(v, str), "a bracket chain string"),
    "predicates": (lambda v: isinstance(v, list), "a list"),
    "eshapes": (lambda v: isinstance(v, list), "a list"),
    "group_order_mode": (_is_group_order_mode, GROUP_ORDER_MODES),
    "delta_gmin": (lambda v: v is None or (is_int(v) and v >= 1), "null or a positive integer"),
}
_FLAG_CHECKS = [(key, check) for key, check in _CHECKS.items() if key in FLAG_KEYS]
_BOX_CHECKS = [(key, check) for key, check in _CHECKS.items() if key not in FLAG_KEYS]


def _checked_keys(name: str, cfg: dict | None) -> dict:
    """``cfg``, or the packaged bounds file of the search ``name`` when it
    is None, once it is an object that holds every key of the search but
    the optional ones, and no other."""
    search = SEARCHES[name]
    if cfg is None:
        cfg = load_bounds(search.bounds_file)
    if not isinstance(cfg, dict):
        raise ValueError(f"{name} bounds must be a JSON object")
    unknown = sorted(set(cfg) - search.keys)
    if unknown:
        raise ValueError(f"unknown {name} bounds keys: {', '.join(unknown)}")
    missing = sorted(search.keys - OPTIONAL_KEYS - set(cfg))
    if missing:
        raise ValueError(f"missing {name} bounds keys: {', '.join(missing)}")
    return cfg


def _parse_flags(name: str, cfg: dict) -> dict:
    """The checked :data:`FLAG_KEYS` entries of ``cfg``, lists as tuples,
    what :func:`_decide` reads."""
    for key, (test, what) in _FLAG_CHECKS:
        if key in cfg and not test(cfg[key]):
            raise ValueError(f"{key} must be {what}, got {cfg[key]!r}")
    bad = [str(p) for p in cfg["predicates"] if p not in PREDICATE_NAMES]
    if bad:
        raise ValueError(f"unknown predicates: {', '.join(bad)}")
    absent = [p for p in INDEX_PREDICATES if p not in cfg["predicates"]]
    if _SCAN_KEYS <= SEARCHES[name].keys and absent:
        raise ValueError(
            f"the indexed scan always enforces {', '.join(absent)};"
            " the predicate list must name them"
        )
    return {key: tuple(v) if isinstance(v, list) else v
            for key, v in cfg.items() if key in FLAG_KEYS}


def parse_bounds(name: str, cfg: dict | None = None) -> Bounds:
    """The bounds of the search ``name``: ``cfg``, or its packaged file when
    ``cfg`` is None.  Rejects unknown or missing keys, values of the wrong
    type, an empty ``b`` list, a repeated ``b`` value or one other than 1
    and 2, the only ones zar_b passes, a ``d_rules`` entry (or xy's edges)
    that covers no discriminant triple (x < 2 among them), a
    ``twig_d_max`` below 2, a ``case2_k_max`` below 0, an empty
    ``eshapes`` list, unknown or repeated ``eshapes`` entries, unknown
    predicates, and for the scan searches a predicate list without
    :data:`INDEX_PREDICATES`.  ``b`` is stored ascending.

    The key set is checked first, then the flags (:func:`_parse_flags`),
    then the box: every other key, which is what a join reads.  The one
    box parser of the package: :func:`_join` runs it on each box it has
    not kept.

    A knonpos box whose ``d2_max`` or ``d3_max`` is below 3 is kept, not
    refused: it has no case-1 T2, so it runs case 2 alone and prints an
    empty ``case1``."""
    cfg = _checked_keys(name, cfg)
    values = _parse_flags(name, cfg)
    for key, (test, what) in _BOX_CHECKS:
        if key in cfg and not test(cfg[key]):
            raise ValueError(f"{key} must be {what}, got {cfg[key]!r}")
    b_values = cfg.get("b", [])
    if len(set(b_values)) < len(b_values):
        raise ValueError(f"b must not repeat a value, got {b_values!r}")
    for key in ("b", "eshapes"):  # no b value, or no shape, covers nothing
        if cfg.get(key) == []:
            raise ValueError(f"{key} must list at least one value, got []")
    for b in b_values:
        if b not in (1, 2):  # zar_b
            raise ValueError(f"b value {b!r} can never pass zar_b, which needs b = 1 or 2")
    values.update((key, tuple(v) if isinstance(v, list) else v)
                  for key, v in cfg.items() if key not in FLAG_KEYS)
    if "b" in cfg:  # ascending, for the scan's break
        values["b"] = tuple(sorted(b_values))
    if "d_rules" in cfg:
        values["d_rules"] = tuple(Rule(**rule) for rule in cfg["d_rules"])
    if "x_max" in cfg:  # xy's edges stand for the rules (x, x, y_max, z_max)
        x_max, y_max, z_max = (values.pop(key) for key in ("x_max", "y_max", "z_max"))
        if not 2 <= x_max <= min(y_max, z_max):
            raise ValueError(
                "xy's edges must satisfy 2 <= x_max <= y_max and x_max <= z_max,"
                f" got x_max {x_max}, y_max {y_max}, z_max {z_max}"
            )
        values["d_rules"] = tuple(Rule(x, x, y_max, z_max) for x in range(2, x_max + 1))
    for rule in values.get("d_rules", ()):
        if rule.x < 2:  # no twig has a discriminant below 2
            raise ValueError(
                f"d_rules entry {rule._asdict()} covers no discriminant triple: x < 2"
            )
        if max(rule.x, rule.y_min) > min(rule.y_max, rule.z_max):
            raise ValueError(
                f"d_rules entry {rule._asdict()} covers no discriminant triple:"
                " max(x, y_min) > min(y_max, z_max)"
            )
    if "t1" in cfg:
        try:
            t1 = parse_chain(cfg["t1"])
        except ChainParseError as exc:  # named as parse_fork names a twig
            raise ValueError(f"t1 {cfg['t1']!r}: {exc}") from exc
        values["t1"] = require_admissible(t1, "t1")
    if "eshapes" in cfg:
        values["eshapes"] = tuple(_named_specs(cfg["eshapes"]))
    return Bounds(**values)


def _scan_triples(groups, box: Bounds, index: SpecIndex) -> Hits:
    """The hits of the (twig triple, b, shape) combinations in ``box``, as
    a :class:`Hits`, sorted: the join of a scan search, which reads no flag.

    ``groups`` holds one (T1, T2, blocks) per twig pair, as :func:`_groups`
    yields them (knonpos's case 2 is one explicit group), and each block
    (z, thirds) the pair's third twigs of discriminant z.  For each pair the
    key base 4 + kd1 + kd2 is formed once, and for each block
    :func:`dgk.barks.fork_sums_along` forms the integer twig sums D and S,
    so that delta = S/D, and the parts E0 and Et0 of E and Et that T3 does
    not enter; the gates on delta and (D - S)^2 are applied once per block.
    Each third then forms only E = E0 + a d'_3, Et = Et0 + a d(T3[:-1]),
    so that e = E/D and e~ = Et/D, and its key.  The b values run ascending
    (:func:`parse_bounds` stores them so) and the slack Et - bD falls as b
    rises, so the first b >= e~ ends the third's b loop.  Each (triple, b)
    with b < e~ looks up the bucket of its Noether key 4 + b + sum kd in
    ``index`` (one subscript, which builds the bucket the first time) and,
    when the bucket is not empty, makes one probe of it with
    Bk^2(E) + epsilon = e - 1 - P^2 as a reduced pair
    ((E - D)(Et - bD) - (D - S)^2) / (D (Et - bD)).  The thirds come joined
    on the key (:func:`_join_keys`), so most (triple, b) find a bucket.  A
    hit's positions become specs through :meth:`dgk.barks.SpecIndex.specs_at`
    and each spec its shape through :func:`dgk.barks.shape_of`, and
    the hit keeps the integer record (b, D, S, E, Et) formed here for the
    verdict of :func:`_decide`.
    """
    hits: list[Hit] = []
    b_values, delta_gmin = box.b, box.delta_gmin
    for r1, r2, blocks in groups:
        base = 4 + r1.kd + r2.kd
        for z, thirds in blocks:
            a, dd, s, e0, et0 = fork_sums_along(r1, r2, z)
            if s >= dd:  # delta >= 1
                continue
            if delta_gmin is not None and s * delta_gmin + dd <= dd * delta_gmin:
                continue
            gap_sq = (dd - s) ** 2
            for r3 in thirds:
                e = e0 + a * r3.d_prime
                et = et0 + a * r3.d_prime_rev
                key = base + r3.kd
                for b in b_values:
                    slack = et - b * dd
                    if slack <= 0:  # b >= e~, and so every later b
                        break
                    bucket = index[key + b]
                    if not bucket:
                        continue
                    num = (e - dd) * slack - gap_sq
                    den = dd * slack
                    g = gcd(num, den)
                    held = bucket.get((num // g, den // g))
                    if held is None:
                        continue
                    for spec in index.specs_at(held):
                        shape = shape_of(spec)
                        twigs = (r1.ws, r2.ws, r3.ws)
                        hits.append((ForkInvariants(b, dd, s, e, et), twigs, shape,
                                     BoundaryCandidate(b, twigs, shape)))
    return Hits(hits)


def _decide(hits: Hits, spec: Bounds) -> list[int]:
    """The decision pass of a search under ``spec``'s flags:
    :func:`dgk.predicates.decide` on the hits and their verdict masks gives
    the indices of the hits that pass, ascending, which is the sorted order
    of their results; the epsilon = 2 exclusion, when the flag is set, then
    drops each survivor whose shape is a chain of epsilon 2."""
    kept = decide(hits, spec.predicates, spec.group_order_mode)
    if spec.exclude_eps2_chains:
        kept = [i for i in kept if hits[i][2].is_fork or hits[i][2].epsilon != 2]
    return kept


def _join_keys(index: SpecIndex, b_values) -> frozenset[int]:
    """The twig keys 4 + sum kd that meet a first key of ``index`` for some b."""
    return frozenset(k - b for k in index.first_keys for b in b_values)


def _rule_pairs(rules: list[Rule] | tuple[Rule, ...]) -> list[tuple[ChainRecord, ChainRecord, list[int]]]:
    """The twig pairs (T1, T2, zs) of per-smallest-discriminant rules
    (:class:`Rule`), T1-major, with zs the discriminants of their third
    twigs.

    A triple with discriminants (x, y, z) comes from a rule only through
    (x, y, z), so a discriminant triple an earlier rule covered is skipped
    whole; T1 <= T2 where x = y, and :func:`_groups` keeps T2 <= T3 where
    y = z.  A pair without third discriminants is left out.
    """
    covered: set[tuple[int, int, int]] = set()
    pairs = []
    for x, y_min, y_max, z_max in rules:
        yz = []
        for y in range(max(x, y_min), y_max + 1):
            zs = [z for z in range(y, z_max + 1) if (x, y, z) not in covered]
            covered.update((x, y, z) for z in zs)
            if zs:
                yz.append((y, zs))
        if not yz:
            continue
        for r1 in _records_with_d(x):
            for y, zs in yz:
                pairs += [(r1, r2, zs) for r2 in _records_with_d(y) if y != x or r1.ws <= r2.ws]
    return pairs


def _groups(pairs, keys: frozenset[int] | None = None):
    """One group (T1, T2, blocks) per pair (T1, T2, zs), in order: for each
    z of zs, in order, the block (z, thirds) of the third twigs of
    discriminant z, in order, with T2 <= T3 where z = d(T2).  With ``keys``,
    only the thirds whose triple's key 4 + sum kd is one of them, each
    (z, key base) filtered once; an empty block is left out, and a pair
    left with none is not yielded.
    """
    chosen: dict[tuple[int, int], tuple[int, tuple[ChainRecord, ...]]] = {}
    for r1, r2, zs in pairs:
        base = 4 + r1.kd + r2.kd
        blocks = []
        for z in zs:
            block = chosen.get((z, base))
            if block is None:
                block = chosen[z, base] = (z, tuple(
                    r for r in _records_with_d(z) if keys is None or base + r.kd in keys
                ))
            if z == r2.d:
                block = (z, tuple(r3 for r3 in block[1] if r2.ws <= r3.ws))
            if block[1]:
                blocks.append(block)
        if blocks:
            yield r1, r2, blocks


def _pair_keys(pairs):
    """The largest key 4 + sum kd of each pair's unjoined group.  The
    largest kd = sum (w - 3) at discriminant z is z - 3, that of [z], and
    [z] comes after every other twig of discriminant z, so it passes
    T2 <= T3."""
    return (1 + r1.kd + r2.kd + max(zs) for r1, r2, zs in pairs)


def _check_catalog_reach(keys, box: Bounds, index: SpecIndex) -> None:
    """Reject a box whose probes could ask for shapes beyond its catalog
    ``index``, of ``box.catalog_max_size`` components.

    A probe for (triple, b) matches shapes with #E - epsilon - K.E = key + b,
    so the largest #E any probe can ask for is the largest of the box's
    ``keys``, plus the largest b, plus ``index.reach``, the largest
    epsilon + K.E of the catalog.  Gates and the join are ignored: the bound
    is safe.
    """
    key_max = max(keys, default=None)
    if key_max is None:
        return
    size = max(box.b) + key_max + index.reach
    if size > box.catalog_max_size:
        raise ValueError(
            f"the box asks for exceptional shapes of up to {size}"
            f" components but catalog_max_size is {box.catalog_max_size}"
        )


def _rule_join(box: Bounds) -> tuple[Hits]:
    """The join of xy and final-bounds: the pairs of ``box.d_rules`` probed
    against the named shapes ``eshapes`` (xy, ``catalog_max_size`` None), or
    against the catalog once :func:`_check_catalog_reach` passes on them."""
    pairs = _rule_pairs(box.d_rules)
    if box.catalog_max_size is None:
        index = SpecIndex.of_specs(box.eshapes)
    else:
        index = catalog_index(box.catalog_max_size)
        _check_catalog_reach(_pair_keys(pairs), box, index)
    return (_scan_triples(_groups(pairs, _join_keys(index, box.b)), box, index),)


def search_xy(bounds: dict | None = None):
    """Candidates passing the general-type predicate suite in the x,y,z box,
    each with its predicate report, kept read-only on the join's hits."""
    spec, ((hits, kept),) = _decided("xy", bounds)
    return [(hits[i][3], hits.report(i, spec.group_order_mode)) for i in kept]


def _named_specs(entries: list) -> list[ShapeSpec]:
    """Resolve [name, epsilon] pairs through :func:`dgk.barks.specs_named`;
    a shape may appear once, whatever its spelling."""
    specs = []
    for entry in entries:
        # [str, int] only: true and 1.0 hash as 1 and would find epsilon 1
        name, eps = entry if isinstance(entry, list) and len(entry) == 2 else (None, None)
        spec = specs_named(name).get(eps) if isinstance(name, str) and is_int(eps) else None
        if spec is None:
            raise ValueError(
                f"eshapes entry {entry!r} is not a [key, epsilon] pair of a"
                " catalog shape of at most 12 components"
            )
        if spec in specs:
            raise ValueError(f"eshapes entry {entry!r} is repeated")
        specs.append(spec)
    return specs


def search_final_bounds(bounds: dict | None = None) -> dict:
    """The terminal bounding search: which exceptional shapes survive, and
    the survivors' rows, kept on the join's hits (:meth:`Hits.rows`)."""
    _, ((hits, kept),) = _decided("final-bounds", bounds)
    candidates = hits.rows(kept)
    return {"eshapes": sorted({row["eshape"] for row in candidates}), "candidates": candidates}


def _case1_pairs(spec: Bounds) -> list[tuple[ChainRecord, ChainRecord, list[int]]]:
    """knonpos case 1 as pairs: T1 pinned, each T2 of d2 in 3..d2_max, with
    zs = d2..d3_max.  Triples come as (T1, T2, T3): the twig sums and
    predicates are symmetric in the twigs, and a candidate sorts its twigs
    itself for its key and its output."""
    rec1 = chain_record(spec.t1)
    return [
        (rec1, r2, list(range(d2, spec.d3_max + 1)))
        for d2 in range(3, min(spec.d2_max, spec.d3_max) + 1)
        for r2 in _records_with_d(d2)
    ]


def _case2_triples(spec: Bounds) -> list[tuple[ChainRecord, ChainRecord, list]]:
    """knonpos case 2: T1 twice, with the tail families head + (2)^k + (3, 2),
    as the one group (T1, T1, blocks), the tails in one block per
    discriminant."""
    rec1 = chain_record(spec.t1)
    blocks: dict[int, list[ChainRecord]] = {}
    for k in range(0, spec.case2_k_max + 1):
        for head in ((), (3,), (4,), (2, 3)):
            tail = chain_record(head + (2,) * k + (3, 2))
            blocks.setdefault(tail.d, []).append(tail)
    return [(rec1, rec1, list(blocks.items()))]


def search_k_nonpositive(bounds: dict | None = None) -> dict:
    """The two bounded searches of the nonpositive-Kodaira branch.  Case 1
    leaves out T2 = T1 with T3 ending in (3, 2), the triples of case 2.
    The survivors' rows are kept on the join's hits (:meth:`Hits.rows`)."""
    _, kept = _decided("knonpos", bounds)
    return {case: hits.rows(indices)
            for case, (hits, indices) in zip(("case1", "case2"), kept, strict=True)}


def _knonpos_join(box: Bounds) -> tuple[Hits, Hits]:
    index = catalog_index(box.catalog_max_size)
    pairs1, groups2 = _case1_pairs(box), _case2_triples(box)
    keys = [*_pair_keys(pairs1), *(4 + r1.kd + r2.kd + r3.kd
                                   for r1, r2, blocks in groups2 for _, thirds in blocks
                                   for r3 in thirds)]
    _check_catalog_reach(keys, box, index)
    groups1 = (
        (r1, r2, [(z, [r3 for r3 in thirds if r3.ws[-2:] != (3, 2)]) for z, thirds in blocks]
         if r2.ws == box.t1 else blocks)
        for r1, r2, blocks in _groups(pairs1, _join_keys(index, box.b))
    )
    return _scan_triples(groups1, box, index), _scan_triples(groups2, box, index)


def search_fiber_pairs(bounds: dict | None = None) -> list[TwoFiberSolution]:
    """Sweep both short twigs over the small-discriminant list and solve."""
    _, ((hits, kept),) = _decided("fiber-pairs", bounds)
    return [hits[i][3] for i in kept]


def _fiber_pairs_join(box: Bounds) -> tuple[Hits]:
    """The :func:`dgk.ruling.two_fiber_candidates` of every (T1, T2) of
    d <= twig_d_max on each shape, once every shape passes
    :func:`dgk.ruling.check_two_fiber_shape`: one solver call per (shape,
    T1), over the box's rows (d, :func:`_records_with_d`) of T2.  The sort
    key holds T1 and T2, so the table's order does not reach the output."""
    shapes = list(map(shape_of, box.eshapes))
    for es in shapes:
        check_two_fiber_shape(es)
    rows = [(dd, _records_with_d(dd)) for dd in range(2, box.twig_d_max + 1)]
    return (Hits(
        hit for es in shapes for _, records in rows for r1 in records
        for hit in two_fiber_candidates(r1.ws, rows, es)
    ),)


# ---------------------------------------------------------------------------
# the join cache

# The boxes :func:`_join` keeps.  A run of flag variants over a few boxes
# hits the cache; memory stays bounded whatever boxes a process runs.
JOIN_CACHE_SIZE = 32


class _Written(str):
    """A :func:`_written` key: its text, which the cache hashes and
    compares, and the ``cfg`` it was written from, which a miss reads."""

    cfg: dict


def _written(cfg: dict) -> _Written:
    """The key of :func:`_join`: the ``repr`` of the box entries of ``cfg``
    (every key but :data:`FLAG_KEYS`) as (key, value) pairs, by key.
    ``repr`` writes each value with its type, so true, 1 and 1.0 are three
    keys, and a list, a tuple and a set are three more.  A ``delta_gmin``
    of None, its default, is left out, and the one ``b`` that passes its
    checks out of order, [2, 1], is written [1, 2], the box it is; any
    other ``b`` keeps its order for its refusal.  Two cfgs with the same
    key are the same box, or both are refused: a refused box is never
    kept, so each call that refuses parses its own values.  That holds
    for JSON values, and for subclasses that keep their base's ``repr``
    as long as the checks read them as their base (``is_int`` does)."""
    box = {key: v for key, v in cfg.items() if key not in FLAG_KEYS}
    if "delta_gmin" in box and box["delta_gmin"] is None:
        del box["delta_gmin"]
    if box.get("b") == [2, 1] and all(map(is_int, box["b"])):
        box["b"] = [1, 2]
    written = _Written(repr(sorted(box.items())))
    written.cfg = cfg
    return written


@lru_cache(maxsize=JOIN_CACHE_SIZE)
def _join(name: str, written: _Written) -> tuple[Hits, ...]:
    """The hits of the search ``name`` on the box ``written``
    (:func:`_written`), one tuple per output list (knonpos has two, case 1
    and case 2): :func:`parse_bounds` on the key's ``cfg``, and the join
    its :class:`Search` row names on the resulting :class:`Bounds`.  The
    join reads only the box, so each box as written is checked, built and
    joined once per process, and every flag variant on it takes one
    :func:`_decide` pass.  The key holds the entries as written, so a
    respelled ``eshapes`` name, the same shapes in another order or a
    ``d_rules`` entry with its keys in another order is another key and
    joins once more.  The join checks the catalog reach or the solver's
    shapes on the pairs or shapes it builds; a refused box raises, so it
    is never kept and raises again on the next call."""
    return globals()[SEARCHES[name].join](parse_bounds(name, written.cfg))


def _decided(name: str, bounds: dict | None) -> tuple[Bounds, list[tuple[Hits, list[int]]]]:
    """The checked flags of the bounds of the search ``name``, as a
    :class:`Bounds` whose box entries keep their defaults, and for each of
    its output lists its box's :class:`Hits` with the indices of the hits
    that pass the flags, ascending, so their results come sorted.  A call
    checks the key set and the flags, and its box only when :func:`_join`
    has not kept it."""
    cfg = _checked_keys(name, bounds)
    flags = Bounds(**_parse_flags(name, cfg))
    return flags, [(hits, _decide(hits, flags)) for hits in _join(name, _written(cfg))]


# ---------------------------------------------------------------------------
# golden files


def golden_dir() -> Path:
    """Golden-file location: DGK_GOLDEN_DIR, else the copy installed with
    the package."""
    env = os.environ.get("DGK_GOLDEN_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "golden"


def run_search(name: str, bounds_path: str | None = None):
    """The output of the search ``name``, in the form of its golden file, on
    its packaged bounds or on the bounds file at ``bounds_path``."""
    if name not in SEARCHES:
        raise ValueError(f"unknown search {name!r}")
    search = SEARCHES[name]
    found = globals()[search.function](load_bounds(search.bounds_file, bounds_path))
    return search.golden_form(found)


GOLDEN_FILES = {name: search.golden_file for name, search in SEARCHES.items()}
GOLDEN_FILES["final-bounds-relaxed"] = "search_final_bounds_relaxed.json"


def _entries(form) -> Counter:
    """The entries of a golden form as canonical JSON: each item of a list
    form, and each item of a dict form's lists as {key: item}."""
    lists = form.items() if isinstance(form, dict) else [(None, form)]
    return Counter(
        json.dumps(item if key is None else {key: item}, sort_keys=True)
        for key, items in lists for item in (items if isinstance(items, list) else [items])
    )


def verify_suite() -> dict:
    """Run the four searches and compare against the golden files in
    :func:`golden_dir`; a missing golden file is refused before any search.
    A mismatch lists the :func:`_entries` ``added`` to the golden and those
    ``removed``; a mismatch in order alone has neither."""
    gdir = golden_dir()
    paths = {name: gdir / GOLDEN_FILES[name] for name in SEARCHES}
    for path in paths.values():
        if not path.exists():
            raise ValueError(f"golden file {path} is missing")
    results = {}
    for name, path in paths.items():
        got = run_search(name)
        try:
            want = json.loads(path.read_text("utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"golden file {path} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"golden file {path} is not valid JSON: {exc}") from exc
        except ValueError as exc:  # an integer past Python's limit on digits
            raise ValueError(f"golden file {path} cannot be read: {exc}") from exc
        results[name] = {"status": "ok" if got == want else "mismatch", "path": str(path)}
        if got != want:
            have, had = _entries(got), _entries(want)
            results[name]["added"] = [json.loads(e) for e in (have - had).elements()]
            results[name]["removed"] = [json.loads(e) for e in (had - have).elements()]
    return results
