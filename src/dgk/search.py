"""The four exhaustive case searches.

Each search enumerates boundary candidates (branch weight, three oriented
twigs, an exceptional shape) inside explicit bounds read from a checked-in
bounds file, evaluates the predicate suite and returns a canonically sorted
list.  Outputs are compared against golden files for exact equality.

:data:`SEARCHES` is the one table of the searches: for each name its
``search_*`` function, bounds file, golden file and the bounds keys it reads.
:func:`parse_bounds` is the one place a bounds file is checked.  Every
``search_*`` starts with it, so a bad file fails before any work, and the
scan reads the resulting frozen :class:`Bounds`.

Candidate enumeration is driven by two identities.  Noether's count pins
#E - epsilon - K.E of the exceptional shape to the twig key 4 + b + sum kd,
and the Zariski identity pins its Bk^2 + epsilon, so shapes are found by
hash lookup instead of a product sweep.  The sweep is joined on the first
of the two: a triple is generated only if 4 + b + sum kd is a first key of
the :class:`dgk.barks.SpecIndex` for some b, and the index computes the
rest of the keys of a first key only when a probe asks for it.

Each search is a join and a decision pass.  The join reads only the box
(:func:`_box`: the edges, ``b``, ``delta_gmin``, the catalog size or the
named shapes, ``t1``) and gives the hits, each with the record its verdict
reads; :func:`_join` keeps the hits of the last :data:`JOIN_CACHE_SIZE`
boxes of the process.  :func:`_decide` applies the flags (the predicate
list, the group-order convention and the epsilon = 2 exclusion) to the hits
on every call, so a flag variant of a joined box runs no scan.
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
    MAX_CATALOG_SIZE, ExceptionalShape, ForkInvariants, ShapeSpec, SpecIndex, catalog_index,
    fork_sums_along, shape_of, specs_by_name,
)
from .barks import eshape_catalog  # noqa: F401  (perfbench/tracing.py wraps it here)
from .chains import ChainRecord, chain_record
from .graphs import Weights, format_chain, is_admissible_chain, is_int, parse_chain
from .predicates import PREDICATE_NAMES, BoundaryCandidate, evaluate_predicates, passes
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

# A hit of a join: the fork record, the twigs and the shape a verdict reads,
# and the result kept if it passes (a BoundaryCandidate, or for fiber-pairs
# a TwoFiberSolution).
Hit = tuple[ForkInvariants, tuple[Weights, Weights, Weights], ExceptionalShape, object]


class Search(NamedTuple):
    """One row of :data:`SEARCHES`.  :func:`run_search` looks ``function`` up
    in the module globals on each call, so a wrapper set on the module
    attribute is the one run; ``golden_form`` turns its result into what the
    golden file holds."""

    function: str
    bounds_file: str
    golden_file: str
    keys: frozenset[str]
    golden_form: Callable


SEARCHES = {
    "final-bounds": Search(
        "search_final_bounds", "final_bounds", "search_final_bounds.json",
        _SCAN_KEYS | {"d_rules", "catalog_max_size"},
        lambda out: out,
    ),
    "xy": Search(
        "search_xy", "xy", "search_xy.json",
        _SCAN_KEYS | {"x_max", "y_max", "z_max", "eshapes"},
        lambda found: [cand.to_dict() for cand, _ in found],
    ),
    "knonpos": Search(
        "search_k_nonpositive", "k_nonpositive", "search_k_nonpositive.json",
        _SCAN_KEYS | {"t1", "d2_max", "d3_max", "case2_k_max", "catalog_max_size"},
        lambda out: out,
    ),
    "fiber-pairs": Search(
        "search_fiber_pairs", "fiber_pairs", "search_fiber_pairs.json",
        frozenset({"description", "twig_d_max", "eshapes", "predicates", "group_order_mode"}),
        lambda solutions: [s.to_dict() for s in solutions],
    ),
}


def _record_of(ws: Weights) -> ChainRecord:
    if not ws or not is_admissible_chain(ws):
        raise ValueError(f"twig {format_chain(ws)} is not an admissible chain")
    return chain_record(ws)


@lru_cache(maxsize=None)
def _records_with_d(dd: int) -> tuple[ChainRecord, ...]:
    """The records of the oriented twigs of discriminant ``dd``, sorted by
    weights; none below 2.  The one twig table of the four searches."""
    if dd < 2:
        return ()
    return tuple(map(chain_record, sorted(chains.oriented_chains_with_d(dd))))


def load_bounds(name: str, path: str | None = None) -> dict:
    """A bounds file: the packaged ``name`` or the JSON file at ``path``."""
    if path is None:
        return json.loads((Path(__file__).parent / "bounds" / f"{name}.json").read_text())
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read bounds file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"bounds file {path} is not valid JSON: {exc}") from exc


class Rule(NamedTuple):
    """One ``d_rules`` entry: T1 of discriminant x, T2 of y_min..y_max and
    T3 of up to z_max."""

    x: int
    y_min: int
    y_max: int
    z_max: int


class Bounds(NamedTuple):
    """A checked bounds file: each value the file sets, with lists as tuples,
    ``t1`` parsed and ``eshapes`` resolved into catalog specs; the default
    for each key it leaves out."""

    predicates: tuple[str, ...]
    group_order_mode: str
    description: object = None
    b: tuple[int, ...] = ()
    delta_gmin: int | None = None
    exclude_eps2_chains: bool = False
    x_max: int = 0
    y_max: int = 0
    z_max: int = 0
    d_rules: tuple[Rule, ...] = ()
    t1: Weights = ()
    d2_max: int = 0
    d3_max: int = 0
    case2_k_max: int = 0
    catalog_max_size: int = 0
    twig_d_max: int = 0
    eshapes: tuple[ShapeSpec, ...] = ()


_RULE_KEYS = Rule._fields
# For each bounds key, in the order the checks run: a test of its JSON
# value and what the value must be if the test fails.
_CHECKS = {
    **dict.fromkeys(
        ("x_max", "y_max", "z_max", "d2_max", "d3_max", "case2_k_max", "twig_d_max"),
        (is_int, "an integer"),
    ),
    "catalog_max_size": (
        lambda v: is_int(v) and v <= MAX_CATALOG_SIZE, f"an integer of at most {MAX_CATALOG_SIZE}"
    ),
    "b": (lambda v: isinstance(v, list) and all(map(is_int, v)), "a list of integers"),
    "d_rules": (
        lambda v: isinstance(v, list) and bool(v) and all(
            isinstance(rule, dict) and all(is_int(rule.get(k)) for k in _RULE_KEYS)
            for rule in v
        ),
        f"a list of objects with integer {', '.join(_RULE_KEYS)}",
    ),
    "exclude_eps2_chains": (lambda v: type(v) is bool, "true or false"),
    "t1": (lambda v: isinstance(v, str), "a bracket chain string"),
    "predicates": (lambda v: isinstance(v, list), "a list"),
    "eshapes": (lambda v: isinstance(v, list), "a list"),
    "group_order_mode": (lambda v: v in ("actual", "h1"), "'actual' or 'h1'"),
    "delta_gmin": (lambda v: v is None or (is_int(v) and v >= 1), "null or a positive integer"),
}


def parse_bounds(name: str, cfg: dict | None = None) -> Bounds:
    """The bounds of the search ``name``: ``cfg``, or its packaged file when
    ``cfg`` is None.  Rejects unknown or missing keys, values of the wrong
    type, unknown predicates or ``eshapes`` entries, and for the scan
    searches a predicate list without :data:`INDEX_PREDICATES`."""
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
    for key, (test, what) in _CHECKS.items():
        if key in cfg and not test(cfg[key]):
            raise ValueError(f"{key} must be {what}, got {cfg[key]!r}")
    bad = [str(p) for p in cfg["predicates"] if p not in PREDICATE_NAMES]
    if bad:
        raise ValueError(f"unknown predicates: {', '.join(bad)}")
    absent = [p for p in INDEX_PREDICATES if p not in cfg["predicates"]]
    if _SCAN_KEYS <= search.keys and absent:
        raise ValueError(
            f"the indexed scan always enforces {', '.join(absent)};"
            " the predicate list must name them"
        )
    values = {key: tuple(v) if isinstance(v, list) else v for key, v in cfg.items()}
    if "d_rules" in cfg:
        values["d_rules"] = tuple(Rule(*map(rule.get, _RULE_KEYS)) for rule in cfg["d_rules"])
    if "t1" in cfg:
        values["t1"] = _record_of(parse_chain(cfg["t1"])).ws
    if "eshapes" in cfg:
        values["eshapes"] = tuple(_named_specs(cfg["eshapes"]))
    return Bounds(**values)


def _scan_triples(groups, box: Bounds, index: SpecIndex) -> tuple[Hit, ...]:
    """The hits of the (twig triple, b, shape) combinations in ``box``, in
    sweep order: the join of a scan search, which reads no flag.

    ``groups`` holds one (T1, T2, thirds) per twig pair, as :func:`_groups`
    yields them (knonpos's case 2 is one explicit group).  For each pair the
    key base 4 + kd1 + kd2 is formed once, and
    :func:`dgk.barks.fork_sums_along` steps the integer twig sums
    (D, S, E, Et) along its third twigs, so that delta = S/D, e = E/D and
    e~ = Et/D.  Each (triple, b) passing the gates looks up the bucket of its
    Noether key 4 + b + sum kd in ``index`` (one subscript, which builds the
    bucket the first time) and, when the bucket is not empty, makes one
    probe of it with Bk^2(E) + epsilon = e - 1 - P^2 as a reduced pair
    ((E - D)(Et - bD) - (D - S)^2) / (D (Et - bD)).  The thirds come joined
    on the key (:func:`_join_keys`), so most (triple, b) find a bucket.  A
    hit's spec becomes its shape through :func:`dgk.barks.shape_of`, and
    the hit keeps the integer record (b, D, S, E, Et) formed here for the
    verdict of :func:`_decide`.
    """
    hits: list[Hit] = []
    b_values, delta_gmin = box.b, box.delta_gmin
    for r1, r2, thirds in groups:
        base = 4 + r1.kd + r2.kd
        for r3, dd, s, e, et in fork_sums_along(r1, r2, thirds):
            if s >= dd:  # delta >= 1
                continue
            if delta_gmin is not None and s * delta_gmin + dd <= dd * delta_gmin:
                continue
            e_minus_1 = e - dd
            gap_sq = (dd - s) ** 2
            key = base + r3.kd
            for b in b_values:
                slack = et - b * dd
                if slack <= 0:  # b >= e~
                    continue
                bucket = index[key + b]
                if not bucket:
                    continue
                num = e_minus_1 * slack - gap_sq
                den = dd * slack
                g = gcd(num, den)
                for spec in bucket.get((num // g, den // g), ()):
                    shape = shape_of(spec)
                    twigs = (r1.ws, r2.ws, r3.ws)
                    hits.append((ForkInvariants(b, dd, s, e, et), twigs, shape,
                                 BoundaryCandidate(b, twigs, shape)))
    return tuple(hits)


def _decide(hits: tuple[Hit, ...], spec: Bounds) -> list:
    """The decision pass of a search: the result of each hit that passes
    ``spec``'s flags, canonically sorted.  The epsilon = 2 exclusion drops
    a chain shape of epsilon 2, then :func:`dgk.predicates.passes` decides
    on the record the join formed."""
    names, mode, eps2 = spec.predicates, spec.group_order_mode, spec.exclude_eps2_chains
    found = [
        result for record, twigs, shape, result in hits
        if not (eps2 and shape.epsilon == 2 and not shape.is_fork)
        and passes(record, twigs, shape, names, group_order_mode=mode)
    ]
    found.sort(key=lambda result: result.sort_key())
    return found


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
    """One group (T1, T2, thirds) per pair (T1, T2, zs), in order: the third
    twigs of discriminant in zs, in order, with T2 <= T3 where z = d(T2).
    With ``keys``, only those whose triple's key 4 + sum kd is one of them,
    each (z, key base) filtered once; a pair left with none is not yielded.
    """
    chosen: dict[tuple[int, int], tuple[ChainRecord, ...]] = {}
    for r1, r2, zs in pairs:
        base = 4 + r1.kd + r2.kd
        thirds: list[ChainRecord] = []
        for z in zs:
            rs = chosen.get((z, base))
            if rs is None:
                rs = chosen[z, base] = tuple(
                    r for r in _records_with_d(z) if keys is None or base + r.kd in keys
                )
            thirds += [r3 for r3 in rs if r2.ws <= r3.ws] if z == r2.d else rs
        if thirds:
            yield r1, r2, thirds


def _pair_keys(pairs):
    """The largest key 4 + sum kd of each pair's unjoined group.  The
    largest kd = sum (w - 3) at discriminant z is z - 3, that of [z], and
    [z] comes after every other twig of discriminant z, so it passes
    T2 <= T3."""
    return (1 + r1.kd + r2.kd + max(zs) for r1, r2, zs in pairs)


def _check_catalog_reach(keys, b_values, reach: int, max_size: int) -> None:
    """Reject a box whose probes could ask for shapes beyond the catalog.

    A probe for (triple, b) matches shapes with #E - epsilon - K.E = key + b,
    so the largest #E any probe can ask for is the largest of the box's
    ``keys``, plus the largest b, plus ``reach``, the largest epsilon + K.E
    of the catalog.  Gates and the join are ignored: the bound is safe.
    """
    key_max = max(keys, default=None)
    if key_max is None or not b_values:
        return
    key = max(b_values) + key_max
    if key + reach > max_size:
        raise ValueError(
            f"the box asks for exceptional shapes of up to {key + reach}"
            f" components but catalog_max_size is {max_size}"
        )


def _xy_rules(box: Bounds) -> list[Rule]:
    return [Rule(x, x, box.y_max, box.z_max) for x in range(2, box.x_max + 1)]


def search_xy(bounds: dict | None = None):
    """Candidates passing the general-type predicate suite in the x,y,z box,
    each with its predicate report."""
    spec = parse_bounds("xy", bounds)
    (hits,) = _join("xy", _box(spec))
    return [
        (c, evaluate_predicates(c, group_order_mode=spec.group_order_mode))
        for c in _decide(hits, spec)
    ]


def _xy_join(box: Bounds) -> tuple[tuple[Hit, ...]]:
    index = SpecIndex.of_specs(box.eshapes)
    return (_scan_triples(_groups(_rule_pairs(_xy_rules(box)), _join_keys(index, box.b)),
                          box, index),)


def _named_specs(entries: list) -> list[ShapeSpec]:
    """Resolve [key, epsilon] pairs against the catalog of size 12."""
    table = specs_by_name()
    specs = []
    for entry in entries:
        try:
            spec = table.get(tuple(entry))
        except TypeError:  # not a sequence, or unhashable parts
            spec = None
        if spec is None:
            raise ValueError(
                f"eshapes entry {entry!r} is not a [key, epsilon] pair of a"
                " catalog shape of at most 12 components"
            )
        specs.append(spec)
    return specs


def search_final_bounds(bounds: dict | None = None) -> dict:
    """The terminal bounding search: which exceptional shapes survive."""
    spec = parse_bounds("final-bounds", bounds)
    index = catalog_index(spec.catalog_max_size)
    _check_catalog_reach(_pair_keys(_rule_pairs(spec.d_rules)), spec.b, index.reach,
                         spec.catalog_max_size)
    (hits,) = _join("final-bounds", _box(spec))
    found = _decide(hits, spec)
    eshapes = sorted({cand.eshape.key() for cand in found})
    return {"eshapes": eshapes, "candidates": [cand.to_dict() for cand in found]}


def _final_bounds_join(box: Bounds) -> tuple[tuple[Hit, ...]]:
    index = catalog_index(box.catalog_max_size)
    return (_scan_triples(_groups(_rule_pairs(box.d_rules), _join_keys(index, box.b)),
                          box, index),)


def _case1_pairs(spec: Bounds) -> list[tuple[ChainRecord, ChainRecord, list[int]]]:
    """knonpos case 1 as pairs: T1 pinned, each T2 of d2 in 3..d2_max, with
    zs = d2..d3_max.  Triples come as (T1, T2, T3): the twig sums and
    predicates are symmetric in the twigs, and a candidate sorts its twigs
    itself for its key and its output."""
    rec1 = _record_of(spec.t1)
    return [
        (rec1, r2, list(range(d2, spec.d3_max + 1)))
        for d2 in range(3, min(spec.d2_max, spec.d3_max) + 1)
        for r2 in _records_with_d(d2)
    ]


def _case2_triples(spec: Bounds) -> list[tuple[ChainRecord, ChainRecord, list[ChainRecord]]]:
    """knonpos case 2: T1 twice, with the tail families head + (2)^k + (3, 2),
    as the one group (T1, T1, tails)."""
    rec1 = _record_of(spec.t1)
    tails = [
        chain_record(head + (2,) * k + (3, 2))
        for k in range(0, spec.case2_k_max + 1)
        for head in ((), (3,), (4,), (2, 3))
    ]
    return [(rec1, rec1, tails)]


def search_k_nonpositive(bounds: dict | None = None) -> dict:
    """The two bounded searches of the nonpositive-Kodaira branch.  Case 1
    leaves out T2 = T1 with T3 ending in (3, 2), the triples of case 2."""
    spec = parse_bounds("knonpos", bounds)
    index = catalog_index(spec.catalog_max_size)
    pairs1 = _case1_pairs(spec)
    groups2 = _case2_triples(spec)
    keys = [*_pair_keys(pairs1),
            *(4 + r1.kd + r2.kd + r3.kd for r1, r2, thirds in groups2 for r3 in thirds)]
    _check_catalog_reach(keys, spec.b, index.reach, spec.catalog_max_size)
    case1, case2 = _join("knonpos", _box(spec))
    return {
        "case1": [cand.to_dict() for cand in _decide(case1, spec)],
        "case2": [cand.to_dict() for cand in _decide(case2, spec)],
    }


def _knonpos_join(box: Bounds) -> tuple[tuple[Hit, ...], tuple[Hit, ...]]:
    index = catalog_index(box.catalog_max_size)
    groups1 = (
        (r1, r2, [r3 for r3 in thirds if r3.ws[-2:] != (3, 2)] if r2.ws == box.t1 else thirds)
        for r1, r2, thirds in _groups(_case1_pairs(box), _join_keys(index, box.b))
    )
    return (_scan_triples(groups1, box, index),
            _scan_triples(_case2_triples(box), box, index))


def search_fiber_pairs(bounds: dict | None = None) -> list[TwoFiberSolution]:
    """Sweep both short twigs over the small-discriminant list and solve."""
    spec = parse_bounds("fiber-pairs", bounds)
    for es in map(shape_of, spec.eshapes):
        check_two_fiber_shape(es)
    (hits,) = _join("fiber-pairs", _box(spec))
    return _decide(hits, spec)


def _fiber_pairs_join(box: Bounds) -> tuple[tuple[Hit, ...]]:
    """The :func:`dgk.ruling.two_fiber_candidates` of every (T1, T2) of
    d <= twig_d_max on each shape.  The sort key holds T1 and T2, so the
    order of the sweep does not reach the output."""
    sweep = [r.ws for dd in range(2, box.twig_d_max + 1) for r in _records_with_d(dd)]
    return (tuple(
        hit for es in map(shape_of, box.eshapes) for t1 in sweep for t2 in sweep
        for hit in two_fiber_candidates(t1, t2, es)
    ),)


# ---------------------------------------------------------------------------
# the join cache

# The boxes :func:`_join` keeps.  A run of flag variants over a few boxes
# hits the cache; memory stays bounded whatever boxes a process runs.
JOIN_CACHE_SIZE = 32
_JOINS = {
    "final-bounds": _final_bounds_join,
    "xy": _xy_join,
    "knonpos": _knonpos_join,
    "fiber-pairs": _fiber_pairs_join,
}


def _box(spec: Bounds) -> Bounds:
    """``spec`` without its flags, the key of :func:`_join`: the
    description, the predicate list, the group-order convention and the
    epsilon = 2 exclusion act only in :func:`_decide`."""
    return spec._replace(description=None, predicates=(), group_order_mode="",
                         exclude_eps2_chains=False)


@lru_cache(maxsize=JOIN_CACHE_SIZE)
def _join(name: str, box: Bounds) -> tuple[tuple[Hit, ...], ...]:
    """The hits of the search ``name`` on ``box``, one tuple per output list
    (knonpos has two, case 1 and case 2).  The join reads only the box, so
    each box is joined once per process and every flag variant on it takes
    one :func:`_decide` pass.  A search checks its bounds, the catalog reach
    and the solver's shapes before it asks, so a refused box never gets
    here."""
    return _JOINS[name](box)


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
            want = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"golden file {path} is not valid JSON: {exc}") from exc
        results[name] = {"status": "ok" if got == want else "mismatch", "path": str(path)}
        if got != want:
            have, had = _entries(got), _entries(want)
            results[name]["added"] = [json.loads(e) for e in (have - had).elements()]
            results[name]["removed"] = [json.loads(e) for e in (had - have).elements()]
    return results
