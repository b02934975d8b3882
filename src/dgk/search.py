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
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import gcd
from pathlib import Path
from typing import NamedTuple

from . import chains
from .barks import (
    MAX_CATALOG_SIZE, ForkInvariants, ShapeSpec, SpecIndex, catalog_index, fork_sums_along,
    shape_of, specs_by_name,
)
from .barks import eshape_catalog  # noqa: F401  (perfbench/tracing.py wraps it here)
from .chains import ChainRecord, chain_record
from .graphs import Weights, format_chain, is_admissible_chain, is_int, parse_chain
from .predicates import PREDICATE_NAMES, BoundaryCandidate, evaluate_predicates, passes
from .ruling import TwoFiberSolution, solve_two_fiber

# The scan's index probe and gates enforce these whatever a bounds file
# lists (zar_b only through b < e~), so a list without them would promise
# candidates the scan never returns.
INDEX_PREDICATES = ("noether", "zar_b", "zar_delta", "zar_bk2")

# Every scan search reads these keys; the optional keys may be left out.
_SCAN_KEYS = frozenset(
    {"description", "b", "predicates", "group_order_mode", "delta_gmin", "exclude_eps2_chains"}
)
OPTIONAL_KEYS = frozenset({"description", "delta_gmin", "exclude_eps2_chains"})


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
    return tuple(map(chain_record, sorted(chains.oriented_chains_with_d(dd))))


def _records_by_d(d_max: int) -> dict[int, tuple[ChainRecord, ...]]:
    return {dd: _records_with_d(dd) for dd in range(2, d_max + 1)}


def load_bounds(name: str, path: str | None = None) -> dict:
    """A bounds file: the packaged ``name`` or the JSON file at ``path``."""
    if path is None:
        return json.loads((resources.files("dgk") / "bounds" / f"{name}.json").read_text())
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read bounds file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"bounds file {path} is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class Bounds:
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
    d_rules: tuple[dict, ...] = ()
    t1: Weights = ()
    d2_max: int = 0
    d3_max: int = 0
    case2_k_max: int = 0
    catalog_max_size: int = 0
    twig_d_max: int = 0
    eshapes: tuple[ShapeSpec, ...] = ()


_RULE_KEYS = ("x", "y_min", "y_max", "z_max")
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
    if "t1" in cfg:
        values["t1"] = _record_of(parse_chain(cfg["t1"])).ws
    if "eshapes" in cfg:
        values["eshapes"] = tuple(_named_specs(cfg["eshapes"]))
    return Bounds(**values)


def _scan_triples(groups, bounds: Bounds, index: SpecIndex) -> list[BoundaryCandidate]:
    """The (twig triple, b, shape) combinations passing ``bounds``, canonically
    sorted.

    ``groups`` holds one (T1, T2, thirds) per twig pair, as the sweeps yield
    them.  For each pair the key base 4 + kd1 + kd2 is formed once, and
    :func:`dgk.barks.fork_sums_along` steps the integer twig sums
    (D, S, E, Et) along its third twigs, so that delta = S/D, e = E/D and
    e~ = Et/D.  Each (triple, b) passing the gates looks up the bucket of its
    Noether key 4 + b + sum kd in ``index`` (one subscript, which builds the
    bucket the first time) and, when the bucket is not empty, makes one
    probe of it with Bk^2(E) + epsilon = e - 1 - P^2 as a reduced pair
    ((E - D)(Et - bD) - (D - S)^2) / (D (Et - bD)).  The thirds come joined
    on the key (:func:`_join_keys`), so most (triple, b) find a bucket.  A
    hit's spec becomes its shape through :func:`dgk.barks.shape_of`, and
    :func:`dgk.predicates.passes` decides the hit on the integer record
    (b, D, S, E, Et) formed here; only a hit that passes becomes a
    candidate.
    """
    found: list[BoundaryCandidate] = []
    names, b_values, delta_gmin = bounds.predicates, bounds.b, bounds.delta_gmin
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
                    if bounds.exclude_eps2_chains and shape.epsilon == 2 and not shape.is_fork:
                        continue
                    twigs = (r1.ws, r2.ws, r3.ws)
                    if passes(ForkInvariants(b, dd, s, e, et), twigs, shape, names,
                              group_order_mode=bounds.group_order_mode):
                        found.append(BoundaryCandidate(b, twigs, shape))
    found.sort(key=BoundaryCandidate.sort_key)
    return found


def _join_keys(index: SpecIndex, b_values) -> frozenset[int]:
    """The twig keys 4 + sum kd that meet a first key of ``index`` for some b."""
    return frozenset(k - b for k in index.first_keys for b in b_values)


def _third_twigs(by_d: dict[int, tuple[ChainRecord, ...]], keys: frozenset[int] | None):
    """The choice of the last twig: for (d, base), the records of
    discriminant d, in order, whose key base + kd is one of ``keys``; all
    of them when ``keys`` is None.  Each (d, base) is filtered once."""
    if keys is None:
        return lambda dd, base: by_d.get(dd, ())
    chosen: dict[tuple[int, int], tuple[ChainRecord, ...]] = {}

    def pick(dd: int, base: int) -> tuple[ChainRecord, ...]:
        got = chosen.get((dd, base))
        if got is None:
            got = chosen[dd, base] = tuple(r for r in by_d.get(dd, ()) if base + r.kd in keys)
        return got

    return pick


def _rule_cells(rules: list[dict]):
    """For each rule, its x and (y, [z, ...]) pairs, sorted, without the
    discriminant triples an earlier rule covered."""
    covered: set[tuple[int, int, int]] = set()
    for rule in rules:
        x = rule["x"]
        yz = []
        for y in range(max(x, rule["y_min"]), rule["y_max"] + 1):
            zs = [z for z in range(y, rule["z_max"] + 1) if (x, y, z) not in covered]
            covered.update((x, y, z) for z in zs)
            yz.append((y, zs))
        yield x, yz


def _triples_for_rules(rules: list[dict], d_max_needed: int, keys: frozenset[int] | None = None):
    """Oriented-twig triples from per-smallest-discriminant rules, as one
    group (T1, T2, thirds) per twig pair, sorted, with the pair's third
    twigs in order.

    A triple with discriminants (x, y, z) comes from a rule only through
    (x, y, z), so a discriminant triple an earlier rule covered is skipped
    whole, and weights are compared only where two discriminants are equal:
    T1 <= T2 where x = y and T2 <= T3 where y = z.  With ``keys``, a group
    holds only the third twigs whose triple's key 4 + sum kd is one of them;
    a pair left with none is not yielded.
    """
    by_d = _records_by_d(d_max_needed)
    pick = _third_twigs(by_d, keys)
    for x, yz in _rule_cells(rules):
        for r1 in by_d.get(x, ()):
            for y, zs in yz:
                for r2 in by_d.get(y, ()):
                    if y == x and r1.ws > r2.ws:
                        continue
                    base = 4 + r1.kd + r2.kd
                    thirds: list[ChainRecord] = []
                    for z in zs:
                        rs = pick(z, base)
                        thirds += [r3 for r3 in rs if r2.ws <= r3.ws] if z == y else rs
                    if thirds:
                        yield r1, r2, thirds


def _rule_keys(rules: list[dict], d_max_needed: int):
    """The largest key 4 + sum kd of each discriminant triple of the
    unpruned rule sweep.  The largest kd = sum (w - 3) at discriminant d is
    d - 3, that of [d], so (x, y, z) reaches x + y + z - 5."""
    for x, yz in _rule_cells(rules):
        if x >= 2:
            for y, zs in yz:
                yield from (x + y + z - 5 for z in zs if z <= d_max_needed)


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


def _xy_rules(spec: Bounds) -> list[dict]:
    return [
        {"x": x, "y_min": x, "y_max": spec.y_max, "z_max": spec.z_max}
        for x in range(2, spec.x_max + 1)
    ]


def search_xy(bounds: dict | None = None):
    """Candidates passing the general-type predicate suite in the x,y,z box,
    each with its predicate report."""
    spec = parse_bounds("xy", bounds)
    index = SpecIndex.of_specs(spec.eshapes)
    keys = _join_keys(index, spec.b)
    groups = _triples_for_rules(_xy_rules(spec), max(spec.y_max, spec.z_max), keys)
    found = _scan_triples(groups, spec, index)
    return [(c, evaluate_predicates(c, group_order_mode=spec.group_order_mode)) for c in found]


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
    d_max = max(rule["z_max"] for rule in spec.d_rules)
    _check_catalog_reach(_rule_keys(spec.d_rules, d_max), spec.b, index.reach,
                         spec.catalog_max_size)
    groups = _triples_for_rules(spec.d_rules, d_max, _join_keys(index, spec.b))
    found = _scan_triples(groups, spec, index)
    eshapes = sorted({cand.eshape.key() for cand in found})
    return {"eshapes": eshapes, "candidates": [cand.to_dict() for cand in found]}


def _case1_triples(spec: Bounds, keys: frozenset[int] | None = None):
    """knonpos case 1: T1 pinned, d2 in 3..d2_max, d3 in d2..d3_max, without
    T2 = T1 with T3 ending in (3, 2); with ``keys``, joined on them as
    :func:`_triples_for_rules` is, in groups (T1, T2, thirds) as it yields
    them.  Triples come as (T1, T2, T3): the twig sums and predicates are
    symmetric in the twigs, and a candidate sorts its twigs itself for its
    key and its output."""
    rec1 = _record_of(spec.t1)
    by_d = _records_by_d(max(spec.d2_max, spec.d3_max))
    pick = _third_twigs(by_d, keys)
    for d2 in range(3, spec.d2_max + 1):
        for r2 in by_d[d2]:
            base = 4 + rec1.kd + r2.kd
            thirds: list[ChainRecord] = []
            for d3 in range(d2, spec.d3_max + 1):
                rs = pick(d3, base)
                thirds += [r3 for r3 in rs if r2.ws <= r3.ws] if d3 == d2 else rs
            if r2.ws == spec.t1:
                thirds = [r3 for r3 in thirds if r3.ws[-2:] != (3, 2)]
            if thirds:
                yield rec1, r2, thirds


def _case1_keys(spec: Bounds):
    """The largest key of each (d2, d3) of the unpruned case 1, through
    T2 = [d2] and T3 = [d3] as in :func:`_rule_keys`; [d3] never ends in
    (3, 2)."""
    kd1 = _record_of(spec.t1).kd
    for d2 in range(3, spec.d2_max + 1):
        yield from (kd1 + d2 + d3 - 2 for d3 in range(d2, spec.d3_max + 1))


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
    """The two bounded searches of the nonpositive-Kodaira branch."""
    spec = parse_bounds("knonpos", bounds)
    index = catalog_index(spec.catalog_max_size)
    groups2 = _case2_triples(spec)
    keys = [*_case1_keys(spec),
            *(4 + r1.kd + r2.kd + r3.kd for r1, r2, thirds in groups2 for r3 in thirds)]
    _check_catalog_reach(keys, spec.b, index.reach, spec.catalog_max_size)
    found1 = _scan_triples(_case1_triples(spec, _join_keys(index, spec.b)), spec, index)
    found2 = _scan_triples(groups2, spec, index)
    return {
        "case1": [cand.to_dict() for cand in found1],
        "case2": [cand.to_dict() for cand in found2],
    }


def search_fiber_pairs(bounds: dict | None = None) -> list[TwoFiberSolution]:
    """Sweep both short twigs over the small-discriminant list and solve."""
    spec = parse_bounds("fiber-pairs", bounds)
    sweep = [
        ws
        for dd in range(2, spec.twig_d_max + 1)
        for ws in chains.oriented_chains_with_d(dd)
    ]
    solutions: list[TwoFiberSolution] = []
    for es in map(shape_of, spec.eshapes):
        for t1 in sweep:
            for t2 in sweep:
                solutions.extend(solve_two_fiber(
                    t1, t2, es, predicate_names=spec.predicates,
                    group_order_mode=spec.group_order_mode,
                ))
    solutions.sort(key=lambda s: s.sort_key())
    return solutions


# ---------------------------------------------------------------------------
# golden files


def golden_dir() -> Path:
    """Golden-file location: DGK_GOLDEN_DIR, else the copy installed with
    the package."""
    env = os.environ.get("DGK_GOLDEN_DIR")
    if env:
        return Path(env)
    return Path(str(resources.files("dgk") / "golden"))


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


def verify_suite() -> dict:
    """Run the four searches and compare against the golden files in
    :func:`golden_dir`; a missing golden file is refused before any search."""
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
            results[name].update(got=got, want=want)
    return results
