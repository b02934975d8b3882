"""The four exhaustive case searches.

Each search enumerates boundary candidates (branch weight, three oriented
twigs, an exceptional shape) inside explicit bounds read from a checked-in
bounds file, evaluates the predicate suite and returns a canonically sorted
list.  Outputs are compared against golden files for exact equality.

Candidate enumeration is driven by the Zariski identity: given the twigs and
b, the bark square of the exceptional shape is pinned exactly, so shapes are
found by hash lookup instead of a product sweep.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import gcd
from pathlib import Path

from . import chains
from .barks import ShapeSpec, catalog_index, eshape_catalog, shape_of, spec_index
from .graphs import Weights, format_chain, parse_chain
from .predicates import (
    PREDICATE_NAMES,
    BoundaryCandidate,
    PredicateReport,
    evaluate_predicates,
)
from .ruling import TwoFiberSolution, solve_two_fiber

# The scan's index probe and gates enforce these whatever a bounds file
# lists (zar_b only through b < e~), so a list without them would promise
# candidates the scan never returns.
INDEX_PREDICATES = ("noether", "zar_b", "zar_delta", "zar_bk2")

# The keys each search reads from a bounds file; the optional ones may be
# left out.
_SCAN_KEYS = frozenset(
    {"description", "b", "predicates", "group_order_mode", "delta_gmin", "exclude_eps2_chains"}
)
BOUNDS_KEYS = {
    "xy": _SCAN_KEYS | {"x_max", "y_max", "z_max", "eshapes"},
    "final-bounds": _SCAN_KEYS | {"d_rules", "catalog_max_size"},
    "knonpos": _SCAN_KEYS | {"t1", "d2_max", "d3_max", "case2_k_max", "catalog_max_size"},
    "fiber-pairs": frozenset(
        {"description", "twig_d_max", "eshapes", "predicates", "group_order_mode"}
    ),
}
OPTIONAL_KEYS = frozenset({"description", "delta_gmin", "exclude_eps2_chains"})


@dataclass(frozen=True)
class ChainRecord:
    ws: Weights
    d: int
    d_prime: int  # d of the chain without its tip, so e = d'/d
    d_prime_rev: int  # d' of the reversed chain, so e~ = d'(rev)/d
    kc: int  # sum of (w - 2)
    size: int


@lru_cache(maxsize=None)
def _records_with_d(dd: int) -> tuple[ChainRecord, ...]:
    recs = [
        ChainRecord(
            ws,
            dd,
            chains.d_prime(ws),
            chains.d(ws[:-1]),
            sum(w - 2 for w in ws),
            len(ws),
        )
        for ws in chains.oriented_chains_with_d(dd)
    ]
    recs.sort(key=lambda r: r.ws)
    return tuple(recs)


def _records_by_d(d_max: int) -> dict[int, tuple[ChainRecord, ...]]:
    return {dd: _records_with_d(dd) for dd in range(2, d_max + 1)}


def _record_of(ws: Weights) -> ChainRecord:
    found = [r for r in _records_with_d(chains.d(ws)) if r.ws == ws]
    if not found:
        raise ValueError(f"twig {format_chain(ws)} is not an admissible chain")
    return found[0]


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


# Bounds keys that hold one integer, and the keys of every d_rules entry.
_INT_KEYS = (
    "x_max", "y_max", "z_max", "d2_max", "d3_max", "case2_k_max",
    "catalog_max_size", "twig_d_max",
)
_RULE_KEYS = ("x", "y_min", "y_max", "z_max")


def _is_int(value) -> bool:
    return type(value) is int  # not bool, which JSON keeps apart


def validate_bounds(search: str, cfg: dict) -> None:
    """Reject bounds the search ``search`` would misread, before any work:
    unknown or missing keys, values of the wrong type, unknown predicate
    names, an unknown group_order_mode and a delta_gmin that is not null or
    a positive integer."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{search} bounds must be a JSON object")
    keys = BOUNDS_KEYS[search]
    unknown = sorted(set(cfg) - keys)
    if unknown:
        raise ValueError(f"unknown {search} bounds keys: {', '.join(unknown)}")
    missing = sorted(keys - OPTIONAL_KEYS - set(cfg))
    if missing:
        raise ValueError(f"missing {search} bounds keys: {', '.join(missing)}")
    for key in _INT_KEYS:
        if key in cfg and not _is_int(cfg[key]):
            raise ValueError(f"{key} must be an integer, got {cfg[key]!r}")
    if "b" in cfg and not (
        isinstance(cfg["b"], list) and all(_is_int(b) for b in cfg["b"])
    ):
        raise ValueError(f"b must be a list of integers, got {cfg['b']!r}")
    if "d_rules" in cfg:
        rules = cfg["d_rules"]
        if not isinstance(rules, list) or not all(
            isinstance(rule, dict) and all(_is_int(rule.get(k)) for k in _RULE_KEYS)
            for rule in rules
        ):
            raise ValueError(
                "d_rules must be a list of objects with integer"
                f" {', '.join(_RULE_KEYS)}, got {rules!r}"
            )
    flag = cfg.get("exclude_eps2_chains", False)
    if type(flag) is not bool:
        raise ValueError(f"exclude_eps2_chains must be true or false, got {flag!r}")
    if "t1" in cfg and not isinstance(cfg["t1"], str):
        raise ValueError(f"t1 must be a bracket chain string, got {cfg['t1']!r}")
    for key in ("predicates", "eshapes"):
        if key in cfg and not isinstance(cfg[key], list):
            raise ValueError(f"{key} must be a list, got {cfg[key]!r}")
    bad = [str(p) for p in cfg["predicates"] if p not in PREDICATE_NAMES]
    if bad:
        raise ValueError(f"unknown predicates: {', '.join(bad)}")
    if cfg["group_order_mode"] not in ("actual", "h1"):
        raise ValueError(
            f"group_order_mode must be 'actual' or 'h1', got {cfg['group_order_mode']!r}"
        )
    gmin = cfg.get("delta_gmin")
    if gmin is not None and (not _is_int(gmin) or gmin < 1):
        raise ValueError(f"delta_gmin must be null or a positive integer, got {gmin!r}")


def _scan_triples(
    triples,
    b_values,
    index,
    predicate_names,
    group_order_mode,
    delta_gmin,
    exclude_eps2_chains=False,
) -> list[tuple[BoundaryCandidate, PredicateReport]]:
    """Evaluate every (twig triple, b, shape) combination against the suite.

    Works in integers over D = d1*d2*d3: delta = S/D, e = E/D, e~ = Et/D.
    Each (triple, b) passing the gates makes one probe of ``index``, the
    ``probes`` of a :class:`dgk.barks.SpecIndex`, with Bk^2(E) + epsilon =
    e - 1 - P^2 as a reduced pair ((E - D)(Et - bD) - (D - S)^2) / (D (Et - bD)).
    A hit's spec becomes its shape through :func:`dgk.barks.shape_of`.
    """
    found: list[tuple[BoundaryCandidate, PredicateReport]] = []
    names = tuple(predicate_names)
    for r1, r2, r3 in triples:
        q1 = r2.d * r3.d
        q2 = r1.d * r3.d
        q3 = r1.d * r2.d
        dd = r1.d * q1
        s = q1 + q2 + q3
        if s >= dd:  # delta >= 1
            continue
        if delta_gmin is not None and s * delta_gmin + dd <= dd * delta_gmin:
            continue
        e_minus_1 = r1.d_prime * q1 + r2.d_prime * q2 + r3.d_prime * q3 - dd
        et = r1.d_prime_rev * q1 + r2.d_prime_rev * q2 + r3.d_prime_rev * q3
        gap_sq = (dd - s) ** 2
        key = 4 + r1.kc + r2.kc + r3.kc - r1.size - r2.size - r3.size
        for b in b_values:
            slack = et - b * dd
            if slack <= 0:  # b >= e~
                continue
            num = e_minus_1 * slack - gap_sq
            den = dd * slack
            g = gcd(num, den)
            for spec in index.get((key + b, num // g, den // g), ()):
                shape = shape_of(spec)
                if exclude_eps2_chains and shape.epsilon == 2 and not shape.is_fork:
                    continue
                cand = BoundaryCandidate(b, (r1.ws, r2.ws, r3.ws), shape)
                report = evaluate_predicates(
                    cand, group_order_mode=group_order_mode
                )
                if report.passes(names):
                    found.append((cand, report))
    return found


def _triples_for_rules(rules: list[dict], d_max_needed: int):
    """Sorted oriented-twig triples from per-smallest-discriminant rules.

    A triple with discriminants (x, y, z) comes from a rule only through
    (x, y, z), so a discriminant triple an earlier rule covered is skipped
    whole, and weights are compared only where two discriminants are equal.
    """
    by_d = _records_by_d(d_max_needed)
    covered: set[tuple[int, int, int]] = set()
    for rule in rules:
        x = rule["x"]
        yz = []
        for y in range(max(x, rule["y_min"]), rule["y_max"] + 1):
            zs = [z for z in range(y, rule["z_max"] + 1) if (x, y, z) not in covered]
            covered.update((x, y, z) for z in zs)
            yz.append((y, zs))
        for r1 in by_d.get(x, ()):
            for y, zs in yz:
                for r2 in by_d.get(y, ()):
                    if y == x and r1.ws > r2.ws:
                        continue
                    for z in zs:
                        for r3 in by_d.get(z, ()):
                            if z == y and r2.ws > r3.ws:
                                continue
                            yield (r1, r2, r3)


def _check_index_predicates(cfg: dict) -> None:
    missing = [p for p in INDEX_PREDICATES if p not in cfg["predicates"]]
    if missing:
        raise ValueError(
            "the indexed scan always enforces "
            + ", ".join(missing)
            + "; the predicate list must name them"
        )


def _check_catalog_reach(triples, b_values, reach: int, max_size: int) -> None:
    """Reject a box whose probes could ask for shapes beyond the catalog.

    A probe for (triple, b) matches shapes with #E - epsilon - K.E = key, so
    the largest #E any probe can ask for is the largest key plus ``reach``,
    the largest epsilon + K.E of the catalog.  Gates are ignored: the bound
    is safe.
    """
    if not triples or not b_values:
        return
    key = max(b_values) + max(
        4 + r1.kc + r2.kc + r3.kc - r1.size - r2.size - r3.size
        for r1, r2, r3 in triples
    )
    if key + reach > max_size:
        raise ValueError(
            f"the box asks for exceptional shapes of up to {key + reach}"
            f" components but catalog_max_size is {max_size}"
        )


def search_xy(bounds: dict | None = None):
    """Candidates passing the general-type predicate suite in the x,y,z box."""
    cfg = load_bounds("xy") if bounds is None else bounds
    validate_bounds("xy", cfg)
    _check_index_predicates(cfg)
    index = spec_index(_named_specs(cfg["eshapes"]))
    rules = [
        {"x": x, "y_min": x, "y_max": cfg["y_max"], "z_max": cfg["z_max"]}
        for x in range(2, cfg["x_max"] + 1)
    ]
    triples = _triples_for_rules(rules, max(cfg["y_max"], cfg["z_max"]))
    return _run_scan(triples, cfg, index.probes)


def _run_scan(triples, cfg: dict, index):
    """Scan ``triples`` under the bounds ``cfg``; canonically sorted hits."""
    found = _scan_triples(
        triples,
        tuple(cfg["b"]),
        index,
        tuple(cfg["predicates"]),
        cfg["group_order_mode"],
        cfg.get("delta_gmin"),
        cfg.get("exclude_eps2_chains", False),
    )
    found.sort(key=lambda pair: pair[0].sort_key())
    return found


def _named_specs(entries: list) -> list[ShapeSpec]:
    """Resolve [key, epsilon] pairs against the catalog of size 12."""
    table = {(s.key(), s.epsilon): s.spec for s in eshape_catalog(12)}
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
    cfg = load_bounds("final_bounds") if bounds is None else bounds
    validate_bounds("final-bounds", cfg)
    _check_index_predicates(cfg)
    index = catalog_index(cfg["catalog_max_size"])
    d_max = max(rule["z_max"] for rule in cfg["d_rules"])
    triples = list(_triples_for_rules(cfg["d_rules"], d_max))
    _check_catalog_reach(triples, cfg["b"], index.reach, cfg["catalog_max_size"])
    found = _run_scan(triples, cfg, index.probes)
    eshapes = sorted({cand.eshape.key() for cand, _ in found})
    return {
        "eshapes": eshapes,
        "candidates": [cand.to_dict() for cand, _ in found],
    }


def search_k_nonpositive(bounds: dict | None = None) -> dict:
    """The two bounded searches of the nonpositive-Kodaira branch."""
    cfg = load_bounds("k_nonpositive") if bounds is None else bounds
    validate_bounds("knonpos", cfg)
    _check_index_predicates(cfg)
    index = catalog_index(cfg["catalog_max_size"])
    t1 = parse_chain(cfg["t1"])
    rec1 = _record_of(t1)
    by_d = _records_by_d(max(cfg["d2_max"], cfg["d3_max"]))

    def case1_triples():
        for d2 in range(3, cfg["d2_max"] + 1):
            for r2 in by_d[d2]:
                for d3 in range(d2, cfg["d3_max"] + 1):
                    for r3 in by_d[d3]:
                        if (r2.d, r2.ws) > (r3.d, r3.ws):
                            continue
                        if (
                            r2.ws == t1
                            and len(r3.ws) >= 2
                            and r3.ws[-2:] == (3, 2)
                        ):
                            continue
                        yield tuple(
                            sorted((rec1, r2, r3), key=lambda r: (r.d, r.ws))
                        )

    def case2_triples():
        k_max = cfg["case2_k_max"]
        for k in range(0, k_max + 1):
            for head in ((), (3,), (4,), (2, 3)):
                r3 = _record_of(head + (2,) * k + (3, 2))
                yield tuple(sorted((rec1, rec1, r3), key=lambda r: (r.d, r.ws)))

    triples1 = list(case1_triples())
    triples2 = list(case2_triples())
    _check_catalog_reach(
        triples1 + triples2, cfg["b"], index.reach, cfg["catalog_max_size"]
    )
    found1 = _run_scan(triples1, cfg, index.probes)
    found2 = _run_scan(triples2, cfg, index.probes)
    return {
        "case1": [cand.to_dict() for cand, _ in found1],
        "case2": [cand.to_dict() for cand, _ in found2],
        "reports1": [rep.to_dict() for _, rep in found1],
    }


def search_fiber_pairs(bounds: dict | None = None) -> list[TwoFiberSolution]:
    """Sweep both short twigs over the small-discriminant list and solve."""
    cfg = load_bounds("fiber_pairs") if bounds is None else bounds
    validate_bounds("fiber-pairs", cfg)
    shapes = [shape_of(spec) for spec in _named_specs(cfg["eshapes"])]
    sweep = [
        ws
        for dd in range(2, cfg["twig_d_max"] + 1)
        for ws in chains.oriented_chains_with_d(dd)
    ]
    solutions: list[TwoFiberSolution] = []
    for es in shapes:
        for t1 in sweep:
            for t2 in sweep:
                solutions.extend(
                    solve_two_fiber(
                        t1,
                        t2,
                        es,
                        predicate_names=tuple(cfg["predicates"]),
                        group_order_mode=cfg["group_order_mode"],
                    )
                )
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
    if name == "final-bounds":
        return search_final_bounds(load_bounds("final_bounds", bounds_path))
    if name == "xy":
        found = search_xy(load_bounds("xy", bounds_path))
        return [cand.to_dict() for cand, _ in found]
    if name == "knonpos":
        out = search_k_nonpositive(load_bounds("k_nonpositive", bounds_path))
        return {"case1": out["case1"], "case2": out["case2"]}
    if name == "fiber-pairs":
        sols = search_fiber_pairs(load_bounds("fiber_pairs", bounds_path))
        return [s.to_dict() for s in sols]
    raise ValueError(f"unknown search {name!r}")


GOLDEN_FILES = {
    "final-bounds": "search_final_bounds.json",
    "xy": "search_xy.json",
    "knonpos": "search_k_nonpositive.json",
    "fiber-pairs": "search_fiber_pairs.json",
    "final-bounds-relaxed": "search_final_bounds_relaxed.json",
}


def verify_suite(directory: Path | None = None) -> dict:
    """Run the four searches and compare against the golden files."""
    gdir = directory or golden_dir()
    results = {}
    for name in ("final-bounds", "xy", "knonpos", "fiber-pairs"):
        got = run_search(name)
        path = gdir / GOLDEN_FILES[name]
        if not path.exists():
            results[name] = {"status": "missing-golden", "path": str(path)}
            continue
        want = json.loads(path.read_text())
        results[name] = {
            "status": "ok" if got == want else "mismatch",
            "path": str(path),
        }
        if got != want:
            results[name]["got"] = got
            results[name]["want"] = want
    return results
