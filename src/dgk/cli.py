"""Command-line front end.

Verbs: compute, enumerate, pairs, solve, search, verify.  All numeric output
is exact (integers or p/q fractions); --json mirrors every table.  Exit codes:
0 success, 1 domain error, 2 usage error, 3 golden mismatch.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from functools import cache

from . import chains
from .barks import (
    bark_chain,
    bark_fork,
    bark_one_sided,
    eshape_catalog,
    fork_invariants,
    group_order,
    shape_of,
    specs_named,
)
from .graphs import (
    ChainParseError,
    Curve,
    Fork,
    format_chain,
    parse_chain,
    parse_fork,
    read_brackets,
)
from .pairs import FiberTree, pairs_from_fiber, reconstruct_fiber
from .search import SEARCHES, run_search, verify_suite
from .ruling import solve_two_fiber


class DomainError(ValueError):
    pass


def _parse_graph(text: str):
    text = text.strip()
    if text.startswith("{"):
        return parse_fork(text)
    return parse_chain(text)


def _bark_output(bark) -> tuple[int, object, str]:
    payload = {
        "coefficients": [str(c) for c in bark.coefficients],
        "bk_square": str(bark.bk_square),
    }
    return 0, payload, (
        "coefficients: " + " ".join(payload["coefficients"])
        + f"\nBk^2 = {payload['bk_square']}"
    )


def cmd_compute(args) -> tuple[int, object, str]:
    graph = _parse_graph(args.graph)
    what = args.quantity
    if isinstance(graph, Fork):
        if what in ("d", "e", "etilde", "delta"):
            inv = fork_invariants(graph)
            val = {"d": inv.d, "e": inv.e, "etilde": inv.e_tilde, "delta": inv.delta}[what]
        elif what == "bark":
            return _bark_output(bark_fork(graph))
        elif what == "group":
            val = group_order(graph)
        else:
            raise DomainError(f"{what} is not defined for forks")
        return 0, {what: str(val)}, str(val)
    ws = graph
    if what == "bark":
        return _bark_output(bark_one_sided(ws) if args.one_sided else bark_chain(ws))
    if what == "group":
        val: object = group_order(ws)
    else:
        val = {
            "d": chains.d,
            "dprime": chains.d_prime,
            "e": chains.e,
            "etilde": chains.e_tilde,
            "delta": chains.delta,
        }[what](ws)
    return 0, {what: str(val)}, str(val)


def cmd_enumerate(args) -> tuple[int, object, str]:
    if args.kind == "chains":
        found = chains.enumerate_admissible_chains(args.d)
        lines = [format_chain(ws) for ws in found]
        return 0, lines, "\n".join(lines)
    if args.max_size < 0:
        raise ValueError("--max-size must be >= 0")
    shapes = eshape_catalog(args.max_size)
    payload = [
        {
            "shape": s.key(),
            "epsilon": s.epsilon,
            "families": [s.spec[0].name],
            "d": s.d,
            "ke": s.ke,
            "bk_square": str(s.bk_square),
            "group_order": s.g_order,
        }
        for s in shapes
    ]
    text = "\n".join(
        f"{p['shape']} eps={p['epsilon']} d={p['d']} K.E={p['ke']}"
        f" Bk^2={p['bk_square']} |G|={p['group_order']}"
        for p in payload
    )
    return 0, payload, text


def cmd_pairs(args) -> tuple[int, object, str]:
    if args.action == "reconstruct":
        vals = args.numbers
        if len(vals) % 2 or not vals:
            raise DomainError("expected pairs: c1 p1 [c2 p2 ...]")
        seq = tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
        tree = reconstruct_fiber(seq)
        payload = {"chain": None, "multiplicities": None}
        if tree.is_chain():
            order = tree.chain_order()
            parts = []
            for v in order:
                star = "*" if v == tree.neg_curve else ""
                parts.append(f"{tree.weights[v]}{star}:{tree.mults[v]}")
            text = "[" + ",".join(parts) + "]"
            payload["chain"] = format_chain(tuple(tree.weights[v] for v in order))
            payload["multiplicities"] = [tree.mults[v] for v in order]
        else:
            nodes = [
                {
                    "weight": tree.weights[v],
                    "mult": tree.mults[v],
                    "neg": v == tree.neg_curve,
                }
                for v in range(len(tree))
            ]
            text = json.dumps({"nodes": nodes, "edges": tree.edges()})
        payload["fiber"] = text
        return 0, payload, text
    # extract
    return _extract_pairs(args.fiber)


def _parse_fiber(text: str) -> list[Curve]:
    """The curves of a fiber in bracket notation: at least one, and at most
    one of them marked '*'."""
    curves = read_brackets(text, "fiber")
    marked = [(entry, pos) for _, mark, _, entry, pos in curves if mark]
    if len(marked) > 1:
        (first, _), (second, pos) = marked[:2]
        raise ChainParseError(f"fiber entry {second!r} is a second '*' after {first!r}", pos)
    if not curves:
        raise ChainParseError(f"fiber {text.strip()} has no curves", 0)
    return curves


def _extract_pairs(text: str) -> tuple[int, object, str]:
    entries = _parse_fiber(text)
    tree = FiberTree()
    neg = None
    for i, (w, mark, m, _, _) in enumerate(entries):
        tree.add_node(w, m or 0, 0)
        if i:
            tree.connect(i - 1, i)
        if mark:
            neg = i
    if any(m is None for _, _, m, _, _ in entries):
        # recover multiplicities as the primitive kernel vector, which the
        # multiplicities that are given must match
        mults = _kernel_vector(tree.weights)
        if mults is None:
            raise DomainError("not a fiber: minus matrix has no kernel")
        for (_, _, m, item, _), k in zip(entries, mults):
            if m is not None and m != k:
                raise DomainError(
                    f"fiber entry {item!r} gives multiplicity {m}; the weights give {k}"
                )
        tree.mults = mults
    if neg is None:
        cands = [
            v
            for v in range(len(entries))
            if tree.weights[v] == 1 and tree.mults[v] > 1
        ]
        if len(cands) == 1:
            neg = cands[0]
        elif len(entries) == 1 and tree.weights[0] == 0:
            neg = None
        else:
            raise DomainError("mark the (-1)-curve with '*'")
    tree.neg_curve = neg
    seq = pairs_from_fiber(tree)
    pairs = [[c, p] for c, p in seq.pairs]
    text_out = " ".join(f"({c},{p})" for c, p in seq.pairs)
    return 0, {"pairs": pairs}, text_out


def _kernel_vector(weights: list[int]) -> list[int] | None:
    """The positive kernel vector of a chain's minus intersection matrix.

    Row i reads w_i*m_i - m_(i-1) - m_(i+1) = 0, so m_0 = 1, m_1 = w_0 and
    m_(i+1) = w_i*m_i - m_(i-1): m_i = d(weights[:i]), and the last row
    must give m_n = d(weights) = 0.  With m_0 = 1 the vector is primitive.
    """
    pre, _ = chains.continuants(weights)
    mults = pre[1:-1]
    if pre[-1] != 0 or any(m <= 0 for m in mults):
        return None
    return mults


def cmd_solve(args) -> tuple[int, object, str]:
    t1 = parse_chain(args.t1)
    t2 = parse_chain(args.t2)
    named = specs_named(args.e)
    choices = [spec for eps, spec in named.items() if args.epsilon in (None, eps)]
    if not choices:  # name the epsilons the shape has, if any
        known = f" with epsilon {args.epsilon}; its epsilons are {', '.join(map(str, named))}"
        raise DomainError(f"no catalog shape {args.e.strip()}{known if named else ''}")
    solutions = []
    for spec in choices:
        solutions.extend(solve_two_fiber(t1, t2, shape_of(spec)))
    payload = [s.to_dict() for s in solutions]
    lines = [
        f"n={s.n} gamma={s.gamma} kappa={s.kappa} kappa~={s.kappa_t}"
        f" (c,p)=({s.c},{s.p}) (c',p')=({s.c_prime},{s.p_prime})"
        f" (c~,p~)=({s.c_tilde},{s.p_tilde}) b={s.b}"
        f" T1={format_chain(s.t1)} T2={format_chain(s.t2)} T3={format_chain(s.t3)}"
        f" -d(D)/d(E)={str(s.minus_dd_over_de)} gcd={s.gcd_c}"
        f" homology-check={'fails' if s.rejected_by_square_gcd else 'holds'}"
        for s in solutions
    ]
    return 0, payload, "\n".join(lines) if lines else "(no solutions)"


# The columns of each search's --csv; "twigs" prints its list joined by "|".
CSV_COLUMNS = {
    "final-bounds": ("eshape",),
    "xy": ("b", "twigs", "eshape", "epsilon"),
    "knonpos": ("case", "b", "twigs", "eshape", "epsilon"),
    "fiber-pairs": ("n", "gamma", "kappa", "kappa_tilde", "c", "p", "c_prime", "p_prime",
                    "c_tilde", "p_tilde", "b", "t1", "t2", "t3", "eshape", "epsilon"),
}


def _csv_records(name: str, result) -> list[dict]:
    """The records of a search's output that its CSV prints a row for:
    final-bounds' shapes, knonpos's two cases in turn, the other lists
    whole."""
    if name == "final-bounds":
        return [{"eshape": eshape} for eshape in result["eshapes"]]
    if name == "knonpos":
        return [{"case": case, **c} for case in ("case1", "case2") for c in result[case]]
    return result


def cmd_search(args) -> tuple[int, object, str]:
    result = run_search(args.name, args.bounds)
    if args.csv:
        import csv  # only here, so that no other command pays for its import

        columns = CSV_COLUMNS[args.name]
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(
            ["|".join(record[k]) if k == "twigs" else record[k] for k in columns]
            for record in _csv_records(args.name, result)
        )
        return 0, result, text.getvalue().rstrip("\n")
    return 0, result, json.dumps(result, indent=2, sort_keys=True)


def cmd_verify(args) -> tuple[int, object, str]:
    results = verify_suite()
    ok = all(r["status"] == "ok" for r in results.values())
    lines = [
        f"{name}: {r['status']}" + (f" +{len(r['added'])} -{len(r['removed'])}" if "added" in r else "")
        for name, r in results.items()
    ]
    text = "\n".join(lines) + ("\nall searches match" if ok else "\nGOLDEN MISMATCH")
    return (0 if ok else 3), results, text


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    ap = argparse.ArgumentParser(
        prog="dgk",
        description="Exact invariants and case searches for weighted dual graphs.",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compute", help="invariants of a chain or fork")
    p.add_argument("quantity", choices=["d", "dprime", "e", "etilde", "delta", "bark", "group"])
    p.add_argument("graph", help="bracket chain like [3,(2)] or fork JSON")
    p.add_argument("--one-sided", action="store_true", help="one-sided bark (chains)")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("enumerate", help="admissible chains or exceptional shapes")
    pe = p.add_subparsers(dest="kind", required=True)
    pc = pe.add_parser("chains")
    pc.add_argument("--d", dest="d", type=int, required=True)
    pc.set_defaults(fn=cmd_enumerate, kind="chains")
    ps = pe.add_parser("eshapes")
    ps.add_argument("--max-size", type=int, default=12)
    ps.set_defaults(fn=cmd_enumerate, kind="eshapes")

    p = sub.add_parser("pairs", help="fiber reconstruction from pairs and back")
    pp = p.add_subparsers(dest="action", required=True)
    pr = pp.add_parser("reconstruct")
    pr.add_argument("numbers", nargs="+", type=int)
    pr.set_defaults(fn=cmd_pairs, action="reconstruct")
    px = pp.add_parser("extract")
    px.add_argument("fiber")
    px.set_defaults(fn=cmd_pairs, action="extract")

    p = sub.add_parser("solve", help="two-fiber Diophantine solver")
    pt = p.add_subparsers(dest="what", required=True)
    tw = pt.add_parser("twofiber")
    tw.add_argument("--t1", required=True)
    tw.add_argument("--t2", required=True)
    tw.add_argument("--e", required=True)
    tw.add_argument("--epsilon", type=int, default=None)
    tw.set_defaults(fn=cmd_solve)

    p = sub.add_parser("search", help="the four exhaustive case searches")
    p.add_argument("name", choices=list(SEARCHES))
    p.add_argument("--bounds", default=None, help="path to a bounds JSON file")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("verify", help="run searches against golden files")
    p.add_argument("--suite", default="paper", choices=["paper"])
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload, text = args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
        # flush here, so that a closed pipe raises inside this block
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (as in "dgk search xy | head -1"); point
        # stdout at devnull so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
