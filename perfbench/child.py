"""One benchmark process, started fresh by run.py for every pass or probe.

    python3 perfbench/child.py ROOT WORKLOAD '{"mode": ..., "seed": ..., ...}'

It imports dgk from ROOT/src first, so that the import is timed cold, runs
the requested part of a workload single-threaded, checks every output, and
prints one JSON line: set-up time, unit times, peak RSS, attempted and failed
operations and, when traced, the per-layer metrics.
"""

import os
import sys
import time


class Tally:
    """Attempted operations and the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append("; ".join(problems)[:500])


# ---------------------------------------------------------------------------
# paper-cold

PAPER_ORDER = ("final-bounds", "xy", "knonpos", "fiber-pairs")
BOUNDS_FILE = {
    "final-bounds": "final_bounds",
    "xy": "xy",
    "knonpos": "k_nonpositive",
    "fiber-pairs": "fiber_pairs",
}
# SHA-256 of the canonical JSON of each golden file at the seed commit; these
# hold however the golden files are later stored or deduplicated.
GOLDEN_DIGESTS = {
    "final-bounds": "395abed466bc5191b48e9b515c36b2c0e6a3eb32c86db1d59462cb994796dc5d",
    "xy": "1e6815d7d17a9420040808c2cd30bd859966fc1ee8c9e5594dedbe8aa5f6e960",
    "knonpos": "2550dccc7f29ca8cbe7a684d4dab348a71b4c142dc465b7529defdba44a67fcb",
    "fiber-pairs": "7e99e79b02f99d5c8ac59a3ec2892d587834589900e0db3f39aa2ac0d5dc6d8f",
}


def golden_problems(search, name: str, got) -> list[str]:
    import json

    from gen import canonical, digest

    problems = []
    if digest(got) != GOLDEN_DIGESTS[name]:
        problems.append(f"{name}: output differs from the golden digest")
    files = getattr(search, "GOLDEN_FILES", {})
    if hasattr(search, "golden_dir") and name in files:
        path = search.golden_dir() / files[name]
        if path.is_file() and canonical(json.loads(path.read_text())) != canonical(got):
            problems.append(f"{name}: output differs from {path.name}")
    return problems


def output_count(name: str, got) -> int:
    if name == "final-bounds":
        return len(got["candidates"])
    if name == "knonpos":
        return len(got["case1"]) + len(got["case2"])
    return len(got)


def paper_pass(tracer, tally: Tally) -> float:
    """run_search for the four paper searches in verify order, cold."""
    import dgk.search as search

    wall = 0.0
    for name in PAPER_ORDER:
        tracer.predicate_names = tuple(
            search.load_bounds(BOUNDS_FILE[name])["predicates"]
        )
        try:
            t0 = time.perf_counter()
            got = search.run_search(name)
            wall += time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.record([f"{name}: {type(exc).__name__}: {exc}"])
            continue
        tally.record(golden_problems(search, name, got))
        if tracer.active:
            tracer.counters["search.candidates"] += output_count(name, got)
    return wall


# ---------------------------------------------------------------------------
# explore-warm

SEARCH_FN = {
    "final-bounds": "search_final_bounds",
    "xy": "search_xy",
    "knonpos": "search_k_nonpositive",
    "fiber-pairs": "search_fiber_pairs",
}
WARMUP = (
    ("final_bounds", "final-bounds"),
    ("final_bounds_relaxed", "final-bounds"),
    ("xy", "xy"),
    ("k_nonpositive", "knonpos"),
    ("fiber_pairs", "fiber-pairs"),
)


class Explorer:
    """The long-lived process of explore-warm."""

    def __init__(self, tracer) -> None:
        import dgk.search as search

        self.search = search
        self.tracer = tracer
        self.base: dict[str, dict] = {}
        self.shapes: dict = {}
        self.warm: list[tuple[str, dict, object]] = []

    def setup(self) -> None:
        """Load the five checked-in bounds files and run each once on the
        smallest box of its family; this builds the catalog and chain tables
        that every later variant reuses."""
        import copy

        from gen import BOXES

        for file_name, name in WARMUP:
            cfg = self.search.load_bounds(file_name)
            if file_name == BOUNDS_FILE[name]:
                self.base[name] = cfg
            cfg = {**cfg, **copy.deepcopy(BOXES[name][0])}
            self.warm.append((name, cfg, self.run(name, cfg)))

    def run(self, name: str, cfg: dict):
        self.tracer.predicate_names = tuple(cfg["predicates"])
        return getattr(self.search, SEARCH_FN[name])(cfg)

    def config(self, variant: dict) -> dict:
        extra = {k: v for k, v in variant.items() if k not in ("search", "level")}
        return {**self.base[variant["search"]], **extra}

    def load_shapes(self) -> None:
        """Key the whole catalog the searches use, once and for every seed
        alike, so that checking adds the same memory to each run."""
        from dgk.barks import eshape_catalog

        size = max(cfg.get("catalog_max_size", 12) for cfg in self.base.values())
        self.shapes = {(s.key(), s.epsilon): s for s in eshape_catalog(size)}

    def check(self, name: str, cfg: dict, got) -> tuple[list[str], int]:
        """Re-check every candidate against the variant; returns (problems,
        output count)."""
        with self.tracer.paused():
            if name == "fiber-pairs":
                return solution_problems(cfg, got), len(got)
            if name == "xy":
                cands = [cand.to_dict() for cand, _ in got]
                return candidate_problems(cfg, cands, self.shapes, name), len(cands)
            if name == "final-bounds":
                cands = got["candidates"]
                problems = candidate_problems(cfg, cands, self.shapes, name)
                if got["eshapes"] != sorted({c["eshape"] for c in cands}):
                    problems.append("eshapes is not the sorted set of candidate shapes")
                return problems, len(cands)
            problems = []
            for case in ("case1", "case2"):
                problems += candidate_problems(cfg, got[case], self.shapes, case)
            return problems, len(got["case1"]) + len(got["case2"])


def _box_ok(kind: str, cfg: dict, twigs, ds) -> bool:
    d1, d2, d3 = ds
    if kind == "final-bounds":
        return any(
            d1 == r["x"] and r["y_min"] <= d2 <= r["y_max"] and d3 <= r["z_max"]
            for r in cfg["d_rules"]
        )
    if kind == "xy":
        return d1 <= cfg["x_max"] and d2 <= cfg["y_max"] and d3 <= cfg["z_max"]
    from gen import parse_bracket, ref_d

    pinned = parse_bracket(cfg["t1"])
    rest = list(twigs)
    if pinned not in rest:
        return False
    rest.remove(pinned)
    if kind == "case1":
        a, b = sorted(ref_d(t) for t in rest)
        return 3 <= a <= cfg["d2_max"] and b <= cfg["d3_max"]
    return pinned in rest and any(t[-2:] == (3, 2) for t in rest)


def candidate_problems(cfg: dict, cands: list[dict], shapes: dict, kind: str) -> list[str]:
    from fractions import Fraction

    from dgk.predicates import BoundaryCandidate, evaluate_predicates
    from gen import parse_bracket, ref_d

    problems = []
    keys = []
    for c in cands:
        twigs = tuple(parse_bracket(t) for t in c["twigs"])
        ds = sorted(ref_d(t) for t in twigs)
        keys.append((c["eshape"], c["epsilon"], c["b"], tuple(sorted((ref_d(t), t) for t in twigs))))
        shape = shapes.get((c["eshape"], c["epsilon"]))
        if shape is None:
            problems.append(f"unknown shape {c['eshape']} eps {c['epsilon']}")
            continue
        report = evaluate_predicates(
            BoundaryCandidate(c["b"], twigs, shape),
            group_order_mode=cfg["group_order_mode"],
        )
        failing = [p for p in cfg["predicates"] if not report.entries[p][0]]
        if failing:
            problems.append(f"{c} fails {failing}")
        if c["b"] not in cfg["b"]:
            problems.append(f"{c} has b outside {cfg['b']}")
        if cfg.get("exclude_eps2_chains") and c["epsilon"] == 2 and not shape.is_fork:
            problems.append(f"{c} is an excluded epsilon-2 chain")
        gmin = cfg.get("delta_gmin")
        delta = sum(Fraction(1, d) for d in ds)
        if gmin is not None and delta + Fraction(1, gmin) <= 1:
            problems.append(f"{c} violates delta_gmin {gmin}")
        if not _box_ok(kind, cfg, twigs, ds):
            problems.append(f"{c} lies outside the box")
    if keys != sorted(keys):
        problems.append("candidates are not in canonical order")
    return problems


def solution_problems(cfg: dict, sols) -> list[str]:
    from dgk.predicates import BoundaryCandidate, evaluate_predicates
    from gen import ref_d

    problems = []
    wanted = {tuple(x) for x in cfg["eshapes"]}
    for s in sols:
        report = evaluate_predicates(
            BoundaryCandidate(s.b, (s.t1, s.t2, s.t3), s.eshape),
            group_order_mode=cfg["group_order_mode"],
        )
        failing = [p for p in cfg["predicates"] if not report.entries[p][0]]
        if failing:
            problems.append(f"solution {s.to_dict()} fails {failing}")
        if (s.eshape.key(), s.eshape.epsilon) not in wanted:
            problems.append(f"solution with unrequested shape {s.eshape.key()}")
        if max(ref_d(s.t1), ref_d(s.t2)) > cfg["twig_d_max"]:
            problems.append(f"solution twigs exceed twig_d_max: {s.to_dict()}")
    keys = [s.sort_key() for s in sols]
    if keys != sorted(keys):
        problems.append("solutions are not in canonical order")
    return problems


def explore_round(ex: Explorer, variants: list[dict], tally: Tally) -> float:
    wall = 0.0
    for variant in variants:
        name = variant["search"]
        cfg = ex.config(variant)
        try:
            t0 = time.perf_counter()
            got = ex.run(name, cfg)
            wall += time.perf_counter() - t0
        except Exception as exc:
            tally.record([f"{variant}: {type(exc).__name__}: {exc}"])
            continue
        problems, count = ex.check(name, cfg, got)
        tally.record(problems)
        if ex.tracer.active:
            ex.tracer.counters["search.candidates"] += count
    return wall


# ---------------------------------------------------------------------------
# queries


class Querier:
    """Point calls on fresh inputs, each timed alone and checked after."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.shapes: dict = {}

    def setup(self) -> None:
        from dgk.barks import eshape_catalog

        self.shapes = {(s.key(), s.epsilon): s for s in eshape_catalog(12)}
        # passes are counted against the solver's default predicate list
        self.tracer.predicate_names = SOLVER_PREDICATES

    def prepare(self, q: dict):
        """(span name or None, zero-argument call, check of its result).

        A span name is given only where the benchmark must record the span
        itself; wrapped functions record their own."""
        import contextlib
        import io
        import json
        from fractions import Fraction

        from dgk import barks, chains, cli, pairs, predicates, ruling
        from dgk.graphs import Fork
        import gen

        kind = q["kind"]
        ws = tuple(q.get("chain", ()))
        problems: list[str] = []

        def expect(ok: bool, what: str) -> None:
            if not ok:
                problems.append(f"{kind} {q}: {what}")

        if "fork" in q:
            fb, ft = q["fork"]["b"], tuple(tuple(t) for t in q["fork"]["twigs"])
        if kind == "d":
            def check(r):
                expect(r == gen.ref_d(ws), f"d={r}")
            return "chains.d", lambda: chains.d(ws), check, problems
        if kind == "invariants":
            def check(r):
                dd = gen.ref_d(ws)
                expect(
                    (r.d, r.d_prime, r.e, r.e_tilde, r.delta)
                    == (dd, gen.ref_d(ws[1:]), gen.ref_e(ws), gen.ref_e(ws[::-1]), Fraction(1, dd)),
                    f"invariants {r}",
                )
            return "chains.invariants", lambda: chains.invariants(ws), check, problems
        if kind == "chain_from_e":
            x = gen.ref_e(ws)

            def check(r):
                expect(tuple(r) == ws, f"chain_from_e(e(T)) = {r}")
            return "chains.chain_from_e", lambda: chains.chain_from_e(x), check, problems
        if kind == "adjoint_chain":
            def check(r):
                expect(
                    all(w >= 2 for w in r) and gen.ref_e(ws) + gen.ref_e(tuple(r)) == 1,
                    f"e(T) + e(adjoint) != 1 for {r}",
                )
            return "chains.adjoint_chain", lambda: chains.adjoint_chain(ws), check, problems
        if kind == "bark_chain":
            def check(r):
                expect(
                    r.bk_square == gen.ref_chain_bark_square(ws) and len(r.coefficients) == len(ws),
                    f"Bk^2 {r.bk_square}",
                )
            return "barks.bark_chain", lambda: barks.bark_chain(ws), check, problems
        if kind == "bark_one_sided":
            def check(r):
                dd = gen.ref_d(ws)
                want = tuple(Fraction(gen.ref_d(ws[i + 1:]), dd) for i in range(len(ws)))
                expect(
                    tuple(r.coefficients) == want and r.bk_square == -gen.ref_e(ws),
                    "one-sided bark",
                )
            return "barks.bark_one_sided", lambda: barks.bark_one_sided(ws), check, problems
        if kind == "bark_fork":
            fork = Fork(fb, ft)

            def check(r):
                expect(
                    r.bk_square == gen.ref_fork_bark_square(fb, ft)
                    and len(r.coefficients) == 1 + sum(map(len, ft)),
                    f"fork Bk^2 {r.bk_square}",
                )
            return "barks.bark_fork", lambda: barks.bark_fork(fork), check, problems
        if kind == "group_order":
            graph = Fork(fb, ft) if "fork" in q else ws
            want = gen.ref_group_order(fb, ft) if "fork" in q else gen.ref_d(ws)

            def check(r):
                expect(r == want, f"|G|={r}, want {want}")
            return "barks.group_order", lambda: barks.group_order(graph), check, problems
        if kind in ("reconstruct_fiber", "pairs_from_fiber"):
            seq = tuple(tuple(p) for p in q["pairs"])
            if kind == "reconstruct_fiber":
                def check(tree):
                    with self.tracer.paused():
                        back = pairs.pairs_from_fiber(tree).pairs
                    expect(back == seq, f"pairs_from_fiber gives {back}")
                    expect(fiber_is_numerically_trivial(tree), "F.C != 0")
                return None, lambda: pairs.reconstruct_fiber(seq), check, problems
            with self.tracer.paused():
                tree = pairs.reconstruct_fiber(seq)

            def check(r):
                expect(r.pairs == seq, f"pairs_from_fiber gives {r.pairs}")
            return None, lambda: pairs.pairs_from_fiber(tree), check, problems
        if kind == "solve_two_fiber":
            t1, t2 = tuple(q["t1"]), tuple(q["t2"])
            shape = self.shapes[tuple(q["shape"])]

            def check(sols):
                with self.tracer.paused():
                    for s in sols:
                        rep = predicates.evaluate_predicates(
                            predicates.BoundaryCandidate(s.b, (s.t1, s.t2, s.t3), shape)
                        )
                        expect(
                            (s.t1, s.t2) == (t1, t2) and rep.passes(SOLVER_PREDICATES),
                            f"solution {s.to_dict()}",
                        )
                keys = [s.sort_key() for s in sols]
                expect(keys == sorted(keys), "solutions out of order")
            return None, lambda: ruling.solve_two_fiber(t1, t2, shape), check, problems
        if kind == "evaluate_predicates":
            twigs = tuple(tuple(t) for t in q["twigs"])
            shape = self.shapes[tuple(q["shape"])]
            cand = predicates.BoundaryCandidate(q["b"], twigs, shape)
            b = q["b"]
            delta = sum(Fraction(1, gen.ref_d(t)) for t in twigs)
            et = sum(gen.ref_e(t[::-1]) for t in twigs)
            size = shape.size + 1 + sum(map(len, twigs))
            k = shape.ke + (b - 2) + sum(w - 2 for t in twigs for w in t)

            def check(r):
                e = r.entries
                expect(set(e) == set(gen.ALL_PREDICATES), f"predicates {sorted(e)}")
                expect(e["noether"][0] == (size == 7 + shape.epsilon + k), "noether")
                expect(e["zar_delta"][0] == (delta < 1), "zar_delta")
                expect(e["zar_b"][0] == (b in (1, 2) and b < et), "zar_b")
            mode = q["group_order_mode"]
            return None, lambda: predicates.evaluate_predicates(cand, group_order_mode=mode), check, problems
        # a share of the calls goes through the command line front end
        verb = q["verb"]
        if verb == "group":
            text = json.dumps({"b": fb, "twigs": [gen.bracket(t) for t in ft]})
            argv = ["--json", "compute", "group", text]
            want = {"group": gen.fraction_text(gen.ref_group_order(fb, ft))}
        elif verb == "pairs":
            argv = ["--json", "pairs", "reconstruct"] + [str(x) for p in q["pairs"] for x in p]
            want = None
        else:
            argv = ["--json", "compute", verb, gen.bracket(ws)]
            value = {
                "d": lambda: gen.ref_d(ws),
                "e": lambda: gen.ref_e(ws),
                "bark": lambda: gen.ref_chain_bark_square(ws),
            }[verb]()
            want = {verb: gen.fraction_text(Fraction(value))}
        out = io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)

        def check(code):
            expect(code == 0, f"exit code {code}")
            payload = json.loads(out.getvalue())
            if verb == "bark":
                payload = {"bark": payload["bk_square"]}
            if want is not None:
                expect(payload == want, f"{payload} != {want}")
            else:
                expect(cli_fiber_is_numerically_trivial(payload), f"F.C != 0 in {payload}")
        return None, call, check, problems


SOLVER_PREDICATES = (
    "w2_delta_g", "noether", "bmy", "eps2_ii", "eps2_iii", "eps2_iv",
    "zar_b", "zar_delta", "zar_bk2", "square",
)


def _trivial(weights, mults, adj) -> bool:
    """F.C = 0 for every component C of a fiber F = sum m_i C_i."""
    return all(
        -weights[v] * mults[v] + sum(mults[u] for u in adj[v]) == 0
        for v in range(len(weights))
    )


def fiber_is_numerically_trivial(tree) -> bool:
    return _trivial(tree.weights, tree.mults, tree.adj)


def cli_fiber_is_numerically_trivial(payload: dict) -> bool:
    import json

    if payload["chain"] is not None:
        items = [item.split(":") for item in payload["fiber"][1:-1].split(",")]
        ws = [int(w.rstrip("*")) for w, _ in items]
        ms = [int(m) for _, m in items]
        adj = [[u for u in (v - 1, v + 1) if 0 <= u < len(ws)] for v in range(len(ws))]
        return _trivial(ws, ms, adj)
    fiber = json.loads(payload["fiber"])
    ws = [n["weight"] for n in fiber["nodes"]]
    ms = [n["mult"] for n in fiber["nodes"]]
    adj = [[] for _ in ws]
    for a, b in fiber["edges"]:
        adj[a].append(b)
        adj[b].append(a)
    return _trivial(ws, ms, adj)


def query_batch(qr: Querier, batch: list[dict], first_id: int, tally: Tally, latencies) -> float:
    tracer = qr.tracer
    wall = 0.0
    for i, q in enumerate(batch):
        tracer.run_id = first_id + i
        with tracer.paused():
            span, call, check, problems = qr.prepare(q)
        try:
            if span is None:
                t0 = time.perf_counter()
                result = call()
                dt = time.perf_counter() - t0
            else:
                with tracer.span(span):
                    t0 = time.perf_counter()
                    result = call()
                    dt = time.perf_counter() - t0
        except Exception as exc:
            tally.record([f"{q}: {type(exc).__name__}: {exc}"])
            continue
        wall += dt
        latencies.append(dt)
        with tracer.paused():
            try:
                check(result)
            except Exception as exc:
                problems.append(f"check of {q} raised {type(exc).__name__}: {exc}")
        tally.record(problems)
    return wall


# ---------------------------------------------------------------------------
# driver


def paired(run_unit, units, tracer) -> float:
    """Run each unit untraced and traced, alternating which goes first;
    returns the mean traced minus untraced time of a unit."""
    overhead = 0.0
    for i, unit in enumerate(units):
        times = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.active = traced
            times[traced] = run_unit(unit, i)
        overhead += times[True] - times[False]
    tracer.active = False
    return overhead / len(units)


def main() -> None:
    root, workload = sys.argv[1], sys.argv[2]
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import dgk

    if workload == "queries":
        import dgk.cli
    import_s = time.perf_counter() - t0

    import json
    import resource
    from itertools import islice
    from pathlib import Path

    import gen
    from tracing import Tracer, assert_unwrapped

    if not os.path.realpath(dgk.__file__).startswith(src + os.sep):
        raise SystemExit(f"dgk was imported from {dgk.__file__}, not from {src}")
    spec = json.loads(sys.argv[3])
    mode, seed, seconds, trace = spec["mode"], spec["seed"], spec["seconds"], spec["trace"]
    tracer = Tracer()
    tally = Tally()
    out: dict = {"setup_s": import_s}
    if trace:
        tracer.install()
        tracer.active = True

    if workload == "paper-cold":
        if mode == "pass":
            out["units"] = [paper_pass(tracer, tally)]
    elif workload == "explore-warm":
        t0 = time.perf_counter()
        ex = Explorer(tracer)
        ex.setup()
        out["setup_s"] = import_s + time.perf_counter() - t0
        with tracer.paused():
            ex.load_shapes()
        for name, cfg, got in ex.warm:
            tally.record(ex.check(name, cfg, got)[0])
        rounds = gen.explore_rounds(seed)
        if mode == "main" and trace:
            def unit(variants, i):
                tracer.run_id = i
                return explore_round(ex, variants, tally)
            out["overhead_s"] = paired(unit, list(islice(rounds, spec["traced_units"])), tracer)
        elif mode == "main":
            out["units"] = timed_loop(
                lambda: explore_round(ex, next(rounds), tally), seconds, spec["min_units"]
            )
    elif workload == "queries":
        t0 = time.perf_counter()
        qr = Querier(tracer)
        qr.setup()
        out["setup_s"] = import_s + time.perf_counter() - t0
        batches = gen.query_batches(seed)
        latencies: list[float] = []
        if mode == "main" and trace:
            def unit(batch, i):
                return query_batch(qr, batch, i * len(batch), tally, [])
            out["overhead_s"] = paired(unit, list(islice(batches, spec["traced_units"])), tracer)
        elif mode == "main":
            out["units"] = [
                query_batch(qr, next(batches), i * gen.BATCH_SIZE, tally, latencies)
                for i in range(spec["batches"])
            ]
            out["latencies"] = latencies
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    if trace:
        tracer.active = False
        tracer.restore()
        out["metrics"] = tracer.metrics()
        out["missing_targets"] = tracer.missing
        tracer.dump(Path(root) / ".perfbench_out" / f"spans-{workload}-seed{seed}.json")
    assert_unwrapped()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    print(json.dumps(out))


def timed_loop(unit, seconds: float, min_units: int) -> list[float]:
    """Unit times, running units until ``seconds`` have passed and at least
    ``min_units`` have run."""
    times = []
    start = time.perf_counter()
    while len(times) < min_units or time.perf_counter() - start < seconds:
        times.append(unit())
    return times


if __name__ == "__main__":
    main()
