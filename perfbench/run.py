"""The dgk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass or probe is a fresh,
single-threaded Python process (perfbench/child.py) that imports dgk from
src/.  Workloads, metrics and bounds are declared in BENCHMARK.json; the
last line of standard output is the result as one JSON object.  Spans of a
traced run go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.pycache_prefix = str(OUT / "pycache")

WORKLOADS = ("paper-cold", "explore-warm", "queries")
# Set-ups measured per run; setup_s is their median.  The explore-warm set-up
# builds the whole catalog, so it is repeated fewer times.
SETUPS = {"paper-cold": 5, "explore-warm": 3, "queries": 5}
# Units per run, at the least, even when --seconds has passed: the host's
# speed drifts over tens of seconds, and a longer run gives a steadier median.
MIN_UNITS = {"paper-cold": 4, "explore-warm": 5}
# queries instead makes a fixed number of batches per second of --seconds:
# chains.d caches every chain it sees, so peak RSS grows with each call, and
# runs compare like with like only when they make the same calls.
QUERY_BATCHES_PER_SECOND = 8
# Traced runs measure a fixed amount of work, so that their counts repeat
# exactly for a seed: one cold pass, set-up plus two rounds, or fifty batches.
TRACED_UNITS = {"explore-warm": 2, "queries": 50}
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child(workload: str, **spec) -> dict:
    """Run one fresh process and return its JSON result."""
    # Byte code is cached, as for a user, but under .perfbench_out; a fixed
    # hash seed keeps set and dict order the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(ROOT), workload, json.dumps(spec)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} {spec['mode']} process exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spec_for(args, mode: str, trace: bool = False) -> dict:
    return {
        "mode": mode,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "min_units": MIN_UNITS.get(args.workload, 1),
        "batches": max(1, round(QUERY_BATCHES_PER_SECOND * args.seconds)),
        "traced_units": TRACED_UNITS.get(args.workload, 1),
    }


def untraced(args) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics; returns (metrics, child results, summary)."""
    start = perf_counter()
    if args.workload == "paper-cold":
        runs = []
        while len(runs) < MIN_UNITS["paper-cold"] or perf_counter() - start < args.seconds:
            runs.append(child(args.workload, **spec_for(args, "pass")))
        units = [r["units"][0] for r in runs]
        rss = statistics.median(r["rss_mb"] for r in runs)
    else:
        runs = [child(args.workload, **spec_for(args, "main"))]
        units = runs[0]["units"]
        rss = runs[0]["rss_mb"]
    # each pass or main process set up once; probes only set up
    results = runs + [
        child(args.workload, **spec_for(args, "setup"))
        for _ in range(SETUPS[args.workload] - len(runs))
    ]
    setups = [r["setup_s"] for r in results]
    metrics = {
        "wall_s": statistics.median(units),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    q1, _, q3 = statistics.quantiles(units, n=4) if len(units) > 1 else units * 3
    info = {"units": len(units), "unit_q1_s": q1, "unit_q3_s": q3, "setups": len(setups)}
    if args.workload == "queries":
        lat = sorted(runs[0]["latencies"])
        cuts = statistics.quantiles(lat, n=100)
        info.update(
            op_p50_ms=1000 * statistics.median(lat),
            op_p99_ms=1000 * cuts[98],
            ops=len(lat),
            ops_above_p99=sum(1 for x in lat if x > cuts[98]),
        )
    return metrics, results, info


def traced(args) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics from a traced run, plus the tracing overhead."""
    if args.workload == "paper-cold":
        # untraced passes before and after the traced one, against drift
        start = perf_counter()
        plain = [child(args.workload, **spec_for(args, "pass"))]
        traced_pass = child(args.workload, **spec_for(args, "pass", trace=True))
        while len(plain) < 2 or perf_counter() - start < args.seconds:
            plain.append(child(args.workload, **spec_for(args, "pass")))
        overhead = traced_pass["units"][0] - statistics.median(r["units"][0] for r in plain)
        results = [traced_pass] + plain
    else:
        traced_pass = child(args.workload, **spec_for(args, "main", trace=True))
        overhead = traced_pass["overhead_s"]
        results = [traced_pass]
    metrics = dict(traced_pass["metrics"], **{"trace.overhead_s": overhead})
    return metrics, results, {"missing_targets": traced_pass["missing_targets"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dgk" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no dgk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads(spec_path.read_text())
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    OUT.mkdir(exist_ok=True)
    try:
        metrics, results, info = (traced if args.trace else untraced)(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for message in r["errors"]:
            print(f"FAILED: {message}", file=sys.stderr)
    info["failed_ratio"] = failed / attempted if attempted else 1.0
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in info.items()))
    out = {
        m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
