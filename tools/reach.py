"""How far dgk reaches, as ladders of rungs, one fresh process per rung.

    python tools/reach.py --tree LABEL=SRC --tree LABEL=SRC [--out FILE]

A tree is a ``src`` directory that holds the ``dgk`` package.  The two
trees, say the parent commit's (extracted with ``git archive``) and this
one's, take turns at every rung.

The one ladder so far is the catalog: at each cap of ``CATALOG_CAPS`` a fresh
process builds ``barks.eshape_catalog(cap)`` and reports the shape count, the
build seconds, the peak RSS of the process and how much the build raised it,
each number the median of ``RUNS`` processes.  One more process per tree and
cap runs ``dgk --json enumerate eshapes --max-size cap`` and the SHA-256 of
its output is recorded, so a rung shows whether the trees agree.  A process
past ``TIMEOUT_S`` records its tree's rung, and every higher one, as not
reached.  The search ladders (ROADMAP item 17) are to be added as rows of
this script.  The ladder so far is written as JSON to ``--out``
(``BENCH_reach.json``) after every rung.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOG_CAPS = (12, 30, 60, 100)
RUNS = 3
TIMEOUT_S = 600

# argv: src, cap.  ru_maxrss is in KiB on Linux.
CATALOG_CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from dgk.barks import eshape_catalog
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
shapes = eshape_catalog(int(sys.argv[2]))
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"shapes": len(shapes), "build_s": seconds,
                  "peak_rss_mb": peak / 1024, "build_rss_mb": (peak - before) / 1024}))
"""

# argv: src, then the command line of dgk
CLI_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from dgk.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=TIMEOUT_S, check=False,
    )
    if proc.returncode:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


NOT_REACHED = {"reached": False, "timeout_s": TIMEOUT_S}


def catalog_rung(trees: dict[str, str], cap: int) -> dict:
    """One rung of the catalog ladder for every tree, the trees in turn; a
    tree with a process past ``TIMEOUT_S`` is recorded as not reached."""
    found: dict[str, list[dict]] = {label: [] for label in trees}
    rung: dict = {"cap": cap}
    for i in range(RUNS):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for label in order:
            if label in rung:
                continue
            try:
                found[label].append(json.loads(run(CATALOG_CHILD, trees[label], str(cap))))
            except subprocess.TimeoutExpired:
                rung[label] = NOT_REACHED
    for label, src in trees.items():
        if label in rung:
            continue
        try:
            out = run(CLI_CHILD, src, "--json", "enumerate", "eshapes", "--max-size", str(cap))
        except subprocess.TimeoutExpired:
            rung[label] = NOT_REACHED
            continue
        shapes = {r["shapes"] for r in found[label]}
        if len(shapes) != 1:
            raise RuntimeError(f"{label} built {sorted(shapes)} shapes at cap {cap}")
        rung[label] = {
            "reached": True,
            "shapes": shapes.pop(),
            **{key: round(statistics.median(r[key] for r in found[label]), 4)
               for key in ("build_s", "peak_rss_mb", "build_rss_mb")},
            "enumerate_sha256": hashlib.sha256(out.encode()).hexdigest(),
        }
    return rung


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC",
                    help="a labelled src directory; give two")
    ap.add_argument("--out", default=str(ROOT / "BENCH_reach.json"))
    args = ap.parse_args()
    if len(args.tree) != 2 or not all("=" in t for t in args.tree):
        ap.error("give two trees, each as --tree LABEL=SRC")
    trees = {label: str(Path(src).resolve()) for label, src in (t.split("=", 1) for t in args.tree)}
    for src in trees.values():  # compile the byte code before any timed run
        run("import sys; sys.path.insert(0, sys.argv[1]); import dgk.cli", src)
    result = {
        "command": "python tools/reach.py --tree LABEL=SRC --tree LABEL=SRC",
        "trees": list(trees),
        "runs": RUNS,
        "host": f"{platform.platform()}, {os.cpu_count()} cores,"
                f" Python {platform.python_version()}",
        "catalog": [],
    }
    reaching = dict(trees)
    for cap in CATALOG_CAPS:
        found = catalog_rung(reaching, cap)
        rung = {"cap": cap, **{label: found.get(label, NOT_REACHED) for label in trees}}
        reaching = {label: src for label, src in reaching.items() if rung[label]["reached"]}
        result["catalog"].append(rung)
        print(json.dumps(rung), flush=True)
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
