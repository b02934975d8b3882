"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that a seed always gives the same inputs, that tracing leaves no
wrapper behind, that a tiny run of each workload completes with every output
correct, and that the benchmark fails without the dgk sources.  Takes about
a minute; it is not part of the repository's test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (first: it moves byte code out of the source tree)
import gen  # noqa: E402
import tracing  # noqa: E402


def inputs_digest(seed: int) -> str:
    return gen.digest({
        "explore": list(islice(gen.explore_rounds(seed), 3)),
        "queries": list(islice(gen.query_batches(seed), 3)),
    })


class Generation(unittest.TestCase):
    def test_same_seed_same_bytes_in_other_processes(self):
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import selftest;"
            "print(selftest.inputs_digest(11))"
        )
        digests = {inputs_digest(11)}
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", code, str(HERE)],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.add(out.stdout.strip())
        self.assertEqual(len(digests), 1)

    def test_seeds_differ(self):
        self.assertNotEqual(inputs_digest(1), inputs_digest(2))

    def test_variants_keep_index_predicates_and_boxes(self):
        for variant in next(gen.explore_rounds(3)):
            self.assertTrue(set(gen.INDEX_PREDICATES) <= set(variant["predicates"]))
            box = gen.BOXES[variant["search"]][variant["level"]]
            self.assertEqual({k: variant[k] for k in box}, box)

    def test_reference_arithmetic(self):
        self.assertEqual(gen.ref_d((3, 2)), 5)
        self.assertEqual(gen.ref_e((2, 3)), gen.Fraction(3, 5))
        self.assertEqual(gen.parse_bracket("[3,(2),4]"), (3, 2, 2, 4))
        self.assertEqual(gen.ref_group_order(2, ((2,), (2,), (3,))), 24)


class Wrappers(unittest.TestCase):
    def test_install_traces_and_restore_unwraps(self):
        import dgk.cli
        import dgk.search

        before = dgk.search.evaluate_predicates
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.missing, [])
            self.assertTrue(hasattr(dgk.search.evaluate_predicates, tracing.MARK))
            self.assertFalse(hasattr(dgk.chains.d, tracing.MARK))
            tracer.active = True
            with open(os.devnull, "w") as sink:
                saved, sys.stdout = sys.stdout, sink
                try:
                    dgk.cli.main(["--json", "pairs", "reconstruct", "14", "3"])
                finally:
                    sys.stdout = saved
            tracer.active = False
        finally:
            tracer.restore()
        self.assertIs(dgk.search.evaluate_predicates, before)
        tracing.assert_unwrapped()
        names = {s[0] for s in tracer.spans}
        self.assertEqual(names, {"cli.main", "pairs.reconstruct_fiber"})
        metrics = tracer.metrics()
        self.assertEqual(metrics["cli.main.calls"], 1)
        self.assertLessEqual(metrics["cli.self_s"], metrics["cli.main.s"])


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class Smoke(unittest.TestCase):
    """Tiny runs: one child process per workload, plus the full command on
    the fastest workload, traced and untraced."""

    def child(self, workload: str, mode: str, trace: bool = False) -> dict:
        args = argparse.Namespace(seed=5, seconds=0.1, workload=workload)
        spec = dict(run.spec_for(args, mode, trace), traced_units=1, min_units=1)
        return run.child(workload, **spec)

    def test_each_workload_once(self):
        for workload, mode in (("paper-cold", "pass"), ("explore-warm", "main"), ("queries", "main")):
            with self.subTest(workload=workload):
                out = self.child(workload, mode)
                self.assertGreater(out["attempted"], 0)
                self.assertEqual(out["failed"], 0, out["errors"])
                self.assertGreater(min(out["units"]), 0)

    def test_traced_child(self):
        out = self.child("explore-warm", "main", trace=True)
        self.assertEqual(out["failed"], 0, out["errors"])
        self.assertEqual(out["missing_targets"], [])
        self.assertEqual(out["metrics"]["barks.catalog_shapes"], 39811)

    def test_command_output_contract(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", "queries", "--seed", "3", "--seconds", "1", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in declared[key]})

    def test_fails_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "queries", "--seed", "1", "--seconds", "1", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
