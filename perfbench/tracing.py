"""In-memory spans around the public functions of each dgk layer.

A wrapper is installed at the module attribute its callers look up (search.py
calls ``evaluate_predicates`` through its own module globals, so that is the
attribute wrapped).  The hot scalar functions ``chains.d``, ``e`` and
``e_tilde`` are never wrapped: a search calls them about a million times, so
a wrapper would mostly measure itself.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  A class path "module:Class" wraps a method.
TARGETS = (
    ("dgk.search", "run_search", "search.run_search"),
    ("dgk.cli", "run_search", "search.run_search"),
    ("dgk.search", "search_final_bounds", "search.final-bounds"),
    ("dgk.search", "search_xy", "search.xy"),
    ("dgk.search", "search_k_nonpositive", "search.knonpos"),
    ("dgk.search", "search_fiber_pairs", "search.fiber-pairs"),
    ("dgk.search", "catalog_index", "barks.catalog_index"),
    ("dgk.search", "eshape_catalog", "barks.eshape_catalog"),
    ("dgk.barks", "eshape_catalog", "barks.eshape_catalog"),
    ("dgk.search", "evaluate_predicates", "predicates.evaluate"),
    ("dgk.ruling", "evaluate_predicates", "predicates.evaluate"),
    ("dgk.predicates", "evaluate_predicates", "predicates.evaluate"),
    ("dgk.search", "solve_two_fiber", "ruling.solve_two_fiber"),
    ("dgk.ruling", "solve_two_fiber", "ruling.solve_two_fiber"),
    ("dgk.cli", "solve_two_fiber", "ruling.solve_two_fiber"),
    ("dgk.ruling", "reconstruct_fiber", "pairs.reconstruct_fiber"),
    ("dgk.pairs", "reconstruct_fiber", "pairs.reconstruct_fiber"),
    ("dgk.cli", "reconstruct_fiber", "pairs.reconstruct_fiber"),
    ("dgk.pairs", "pairs_from_fiber", "pairs.pairs_from_fiber"),
    ("dgk.cli", "pairs_from_fiber", "pairs.pairs_from_fiber"),
    ("dgk.barks", "exact_solve", "graphs.exact_solve"),
    ("dgk.graphs:WeightedTree", "discriminant", "graphs.discriminant"),
    ("dgk.chains", "oriented_chains_with_d", "chains.oriented_chains_with_d"),
    ("dgk.cli", "main", "cli.main"),
)
NEVER_WRAPPED = (("dgk.chains", "d"), ("dgk.chains", "e"), ("dgk.chains", "e_tilde"))
LAYERS = ("graphs", "chains", "barks", "pairs", "ruling", "predicates", "search", "cli")
MARK = "__perfbench_span__"


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans (name, start, end, parent index, run id) plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.run_id = 0
        self.active = False
        # predicate list of the search or query in progress, for pass counts
        self.predicate_names: tuple[str, ...] = ()
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        """The body of every wrapper."""
        if not self.active:
            return fn(*args, **kwargs)
        with self.span(name):
            result = fn(*args, **kwargs)
        self._count(name, result)
        return result

    @contextmanager
    def span(self, name: str):
        """One span, around a wrapped call or a call the benchmark makes."""
        if not self.active:
            yield
            return
        span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.run_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    @contextmanager
    def paused(self):
        """Output checks call dgk too; keep them out of the trace."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _count(self, name: str, result) -> None:
        c = self.counters
        if name == "predicates.evaluate":
            entries = result.entries
            for pred, (ok, _) in entries.items():
                if not ok:
                    c["predicates.fail." + pred] += 1
            if all(entries[p][0] for p in self.predicate_names if p in entries):
                c["predicates.evaluate.passes"] += 1
        elif name == "ruling.solve_two_fiber":
            c["ruling.solve_two_fiber.solutions"] += len(result)
        elif name == "barks.eshape_catalog":
            c["barks.catalog_shapes"] = max(c["barks.catalog_shapes"], len(result))

    # -- wrappers ----------------------------------------------------------

    def install(self) -> None:
        # Import every target module before wrapping anything: a module that
        # does "from .search import run_search" must bind the original.
        found = []
        for path, attr, name in TARGETS:
            try:
                owner = _owner(path)
                found.append((owner, attr, name, getattr(owner, attr)))
            except (ImportError, AttributeError):
                self.missing.append(f"{path}.{attr}")
        for owner, attr, name, orig in found:
            setattr(owner, attr, self._wrap(name, orig))
            self._installed.append((owner, attr, orig))

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        setattr(traced, MARK, name)
        return traced

    def restore(self) -> None:
        """Put every original back, newest first, and check that it is back."""
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        for owner, attr, orig in self._installed:
            if getattr(owner, attr) is not orig:
                raise RuntimeError(f"{attr} was not restored")
        self._installed.clear()
        assert_unwrapped()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Inclusive time and count per span name, self time per layer."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                out[f"{layer}.self_s"] += end - start - child[i]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            # inclusive time counts a span only when no ancestor has its name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + end - start
        out.update(self.counters)
        calls = out.get("predicates.evaluate.calls", 0)
        out["predicates.pass_ratio"] = (
            out.get("predicates.evaluate.passes", 0) / calls if calls else 0.0
        )
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "run")
        with path.open("w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def assert_unwrapped() -> None:
    """Raise if any dgk attribute still holds a benchmark wrapper."""
    for path, attr, _ in TARGETS:
        try:
            value = getattr(_owner(path), attr)
        except (ImportError, AttributeError):
            continue
        if hasattr(value, MARK):
            raise RuntimeError(f"{path}.{attr} is still wrapped")
    for path, attr in NEVER_WRAPPED:
        if hasattr(getattr(_owner(path), attr, None), MARK):
            raise RuntimeError(f"{path}.{attr} is wrapped")
