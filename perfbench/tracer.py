"""Span tracing of the cosphere layers, installed from outside the package.

Every public module-level function of a layer module is replaced by a
wrapper that records a span (name, start, end, parent).  The replacement
is made in the defining module and in every ``cosphere`` module that bound
the same function object by name (``checks`` does ``from .phase import
...``, ``strata`` imports ``validate`` and friends from ``poset``), so no
call path escapes the wrapper.  The sympy normal-form routines that
``torus`` binds are wrapped as ``torus.hnf`` and ``torus.snf``.

``fixtures.Poly.__call__`` runs hundreds of thousands of times per pass, so
it is not given a span: its calls are counted and its time is charged to
the ``fixtures`` layer and taken out of the enclosing span's self time.

Span start and end are process CPU times in ns, the clock ``run_s`` uses.
Spans stay in memory; :meth:`Tracer.write` dumps them once the pass is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import process_time_ns

LAYERS = ("torus", "poset", "strata", "phase", "fixtures", "reeb", "checks", "cli")

# span name -> (counter name, function of the call's result)
RESULT_COUNTERS = {
    "strata.cl_stratification": (
        ("strata.pieces", lambda r: len(r.cl_strata)),
        ("strata.frontier_pairs", lambda r: len(r.frontier)),
    ),
    "phase.sample_zero_level": (("phase.points", len),),
    "reeb.flow_rk4": (("reeb.rk4_steps", lambda r: len(r.times) - 1),),
}

# per-layer metric -> ("time" or "calls", span name); times are inclusive
SPAN_METRICS = {
    "torus.build_s": ("time", "torus.build_isotropy_poset"),
    "torus.hnf_calls": ("calls", "torus.hnf"),
    "torus.hnf_s": ("time", "torus.hnf"),
    "torus.snf_calls": ("calls", "torus.snf"),
    "torus.stabilizer_calls": ("calls", "torus.stabilizer_of_support"),
    "poset.validate_calls": ("calls", "poset.validate"),
    "poset.validate_s": ("time", "poset.validate"),
    "poset.closure_s": ("time", "poset.transitive_closure"),
    "poset.hasse_s": ("time", "poset.hasse_edges"),
    "strata.cl_s": ("time", "strata.cl_stratification"),
    "phase.sample_s": ("time", "phase.sample_zero_level"),
    "phase.invariants_calls": ("calls", "phase.invariants"),
    "phase.invariants_s": ("time", "phase.invariants"),
    "phase.momentum_s": ("time", "phase.momentum"),
    "phase.classify_s": ("time", "phase.classify_point"),
    "phase.membership_calls": ("calls", "phase.membership_candidates"),
    "phase.membership_s": ("time", "phase.membership_candidates"),
    "reeb.exact_s": ("time", "reeb.flow_exact"),
    "reeb.closed_s": ("time", "reeb.flow_invariants_closed"),
    "reeb.rk4_s": ("time", "reeb.flow_rk4"),
    "reeb.conservation_s": ("time", "reeb.conservation_report"),
}


class Tracer:
    """Holds the spans and counters of one traced pass."""

    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index or -1, leaf time inside it]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.leaf_ns = 0
        self.top_leaf_ns = 0
        self._cache_before = None

    def _span(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        hooks = RESULT_COUNTERS.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, 0])
            stack.append(sid)
            start = process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time_ns()
                stack.pop()
                spans[sid][1] = start
                spans[sid][2] = end
            for counter, measure in hooks:
                counters[counter] += measure(result)
            return result

        return wrapper

    def _leaf(self, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = process_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = process_time_ns() - start
                counters["fixtures.poly_evals"] += 1
                tracer.leaf_ns += took
                if stack:
                    spans[stack[-1]][4] += took
                else:
                    tracer.top_leaf_ns += took

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions in every loaded ``cosphere`` module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cosphere" or name.startswith("cosphere.")]
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"cosphere.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replacements[id(obj)] = self._span(f"{layer}.{attr}", obj)
        torus = sys.modules["cosphere.torus"]
        for attr, span in (("hermite_normal_form", "torus.hnf"),
                           ("invariant_factors", "torus.snf")):
            obj = getattr(torus, attr, None)
            if obj is not None:
                replacements[id(obj)] = self._span(span, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

        poly = getattr(sys.modules["cosphere.fixtures"], "Poly", None)
        if poly is not None:
            poly.__call__ = self._leaf(poly.__call__)
        self._cache_before = _stabilizer_cache_info()

    def layer_metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass; self times sum to ``run_s``."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        inclusive_ns: Counter = Counter()
        calls: Counter = Counter()
        covered_ns = self.top_leaf_ns
        for sid, (name, start, end, parent, leaf) in enumerate(spans):
            took = end - start
            self_ns[name.split(".")[0]] += took - child_ns[sid] - leaf
            inclusive_ns[name] += took
            calls[name] += 1
            if parent < 0:
                covered_ns += took
        self_ns["fixtures"] += self.leaf_ns

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        out["bench.self_s"] = run_s - covered_ns / 1e9
        for metric, (kind, name) in SPAN_METRICS.items():
            out[metric] = inclusive_ns[name] / 1e9 if kind == "time" else calls[name]
        for counter in ("strata.pieces", "strata.frontier_pairs", "phase.points",
                        "reeb.rk4_steps", "fixtures.poly_evals"):
            out[counter] = self.counters[counter]
        out["torus.stabilizer_hit_ratio"] = _hit_ratio(
            self._cache_before, _stabilizer_cache_info()
        )
        return out

    def write(self, path) -> None:
        """Dump the spans as {"spans": [[name, start_ns, end_ns, parent], ...]}."""
        with open(path, "w") as fh:
            json.dump({"spans": [s[:4] for s in self.spans]}, fh, separators=(",", ":"))


def _stabilizer_cache_info():
    cached = getattr(sys.modules["cosphere.torus"], "_stabilizer_cached", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None


def _hit_ratio(before, after) -> float:
    """Hits over lookups of the stabilizer LRU cache during the pass."""
    if before is None or after is None:
        return 0.0
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return hits / lookups if lookups else 0.0
