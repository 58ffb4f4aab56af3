"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps each layer's public entry point (see :data:`HOOKS`)
while it is installed.  Every wrapped call is a frame on a stack; a layer's
self time is its frame's duration minus its child frames.  Frames of the
outer layers are also kept as spans in memory and written out at exit; the
hot inner layers (records, fetches, policy, writes) are only aggregated as
count and time, with no span per call.

Only calls on the thread that installed the tracer are recorded: work the
program hands to its own worker threads shows as time of the layer that
waits for it.
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
import time
from collections import defaultdict

#: ``(layer, owner path, attribute, kind)``.  Kinds: ``span`` records a
#: span per call; ``hot`` aggregates only; ``outer`` additionally passes
#: through calls made inside a frame of the same layer (recursion, and the
#: three program-compile entry points calling each other); ``opaque``
#: records nothing inside the frame; ``new`` counts a call as the layer only
#: when it returns a different object than the previous call did.
HOOKS = (
    ("service.submit", "repro.service.service:CitationService", "submit", "span"),
    ("api.parse", "repro.api.backends.relational:RelationalBackend", "parse", "span"),
    ("service.fingerprint", "repro.api.backends.relational:RelationalBackend", "fingerprint", "span"),
    ("analysis.analyze", "repro.core.engine:CitationEngine", "analyze", "span"),
    ("core.compile", "repro.core.engine:CitationEngine", "compile_plan", "span"),
    ("rewriting.search", "repro.rewriting.minicon:MiniConRewriter", "rewrite", "span"),
    ("query.program_compile", "repro.query.evaluator:QueryEvaluator", "compile", "span outer"),
    ("query.program_compile", "repro.query.evaluator:QueryEvaluator", "reduction_of", "span outer"),
    ("query.program_compile", "repro.query.evaluator:QueryEvaluator", "prelude_for", "span outer"),
    ("core.assembly", "repro.core.engine:CitationEngine", "execute_plan", "span"),
    ("query.join", "repro.query.evaluator:QueryEvaluator", "evaluate_with_bindings", "span"),
    ("rewriting.materialize", "repro.core.engine:CitationEngine", "view_relations", "span opaque new"),
    ("core.record", "repro.core.engine:CitationEngine", "citation_record", "hot"),
    ("core.record.fetch", "repro.core.citation_view:CitationView", "citation_for", "hot opaque"),
    ("core.policy", "repro.core.policy:CitationPolicy", "evaluate", "hot outer"),
    ("relational.write", "repro.relational.database:Database", "insert", "hot"),
    ("relational.write", "repro.relational.database:Database", "delete", "hot"),
)

#: ``CitationPolicy.aggregate`` is a dataclass field, not a method, so the
#: tracer wraps it on the engine's policy object instead of on the class.
AGGREGATE_LAYER = "core.policy"

_INHERITED = object()


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    return getattr(importlib.import_module(module_name), class_name)


class LayerTracer:
    """Frames, spans and per-layer aggregates of the traced ops of one run."""

    def __init__(self, engine) -> None:
        self.engine = engine
        #: layer -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: ``(op, id, parent id, layer, start s, duration s, self s)``
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [layer, id, child seconds]
        self._opaque = 0
        self._next_id = 0
        self._op = -1
        self._thread = threading.get_ident()
        self._origin = time.perf_counter()
        self._last_new: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped = [
            (owner, attribute, self._wrap(getattr(owner, attribute), layer, kind.split()))
            for layer, path, attribute, kind in HOOKS
            for owner in (_resolve(path),)
        ]

    # -- install / uninstall ----------------------------------------------------
    def install(self) -> None:
        # Seed the identity the ``new`` rule compares against: a mapping
        # built while the tracer was out is not this run's traced work.
        self._last_new["rewriting.materialize"] = self.engine.view_relations()
        for owner, attribute, traced in self._wrapped:
            self._patches.append((owner, attribute, owner.__dict__.get(attribute, _INHERITED)))
            setattr(owner, attribute, traced)
        policy = self.engine.policy
        self._patches.append((self.engine, "policy", policy))
        self.engine.policy = dataclasses.replace(
            policy, aggregate=self._wrap(policy.aggregate, AGGREGATE_LAYER, ["hot", "outer"])
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- frames -----------------------------------------------------------------
    def op(self, kind: str, index: int, call, *args):
        """Run one benchmark op as the root frame ``bench.<kind>``."""
        self._op = index
        return self._frame(f"bench.{kind}", frozenset({"span"}), call, args, {})

    def _wrap(self, original, layer: str, kinds: list[str]):
        kinds = frozenset(kinds)
        outer = "outer" in kinds
        stack = self._stack
        thread = self._thread
        get_ident = threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            if (
                tracer._opaque
                or get_ident() != thread
                or (outer and stack and stack[-1][0] == layer)
            ):
                return original(*args, **kwargs)
            return tracer._frame(layer, kinds, original, args, kwargs)

        traced.__wrapped__ = original
        return traced

    def _frame(self, layer: str, kinds: frozenset, call, args, kwargs):
        self._next_id += 1
        frame = [layer, self._next_id, 0.0]
        stack = self._stack
        parent = stack[-1] if stack else None
        opaque = "opaque" in kinds
        stack.append(frame)
        self._opaque += opaque
        start = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._opaque -= opaque
            stack.pop()
        duration = end - start
        if "new" in kinds:
            previous = self._last_new.get(layer)
            self._last_new[layer] = result
            if result is previous:
                # Not this layer's work: leave the time with the caller.
                if parent is not None:
                    parent[2] += frame[2]
                return result
        aggregate = self.totals[layer]
        aggregate[0] += 1
        aggregate[1] += duration
        aggregate[2] += duration - frame[2]
        if parent is not None:
            parent[2] += duration
        if "span" in kinds:
            self.spans.append(
                (
                    self._op,
                    frame[1],
                    parent[1] if parent is not None else 0,
                    layer,
                    start - self._origin,
                    duration,
                    duration - frame[2],
                )
            )
        return result

    # -- results ------------------------------------------------------------------
    def calls(self, layer: str) -> int:
        return self.totals[layer][0] if layer in self.totals else 0

    def total(self, layer: str) -> float:
        return self.totals[layer][1] if layer in self.totals else 0.0

    def self_time(self, layer: str) -> float:
        return self.totals[layer][2] if layer in self.totals else 0.0


#: Per-layer metrics: ``(name, unit, better, measured around, should move)``.
#: Times and calls are per traced op (reads, and write_mix's edits); *ctr*
#: metrics are program counters read before and after the timed phase.
LAYER_METRICS = (
    ("service.submit.self_ms", "ms/op", "lower", "CitationService.submit minus its children",
     "latency_p50_ms on cold_shapes"),
    ("api.parse.ms", "ms/op", "lower", "RelationalBackend.parse",
     "latency_p50_ms on cold_shapes"),
    ("service.fingerprint.self_ms", "ms/op", "lower", "RelationalBackend.fingerprint minus analysis",
     "latency_p50_ms on cold_shapes"),
    ("analysis.analyze.ms", "ms/op", "lower", "CitationEngine.analyze",
     "latency_p50_ms on cold_shapes"),
    ("analysis.cache_hit_ratio", "ratio", "higher", "ctr: engine.analysis_stats()",
     "latency_p50_ms on cold_shapes"),
    ("rewriting.search.ms", "ms/op", "lower", "the engine's rewriter.rewrite (MiniCon)",
     "latency_p50_ms and throughput_ops_s on cold_shapes"),
    ("rewriting.search.calls", "calls/op", "lower", "the engine's rewriter.rewrite (MiniCon)",
     "latency_p50_ms and throughput_ops_s on cold_shapes"),
    ("core.compile.self_ms", "ms/op", "lower", "CitationEngine.compile_plan minus analysis and search",
     "latency_p50_ms and throughput_ops_s on cold_shapes"),
    ("query.program_compile.ms", "ms/op", "lower",
     "QueryEvaluator.compile / reduction_of / prelude_for",
     "latency_p50_ms and throughput_ops_s on cold_shapes"),
    ("service.plan_cache.hit_ratio", "ratio", "higher",
     "ctr: plan hits / (hits + compilations)",
     "latency_p50_ms and throughput_ops_s on cold_shapes"),
    ("query.join.ms", "ms/op", "lower", "QueryEvaluator.evaluate_with_bindings",
     "latency_p90_ms on warm_cite"),
    ("query.join.calls", "calls/op", "lower", "QueryEvaluator.evaluate_with_bindings",
     "latency_p90_ms on warm_cite"),
    ("query.shard.parallel_share", "ratio", "lower",
     "ctr: sharding parallel / (parallel + serial) picks",
     "latency_p90_ms on warm_cite"),
    ("core.assembly.self_ms", "ms/op", "lower",
     "CitationEngine.execute_plan minus join, program compile, record, policy",
     "latency_p50_ms and throughput_ops_s on warm_cite"),
    ("core.record.ms", "ms/op", "lower", "CitationEngine.citation_record minus fetch",
     "latency_p50_ms and throughput_ops_s on warm_cite"),
    ("core.record.calls", "calls/op", "lower", "CitationEngine.citation_record",
     "latency_p50_ms and throughput_ops_s on warm_cite"),
    ("core.policy.ms", "ms/op", "lower", "outermost CitationPolicy.evaluate plus aggregate",
     "latency_p50_ms and throughput_ops_s on warm_cite"),
    ("core.policy.calls", "calls/op", "lower", "outermost CitationPolicy.evaluate plus aggregate",
     "latency_p50_ms and throughput_ops_s on warm_cite"),
    ("core.record.fetch_ms", "ms/op", "lower", "CitationView.citation_for",
     "latency_p50_ms, latency_p90_ms and throughput_ops_s on write_mix"),
    ("core.record.fetch_ratio", "ratio", "lower", "fetches / citation_record calls",
     "latency_p50_ms, latency_p90_ms and throughput_ops_s on write_mix"),
    ("rewriting.materialize.ms", "ms/op", "lower",
     "CitationEngine.view_relations calls returning a new mapping",
     "latency_p50_ms, latency_p90_ms and throughput_ops_s on write_mix"),
    ("rewriting.materialize.calls", "calls/op", "lower",
     "CitationEngine.view_relations calls returning a new mapping",
     "latency_p50_ms, latency_p90_ms and throughput_ops_s on write_mix"),
    ("service.result_cache.hit_ratio", "ratio", "higher", "ctr: result hits / reads",
     "latency_p50_ms, latency_p90_ms and throughput_ops_s on write_mix"),
    ("relational.write.ms", "ms/op", "lower", "Database.insert / delete",
     "write_p50_ms on write_mix"),
    ("relational.write.calls", "calls/op", "lower", "Database.insert / delete",
     "write_p50_ms on write_mix"),
    ("bench.op.ms", "ms/op", "lower", "the benchmark's own op frame (traced)",
     "denominator for layer shares"),
    ("bench.trace_overhead", "ratio", "lower", "1 - traced/untraced throughput",
     "diagnostic only"),
)


def layer_values(tracer: LayerTracer, ops: int) -> dict[str, float]:
    """The traced per-layer metrics (everything but the counters)."""

    def per_op_ms(seconds: float) -> float:
        return seconds * 1000.0 / ops

    record_calls = tracer.calls("core.record")
    return {
        "service.submit.self_ms": per_op_ms(tracer.self_time("service.submit")),
        "api.parse.ms": per_op_ms(tracer.total("api.parse")),
        "service.fingerprint.self_ms": per_op_ms(tracer.self_time("service.fingerprint")),
        "analysis.analyze.ms": per_op_ms(tracer.total("analysis.analyze")),
        "rewriting.search.ms": per_op_ms(tracer.total("rewriting.search")),
        "rewriting.search.calls": tracer.calls("rewriting.search") / ops,
        "core.compile.self_ms": per_op_ms(tracer.self_time("core.compile")),
        "query.program_compile.ms": per_op_ms(tracer.total("query.program_compile")),
        "query.join.ms": per_op_ms(tracer.total("query.join")),
        "query.join.calls": tracer.calls("query.join") / ops,
        "core.assembly.self_ms": per_op_ms(tracer.self_time("core.assembly")),
        "core.record.ms": per_op_ms(tracer.self_time("core.record")),
        "core.record.calls": record_calls / ops,
        "core.policy.ms": per_op_ms(tracer.total("core.policy")),
        "core.policy.calls": tracer.calls("core.policy") / ops,
        "core.record.fetch_ms": per_op_ms(tracer.total("core.record.fetch")),
        "core.record.fetch_ratio": (
            tracer.calls("core.record.fetch") / record_calls if record_calls else 0.0
        ),
        "rewriting.materialize.ms": per_op_ms(tracer.total("rewriting.materialize")),
        "rewriting.materialize.calls": tracer.calls("rewriting.materialize") / ops,
        "relational.write.ms": per_op_ms(tracer.total("relational.write")),
        "relational.write.calls": tracer.calls("relational.write") / ops,
        "bench.op.ms": per_op_ms(tracer.total("bench.read") + tracer.total("bench.write")),
    }


#: Layer groups whose share of traced time shows what each workload stresses.
SHARES = {
    "warm_cite": {
        "assembly+record+policy of reads": (
            ("core.assembly", "self"), ("core.record", "self"), ("core.policy", "total"),
            ("core.record.fetch", "total"),
        ),
        "join of reads": (("query.join", "total"),),
    },
    "cold_shapes": {
        "parse+fingerprint+analysis+search+compile+program compile of reads": (
            ("api.parse", "total"), ("service.fingerprint", "self"),
            ("analysis.analyze", "total"), ("rewriting.search", "total"),
            ("core.compile", "self"), ("query.program_compile", "total"),
        ),
    },
    "write_mix": {
        "fetch+materialize of cycles": (
            ("core.record.fetch", "total"), ("rewriting.materialize", "total"),
        ),
    },
}


def shares(tracer: LayerTracer, workload: str) -> dict[str, float]:
    """Each :data:`SHARES` group's share of traced read (or cycle) time.

    Cycle time is reads plus edits; only write_mix has edits in its cycles.
    """
    read_seconds = tracer.total("bench.read")
    cycle_seconds = read_seconds + tracer.total("bench.write")
    out = {}
    for label, parts in SHARES[workload].items():
        seconds = sum(
            tracer.self_time(layer) if how == "self" else tracer.total(layer)
            for layer, how in parts
        )
        base = cycle_seconds if label.endswith("of cycles") else read_seconds
        out[label] = seconds / base if base else 0.0
    return out
