"""E19 — observability overhead and EXPLAIN ANALYZE fidelity.

The observability PR instruments the whole request lifecycle — service
envelope, engine plan execution, evaluator strategy pick, per-join-step
cardinalities — so two costs need gates:

1. **Disabled tracing must stay ~free.**  Every instrumented call site pays
   one ``get_tracer()`` (a contextvar read), one ``enabled`` branch and at
   most one ``current_fingerprint()`` read when tracing is off; the profiled
   join loops are separate mirrors, so the hot ``descend`` loop itself is
   untouched.  Gate: a *generous* per-request bound (``SPAN_SITES`` sites ×
   the measured per-site cost) must stay ≤ 5% of the warm serving path.

2. **Enabled tracing must stay proportionate.**  Spans, attribute dicts and
   the profiled join mirrors are only paid when a tracer is installed; the
   warm serving path with tracing on must stay within 25% of the same path
   with tracing off.

Plus a fidelity smoke: on the E18 sparse dangling-heavy instance, the second
``CitationService.explain`` of the same query must show the semi-join
prelude being *reused* (``prelude=hit`` on the evaluation span) — the
EXPLAIN ANALYZE trace reports what the engine actually did, not just what it
planned.  Machine-readable rows land in ``BENCH_e19.json`` (CI artifact).
"""

from __future__ import annotations

import os
import time

from repro import CitationEngine, CitationRequest, CitationService
from repro.core.spec import default_views_for_schema
from repro.observability import (
    RingBufferSink,
    Tracer,
    current_fingerprint,
    get_tracer,
)
from benchmarks.bench_e18_cost_cache import (
    SCHEMA,
    _dangling_instance,
    _sparse_instance,
)
from benchmarks.conftest import record_json, report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROWS = 600 if SMOKE else 1500
ROUNDS = 30 if SMOKE else 60  # requests per timed repetition
REPEATS = 5  # best-of repetitions per configuration
DISABLED_OVERHEAD_GATE = 0.05  # disabled-path cost ≤ 5% of the warm request
ENABLED_OVERHEAD_GATE = 1.25  # traced warm path ≤ 1.25x the untraced one
#: Generous upper bound on disabled-path tracer checks per served request
#: (service request/plan/execute + engine plan/rewritings/assembly + one
#: evaluation per rewriting; the paper-shaped plans here have two).
SPAN_SITES = 24

QUERY = (
    "Q(FID, Ref) :- Family(FID, FamKey), Target(FamKey, TargKey), "
    "Interaction(TargKey, LigKey), LigandRef(LigKey, Ref)"
)


def _service(tracer: Tracer | None = None) -> CitationService:
    """A serving stack over the E18 dangling chain, result cache off.

    ``cache_results=False`` keeps every request on the execution path (the
    quantity being gated); the plan cache and the warm semi-join prelude
    stay on, exactly like steady-state serving traffic.
    """
    database = _dangling_instance(ROWS, seed=31)
    engine = CitationEngine(
        database, default_views_for_schema(SCHEMA), strategy="reduced"
    )
    return CitationService(engine, cache_results=False, tracer=tracer)


def _warm_request_seconds(service: CitationService) -> float:
    """Best-of mean seconds per warm ``submit`` of the benchmark query."""
    request = CitationRequest(query=QUERY)
    for _ in range(5):  # warm plan cache, prelude and indexes
        service.submit(request).unwrap()
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(ROUNDS):
            service.submit(request).unwrap()
        best = min(best, (time.perf_counter() - started) / ROUNDS)
    return best


def _disabled_site_seconds(iterations: int = 20_000) -> float:
    """Measured cost of one disabled instrumentation site.

    Exactly what every instrumented call site does when no tracer is
    installed: resolve the tracer, branch on ``enabled``, and (on the one
    execute site) read the fingerprint contextvar.
    """
    started = time.perf_counter()
    for _ in range(iterations):
        tracer = get_tracer()
        if tracer.enabled:  # pragma: no cover - tracing is off here
            raise AssertionError("tracing unexpectedly enabled")
        current_fingerprint()
    return (time.perf_counter() - started) / iterations


def test_e19_disabled_tracing_is_effectively_free():
    with _service(tracer=None) as service:
        assert service.tracer().enabled is False
        warm = _warm_request_seconds(service)
        assert service.submit(service._cq_request(QUERY, None)).ok
    site = _disabled_site_seconds()
    overhead = site * SPAN_SITES
    ratio = overhead / warm
    rows = [
        {
            "op": "disabled_overhead",
            "warm_request_us": round(warm * 1e6, 2),
            "per_site_ns": round(site * 1e9, 1),
            "span_sites": SPAN_SITES,
            "overhead_ratio": round(ratio, 5),
        }
    ]
    report("E19: disabled-tracing overhead vs the warm serving path", rows)
    record_json("e19", rows, disabled_overhead_gate=DISABLED_OVERHEAD_GATE)
    assert ratio <= DISABLED_OVERHEAD_GATE, (
        f"disabled instrumentation costs {ratio:.2%} of a warm request, "
        f"gate is {DISABLED_OVERHEAD_GATE:.0%}"
    )


def test_e19_enabled_tracing_overhead_is_bounded():
    with _service(tracer=None) as untraced:
        disabled = _warm_request_seconds(untraced)
    tracer = Tracer(sinks=[RingBufferSink(capacity=4)])
    with _service(tracer=tracer) as traced:
        enabled = _warm_request_seconds(traced)
        trace = tracer.sinks[0].last()
    assert trace is not None and trace.name == "service.request"
    assert trace.find("query.evaluate") is not None

    ratio = enabled / disabled
    rows = [
        {
            "op": "enabled_overhead",
            "disabled_us": round(disabled * 1e6, 2),
            "enabled_us": round(enabled * 1e6, 2),
            "ratio": round(ratio, 3),
        }
    ]
    report("E19: enabled-tracing overhead (warm serving path)", rows)
    record_json("e19", rows, enabled_overhead_gate=ENABLED_OVERHEAD_GATE)
    assert ratio <= ENABLED_OVERHEAD_GATE, (
        f"tracing-enabled warm path is {ratio:.2f}x the disabled one, "
        f"gate is {ENABLED_OVERHEAD_GATE}x"
    )


def test_e19_explain_trace_shows_warm_prelude_hit():
    """EXPLAIN ANALYZE on the E18 sparse view reports real prelude reuse."""
    sparse = _sparse_instance(500)
    engine = CitationEngine(
        sparse, default_views_for_schema(SCHEMA), strategy="reduced"
    )

    def main_evaluation(reportee):
        spans = [
            span
            for span in reportee.trace.find_all("query.evaluate")
            if span.attributes.get("executor") == "reduced"
        ]
        assert spans, reportee.to_text()
        return spans[0]

    with CitationService(engine, cache_results=False) as service:
        first = service.explain(QUERY)
        second = service.explain(QUERY)
    assert first.ok and second.ok

    cold = main_evaluation(first)
    warm = main_evaluation(second)
    assert cold.attributes["prelude"] in ("cold", "miss")
    assert warm.attributes["prelude"] == "hit"
    assert second.trace.find("service.plan").attributes["plan_cache"] == "hit"
    assert "prelude=hit" in second.to_text()
    steps = [
        span
        for span in second.trace.find_all("join.step")
        if span.parent_id == warm.span_id
    ]
    assert steps, "warm evaluation lost its per-step cardinality records"

    rows = [
        {
            "op": "explain_prelude_smoke",
            "first_prelude": cold.attributes["prelude"],
            "second_prelude": warm.attributes["prelude"],
            "second_plan_cache": "hit",
            "join_steps": len(steps),
        }
    ]
    report("E19: explain trace prelude fidelity on the sparse instance", rows)
    record_json("e19", rows)
