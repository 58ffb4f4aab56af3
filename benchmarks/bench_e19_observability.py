"""E19 — observability overhead and EXPLAIN ANALYZE fidelity.

The observability PR instruments the whole request lifecycle — service
envelope, engine plan execution, evaluation, per-join-step cardinalities —
so two costs need gates:

1. **Disabled tracing must stay ~free.**  Every instrumented call site pays
   one ``get_tracer()`` (a contextvar read), one ``enabled`` branch and at
   most one ``current_fingerprint()`` read when tracing is off; the profiled
   join loops are separate mirrors, so the hot ``descend`` loop itself is
   untouched.  Gate: a *generous* per-request bound (``SPAN_SITES`` sites ×
   the measured per-site cost) must stay ≤ 5% of the warm serving path.

2. **Enabled tracing must stay proportionate.**  Spans, attribute dicts and
   the profiled join mirrors are only paid when a tracer is installed; the
   warm serving path with tracing on must stay within 25% of the same path
   with tracing off, read as the median of ``PAIRED_ROUNDS`` per-round
   traced/untraced ratios, each round interleaving the two services request
   by request.

Machine-readable rows land in ``BENCH_e19.json`` (CI artifact).
"""

from __future__ import annotations

import os
import statistics
import time
from collections.abc import Iterator
from functools import partial

from repro import CitationEngine, CitationRequest, CitationService
from repro.core.spec import default_views_for_schema
from repro.observability import (
    RingBufferSink,
    Tracer,
    current_fingerprint,
    get_tracer,
)
from benchmarks.conftest import (
    CHAIN_QUERY as QUERY,
    CHAIN_SCHEMA as SCHEMA,
    dangling_chain,
    paired_rounds,
    record_json,
    report,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROWS = 600 if SMOKE else 1500
ROUNDS = 30 if SMOKE else 60  # requests per timed repetition
REPEATS = 5  # best-of repetitions per configuration
#: Paired untraced/traced rounds; the enabled gate reads their median ratio.
PAIRED_ROUNDS = 15
DISABLED_OVERHEAD_GATE = 0.05  # disabled-path cost ≤ 5% of the warm request
ENABLED_OVERHEAD_GATE = 1.25  # traced warm path ≤ 1.25x the untraced one
#: Generous upper bound on disabled-path tracer checks per served request
#: (service request/plan/execute + engine plan/rewritings/assembly + one
#: evaluation per rewriting; the paper-shaped plans here have two).
SPAN_SITES = 24

def _service(tracer: Tracer | None = None) -> CitationService:
    """A serving stack over the dangling chain, result cache off.

    ``cache_results=False`` keeps every request on the execution path (the
    quantity being gated); the plan cache and the view indexes stay on,
    exactly like steady-state serving traffic.
    """
    database = dangling_chain(ROWS, seed=31)
    engine = CitationEngine(database, default_views_for_schema(SCHEMA))
    return CitationService(engine, cache_results=False, tracer=tracer)


def _warm_up(service: CitationService) -> None:
    """Warm the plan cache and the indexes."""
    for _ in range(5):
        service.submit(CitationRequest(query=QUERY)).unwrap()


def _warm_request_seconds(service: CitationService) -> float:
    """Best-of mean seconds per warm ``submit`` of the benchmark query."""
    request = CitationRequest(query=QUERY)
    _warm_up(service)
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


def _serve(service: CitationService) -> Iterator[None]:
    """``ROUNDS`` warm submits, yielding after each, so two services'
    passes can be interleaved."""
    request = CitationRequest(query=QUERY)
    for _ in range(ROUNDS):
        service.submit(request).unwrap()
        yield


def test_e19_enabled_tracing_overhead_is_bounded():
    tracer = Tracer(sinks=[RingBufferSink(capacity=4)])
    with _service(tracer=None) as untraced, _service(tracer=tracer) as traced:
        services = {"untraced": untraced, "traced": traced}
        for service in services.values():
            _warm_up(service)
        best, ratios = paired_rounds(
            {name: partial(_serve, service) for name, service in services.items()},
            PAIRED_ROUNDS, "traced", "untraced",
        )
        trace = tracer.sinks[0].last()
    assert trace is not None and trace.name == "service.request"
    assert trace.find("query.evaluate") is not None

    ratio = statistics.median(ratios)
    rows = [
        {
            "op": "enabled_overhead",
            "disabled_us": round(best["untraced"] / ROUNDS * 1e6, 2),
            "enabled_us": round(best["traced"] / ROUNDS * 1e6, 2),
            "rounds": PAIRED_ROUNDS,
            "ratio": round(ratio, 3),
        }
    ]
    report("E19: enabled-tracing overhead (warm serving path)", rows)
    record_json("e19", rows, enabled_overhead_gate=ENABLED_OVERHEAD_GATE)
    assert ratio <= ENABLED_OVERHEAD_GATE, (
        f"tracing-enabled warm path is {ratio:.2f}x the disabled one, median of "
        f"{PAIRED_ROUNDS} paired rounds (gate {ENABLED_OVERHEAD_GATE}x)"
    )

