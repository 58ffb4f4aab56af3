"""E23 — resilience layer overhead and degradation behaviour.

The resilience layer (propagated deadlines with cooperative cancellation,
admission control, retry, stale serving) must be free when idle.  Two
questions, each answered with numbers:

* **What does an enabled-but-idle resilience stack cost?**  The same warm
  workload is served by a baseline service (no deadline, no admission, no
  retry policy) and by a fully armed one (generous ``default_timeout`` so a
  deadline is installed and every cooperative checkpoint actually runs,
  admission with ample capacity, a retry policy that never fires, stale
  serving on).  Requests bypass the result cache so the deadline checkpoints
  inside the compiled join loops are on the measured path.  The gate:
  <= 5% overhead, best-of-``ROUNDS`` over interleaved measurements.
* **What does degraded serving buy?**  Under an already-expired deadline a
  stale-enabled service answers from the generation-stamped cache in
  microseconds instead of failing; the table records the fresh execution
  time next to the stale-serve time.

Smoke mode (``REPRO_BENCH_SMOKE=1``, set by CI) shrinks the instance and
iteration counts so the experiment stays a quick regression check; the 5%
gate is enforced in smoke mode too — it is exactly the regression this
benchmark exists to catch.
"""

from __future__ import annotations

import os
import time

from repro import CitationEngine, CitationService
from repro.api.envelope import CitationRequest
from repro.resilience import RetryPolicy
from repro.workloads import gtopdb
from benchmarks.conftest import record_json, report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
FAMILIES = 120 if SMOKE else 600
ITERATIONS = 20 if SMOKE else 60
ROUNDS = 5
OVERHEAD_GATE = 1.05

QUERY = (
    "Q(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
)


def _database():
    return gtopdb.generate(
        families=FAMILIES, targets_per_family=3, ligands=FAMILIES, seed=23
    )


def _warm_request() -> CitationRequest:
    # no_result_cache keeps the compiled join (and its cooperative
    # checkpoints) on the measured path instead of a dictionary lookup.
    return CitationRequest(query=QUERY, metadata={"no_result_cache": True})


def _measure(service: CitationService) -> float:
    started = time.perf_counter()
    for _ in range(ITERATIONS):
        response = service.submit(_warm_request())
        assert response.ok
    return time.perf_counter() - started


def test_e23_idle_resilience_overhead_is_bounded():
    database = _database()
    views = gtopdb.citation_views()
    baseline_service = CitationService(CitationEngine(database, views))
    armed_service = CitationService(
        CitationEngine(database, views),
        default_timeout=3600.0,
        max_inflight=64,
        queue_depth=64,
        retry_policy=RetryPolicy(max_attempts=3, seed=23),
        serve_stale=True,
    )
    try:
        # Warm both plan caches before timing anything.
        assert baseline_service.submit(_warm_request()).ok
        assert armed_service.submit(_warm_request()).ok
        baseline_best = float("inf")
        armed_best = float("inf")
        # Interleave the rounds so drift (thermal, scheduler) hits both.
        for _ in range(ROUNDS):
            baseline_best = min(baseline_best, _measure(baseline_service))
            armed_best = min(armed_best, _measure(armed_service))
        armed_counters = armed_service.stats()["counters"]
        # "Idle" verified, not assumed: the armed stack made decisions
        # (admission admits, deadline checks) but none of them ever fired.
        assert armed_counters["errors"] == 0
        assert armed_counters["errors_transient_retried"] == 0
        assert armed_counters["stale_served"] == 0
        assert armed_service.stats()["admission"]["shed"] == 0
    finally:
        baseline_service.close()
        armed_service.close()

    overhead = armed_best / baseline_best if baseline_best else float("inf")
    rows = [
        {
            "workload": "warm execution, result cache bypassed",
            "iterations": ITERATIONS,
            "baseline_ms": round(baseline_best * 1000, 2),
            "resilient_ms": round(armed_best * 1000, 2),
            "overhead": round(overhead, 4),
        }
    ]
    report("E23: enabled-but-idle resilience overhead", rows)
    record_json("e23", rows, overhead_gate=OVERHEAD_GATE)
    assert overhead <= OVERHEAD_GATE, (
        f"idle resilience stack costs {overhead:.2%} of baseline "
        f"(gate {OVERHEAD_GATE:.0%})"
    )


def test_e23_stale_serving_converts_deadline_misses_into_fast_answers():
    database = _database()
    service = CitationService(
        CitationEngine(database, gtopdb.citation_views()), serve_stale=True
    )
    try:
        fresh_started = time.perf_counter()
        fresh = service.submit(CitationRequest(query=QUERY))
        fresh_ms = (time.perf_counter() - fresh_started) * 1000
        assert fresh.ok
        # A new row in a relation the query's views read: only a new
        # execution can bring the cached entry forward.
        database.insert("Family", (990_001, "F-e23", "d"))

        stale_started = time.perf_counter()
        degraded = service.submit(CitationRequest(query=QUERY, timeout=0.0))
        stale_ms = (time.perf_counter() - stale_started) * 1000
        assert degraded.ok and degraded.stale
        assert degraded.row_count == fresh.row_count

        without = CitationService(CitationEngine(database, gtopdb.citation_views()))
        try:
            assert without.submit(CitationRequest(query=QUERY)).ok
            database.insert("Family", (990_002, "F-e23b", "d"))
            refused = without.submit(CitationRequest(query=QUERY, timeout=0.0))
            assert not refused.ok
            assert refused.error_code == "DEADLINE_EXCEEDED"
        finally:
            without.close()
    finally:
        service.close()

    rows = [
        {
            "workload": "stale serve under expired deadline",
            "fresh_execute_ms": round(fresh_ms, 2),
            "stale_serve_ms": round(stale_ms, 3),
            "rows_served": degraded.row_count,
            "stale_flagged": degraded.stale,
        }
    ]
    report("E23: degraded serving under deadline pressure", rows)
    record_json("e23", rows)
