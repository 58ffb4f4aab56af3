"""E14 — the serving layer: cold vs warm citation latency and batch throughput.

The serving scenario the paper motivates: the same citation views are hit by
a stream of mostly-repeating "cite this query result" requests.  This
experiment measures

* the cold path (first request for a query shape: view materialisation +
  rewriting search + evaluation) against the warm path (plan/result cache
  hits) — the acceptance bar is a >= 5x speed-up on the GtoPdb workload;
* batch serving throughput with within-batch deduplication against a naive
  sequential ``engine.cite()`` loop, with a full correctness cross-check
  (identical answer rows and citation records per request).
"""

from __future__ import annotations

import time

from repro import CitationEngine, CitationPolicy, CitationRequest, CitationService
from repro.workloads import gtopdb
from benchmarks.conftest import report

WARM_ROUNDS = 25
BATCH_DUPLICATION = 8


def _make_engine(families: int = 150) -> CitationEngine:
    database = gtopdb.generate(families=families, targets_per_family=3, seed=11)
    return CitationEngine(
        database,
        gtopdb.citation_views(extended=True),
        policy=CitationPolicy.default(),
    )


def _cite(service: CitationService, query):
    return service.submit(CitationRequest(query=query)).unwrap()


def _timed(callable_):
    started = time.perf_counter()
    value = callable_()
    return value, time.perf_counter() - started


def test_e14_cold_vs_warm_latency():
    engine = _make_engine()
    query = gtopdb.paper_query()
    with CitationService(engine) as service:
        cold_result, cold = _timed(lambda: _cite(service, query))

        warm_times = []
        for _ in range(WARM_ROUNDS):
            warm_result, elapsed = _timed(lambda: _cite(service, query))
            warm_times.append(elapsed)
        warm = sum(warm_times) / len(warm_times)

        # A structurally identical (renamed, reordered) query: plan +
        # result-cache reuse, only the rebinding is fresh work.
        renamed = "Q(N) :- FamilyIntro(F, T), Family(F, N, D)"
        renamed_result, alpha = _timed(lambda: _cite(service, renamed))

        speedup = cold / warm if warm > 0 else float("inf")
        report(
            "E14 cold vs warm cite latency (GtoPdb)",
            [
                {"path": "cold (materialise+rewrite+eval)", "ms": round(cold * 1e3, 3)},
                {"path": f"warm mean of {WARM_ROUNDS}", "ms": round(warm * 1e3, 3)},
                {"path": "warm, alpha-renamed query", "ms": round(alpha * 1e3, 3)},
                {"path": "speedup (cold/warm)", "ms": round(speedup, 1)},
            ],
        )
        assert warm_result.citation.records == cold_result.citation.records
        assert renamed_result.citation.records == cold_result.citation.records
        # Acceptance bar: warm-cache serving is at least 5x faster than cold.
        assert speedup >= 5.0, f"warm path only {speedup:.1f}x faster than cold"
        stats = service.stats()
        assert stats["counters"]["plan_compilations"] == 1
        assert stats["cache_hit_rate"] > 0.9


def test_e14_batch_matches_sequential():
    queries = list(gtopdb.example_queries()) * BATCH_DUPLICATION

    sequential_engine = _make_engine()
    sequential, sequential_elapsed = _timed(
        lambda: [sequential_engine.cite(query) for query in queries]
    )

    service_engine = _make_engine()
    with CitationService(service_engine) as service:
        responses, batch_elapsed = _timed(
            lambda: service.submit_batch(
                [CitationRequest(query=query) for query in queries], max_workers=8
            )
        )
        assert all(response.ok for response in responses)
        for expected, response in zip(sequential, responses):
            result = response.result
            assert {tc.row for tc in expected.tuple_citations} == {
                tc.row for tc in result.tuple_citations
            }
            assert expected.citation.records == result.citation.records
            assert {tc.row: tc.records for tc in expected.tuple_citations} == {
                tc.row: tc.records for tc in result.tuple_citations
            }

        throughput = len(queries) / batch_elapsed if batch_elapsed else float("inf")
        report(
            "E14 batch serving vs sequential engine.cite",
            [
                {
                    "path": "sequential engine.cite",
                    "total_ms": round(sequential_elapsed * 1e3, 1),
                    "qps": round(len(queries) / sequential_elapsed, 1),
                },
                {
                    "path": "service.submit_batch (dedup)",
                    "total_ms": round(batch_elapsed * 1e3, 1),
                    "qps": round(throughput, 1),
                },
            ],
        )
        # Deduplication means the service executes each distinct shape once.
        distinct = len(gtopdb.example_queries())
        assert service.metrics.counter("executions") == distinct
        assert (
            service.metrics.counter("deduplicated")
            == len(queries) - distinct
        )
        assert batch_elapsed < sequential_elapsed


def test_e14_invalidation_cost():
    """After a mutation the next request re-materialises and re-evaluates,
    but a formal-mode plan (data-independent) is reused, not recompiled."""
    engine = _make_engine(families=60)
    query = gtopdb.paper_query()
    with CitationService(engine) as service:
        _cite(service, query)
        engine.database.insert("Family", (7001, "Fresh family", "d"))
        engine.database.insert("FamilyIntro", (7001, "intro"))
        _result, stale_refresh = _timed(lambda: _cite(service, query))
        _result, warm_again = _timed(lambda: _cite(service, query))
        report(
            "E14 invalidation: first request after a mutation",
            [
                {"path": "refresh after mutation", "ms": round(stale_refresh * 1e3, 3)},
                {"path": "warm again", "ms": round(warm_again * 1e3, 3)},
            ],
        )
        assert service.metrics.counter("plan_compilations") == 1
        assert service.metrics.counter("plan_cache_hits") == 1
        assert service.metrics.counter("executions") == 2
        rows = {tc.row for tc in _cite(service, query).tuple_citations}
        assert ("Fresh family",) in rows
