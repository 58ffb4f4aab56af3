"""Thread-safety of metrics and tracing under concurrent batch serving.

Concurrent ``submit_batch`` calls must neither lose metric increments nor
bleed spans between request traces (the service propagates the tracing context into its
worker pool with ``contextvars.copy_context``).
"""

import threading

import pytest

from repro import CitationEngine, CitationRequest, CitationService
from repro.observability import RingBufferSink, SlowQueryLog, Tracer
from repro.workloads import gtopdb


def _queries(start, count):
    """Structurally distinct conjunctive queries (distinct constants)."""
    return [
        f"Q(FName) :- Family({fid}, FName, Desc), FamilyIntro({fid}, Text)"
        for fid in range(start, start + count)
    ]


def _requests(queries):
    return [CitationRequest(query=query) for query in queries]


@pytest.fixture
def traced_service():
    engine = CitationEngine(gtopdb.paper_instance(), gtopdb.citation_views())
    tracer = Tracer(
        sinks=[RingBufferSink(capacity=16)],
        slow_log=SlowQueryLog(capacity=256),
    )
    service = CitationService(
        engine, max_workers=8, cache_results=False, tracer=tracer
    )
    yield service
    service.close()


class TestConcurrentMetrics:
    def test_no_lost_counters_across_concurrent_batches(self, traced_service):
        batches = [_queries(100 + 50 * index, 16) for index in range(4)]
        results = [None] * len(batches)

        def run(index):
            results[index] = traced_service.submit_batch(_requests(batches[index]))

        threads = [
            threading.Thread(target=run, args=(index,))
            for index in range(len(batches))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = sum(len(batch) for batch in batches)
        for responses in results:
            assert responses is not None
            assert all(response.ok for response in responses)
        metrics = traced_service.metrics
        assert metrics.counter("requests") == total
        assert metrics.counter("batch_requests") == len(batches)
        assert metrics.counter("executions") == total  # all shapes distinct
        assert metrics.counter("errors") == 0

    def test_latency_histogram_counts_every_request(self, traced_service):
        queries = _queries(300, 24)
        traced_service.submit_batch(_requests(queries))
        stats = traced_service.stats()
        assert stats["latency_ms"]["request"]["count"] == len(queries)


class TestTraceIsolation:
    def test_every_request_gets_its_own_span_tree(self, traced_service):
        queries = _queries(400, 24)
        traced_service.submit_batch(_requests(queries))

        sink = traced_service.tracer().sinks[0]
        traces = sink.traces()
        assert len(traces) == 1  # one batch => one root trace
        batch = traces[0]
        assert batch.name == "service.batch"
        assert batch.attributes["size"] == len(queries)

        requests = batch.find_all("service.request")
        assert len(requests) == len(queries)
        assert {span.attributes["query"] for span in requests} == set(queries)

        request_ids = [span.attributes["request_id"] for span in requests]
        assert len(set(request_ids)) == len(queries)

        # No span appears in two trees and no request bleeds into another:
        # each request span owns exactly one plan and one execute child.
        span_ids = [span.span_id for span in batch.walk()]
        assert len(span_ids) == len(set(span_ids))
        for span in requests:
            child_names = [child.name for child in span.children]
            assert child_names.count("service.plan") == 1
            assert child_names.count("service.execute") == 1
            execute = span.find("service.execute")
            evaluations = [
                s for s in execute.walk() if s.name == "query.evaluate"
            ]
            assert evaluations, "request trace lost its evaluation spans"

    def test_slow_log_retains_each_request_once(self, traced_service):
        queries = _queries(600, 16)
        traced_service.submit_batch(_requests(queries))
        slow_log = traced_service.tracer().slow_log
        entries = slow_log.snapshot()
        assert len(entries) == len(queries)
        assert len({entry["request_id"] for entry in entries}) == len(queries)
        durations = [entry["duration_ms"] for entry in entries]
        assert durations == sorted(durations, reverse=True)

    def test_disabled_tracer_records_nothing_under_concurrency(self):
        engine = CitationEngine(gtopdb.paper_instance(), gtopdb.citation_views())
        service = CitationService(engine, max_workers=8)
        try:
            responses = service.submit_batch(_requests(_queries(700, 12)))
            assert all(response.ok for response in responses)
            assert service.tracer().enabled is False
            assert "tracing" not in service.stats()
        finally:
            service.close()


class TestPerQueryAttribution:
    def test_estimate_vs_actual_accumulates_per_fingerprint(self, traced_service):
        queries = _queries(800, 6)
        # Duplicates dedup within the batch.
        traced_service.submit_batch(_requests(queries * 2))
        profiles = traced_service.engine.evaluation_metrics.query_profiles()
        assert len(profiles) >= len(queries)
        for profile in profiles.values():
            assert profile["evaluations"] >= 1
            assert profile["mean_ms"] >= 0.0
