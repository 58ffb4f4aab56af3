"""EXPLAIN ANALYZE through ``CitationService.explain`` on the paper example."""

import json

import pytest

from repro import CitationRequest, CitationService
from repro.observability import RingBufferSink, SlowQueryLog, Tracer

PAPER_QUERY = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"


@pytest.fixture
def service(paper_engine):
    service = CitationService(paper_engine)
    yield service
    service.close()


@pytest.fixture
def traced_service(paper_engine):
    tracer = Tracer(sinks=[RingBufferSink()], slow_log=SlowQueryLog(capacity=8))
    service = CitationService(paper_engine, tracer=tracer)
    yield service
    service.close()


class TestExplainReport:
    def test_explain_serves_and_captures_a_trace(self, service):
        report = service.explain(PAPER_QUERY)
        assert report.ok
        assert report.response.row_count == 2
        assert report.trace is not None
        assert report.trace.name == "service.request"
        assert report.trace.attributes["backend"] == "relational"

    def test_trace_is_a_full_plan_tree(self, service):
        report = service.explain(PAPER_QUERY)
        trace = report.trace
        assert trace.find("service.plan") is not None
        assert trace.find("engine.execute_plan") is not None
        assert trace.find("engine.assemble_citations") is not None
        evaluations = [
            span
            for span in trace.find_all("query.evaluate")
            if span.attributes["query"] == "Q"  # skip view materialization
        ]
        assert evaluations
        for evaluation in evaluations:
            # One answer row per group of frames.
            assert 0 < evaluation.attributes["answers"] <= evaluation.attributes["results"]
        steps = trace.find_all("join.step")
        assert steps, "per-step cardinality records missing"
        for step in steps:
            assert step.attributes["relation_rows"] > 0
            assert step.attributes["rows_scanned"] >= step.attributes["frames_out"] > 0

    def test_second_explain_shows_warm_plan_cache(self, service):
        first = service.explain(PAPER_QUERY)
        second = service.explain(PAPER_QUERY)
        assert first.trace.find("service.plan").attributes["plan_cache"] == "miss"
        assert second.trace.find("service.plan").attributes["plan_cache"] == "hit"

    def test_explain_bypasses_the_result_cache(self, service):
        service.submit(CitationRequest(query=PAPER_QUERY)).unwrap()  # populate the result cache
        report = service.explain(PAPER_QUERY)
        assert report.response.cached is False
        assert report.trace.attributes["result_cache"] == "bypass"
        assert report.trace.find("service.execute") is not None

    def test_explain_does_not_pollute_the_result_cache_path(self, service):
        service.explain(PAPER_QUERY)
        service.submit(CitationRequest(query=PAPER_QUERY)).unwrap()
        response = service.submit(service._cq_request(PAPER_QUERY, None))
        assert response.cached is True  # ordinary requests still hit the cache

    def test_to_text_renders_the_annotated_plan(self, service):
        service.explain(PAPER_QUERY)  # warm the plan cache
        text = service.explain(PAPER_QUERY).to_text()
        assert f"query: {PAPER_QUERY}" in text
        assert "service.request" in text
        assert "plan_cache=hit" in text
        assert "join.step[0]" in text
        assert "rows=" in text and "scanned=" in text  # measured cardinalities

    def test_to_dict_is_json_friendly(self, service):
        payload = json.loads(json.dumps(service.explain(PAPER_QUERY).to_dict()))
        assert payload["response"]["rows"] == 2
        assert payload["trace"]["name"] == "service.request"

    def test_explain_error_rides_in_the_report(self, service):
        report = service.explain("Q(X) :- NoSuchRelation(X)")
        assert not report.ok
        assert report.trace is not None
        assert "error" in report.trace.attributes
        assert "error:" in report.to_text()

    def test_explain_leaves_the_service_tracer_alone(self, traced_service):
        sink = traced_service.tracer().sinks[0]
        traced_service.explain(PAPER_QUERY)
        # The explained trace went to the explain-local capture sink, not to
        # the service's own sink ...
        assert sink.recorded == 0
        # ... while ordinary requests still record into the service sink.
        traced_service.submit(CitationRequest(query=PAPER_QUERY)).unwrap()
        assert sink.recorded == 1


class TestServiceStats:
    def test_stats_expose_tracing_and_slow_queries(self, traced_service):
        traced_service.submit(CitationRequest(query=PAPER_QUERY)).unwrap()
        stats = traced_service.stats()
        assert stats["tracing"]["enabled"] is True
        assert stats["tracing"]["slow_log"]["retained"] == 1
        assert stats["slow_queries"][0]["query"] == PAPER_QUERY

    def test_stats_omit_tracing_when_disabled(self, service):
        service.submit(CitationRequest(query=PAPER_QUERY)).unwrap()
        stats = service.stats()
        assert "tracing" not in stats
        assert "slow_queries" not in stats

    def test_to_prometheus_covers_service_and_caches(self, service):
        service.submit(CitationRequest(query=PAPER_QUERY)).unwrap()
        service.submit(CitationRequest(query=PAPER_QUERY)).unwrap()
        text = service.to_prometheus()
        assert "repro_requests_total 2" in text
        assert "repro_result_cache_hits_total 1" in text
        assert 'repro_latency_seconds_bucket{phase="request",le="+Inf"} 2' in text
        assert "repro_plan_cache_size 1" in text
        assert "repro_engine_generation" in text
