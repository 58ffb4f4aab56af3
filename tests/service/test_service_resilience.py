"""Tier-1 tests for the service's resilience wiring: deadlines, admission,
retries, stale serving, and error-code stamping.

The heavier fault-injection scenarios (worker kills, storms, conservation
audits) live in ``tests/chaos`` behind ``-m chaos``; these tests pin the
default-path behaviour — everything off unless opted in — and the basic
contract of each opt-in.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import CitationEngine, CitationPolicy, CitationService
from repro.api.envelope import CitationRequest
from repro.core.citation_view import CitationView, DefaultCitationFunction
from repro.errors import DeadlineExceeded, Overloaded
from repro.resilience import RetryPolicy
from repro.resilience.faults import FaultSpec, plan as fault_plan
from repro.workloads import gtopdb

QUERY = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
OTHER = "Q2(FID, Text) :- FamilyIntro(FID, Text)"


@pytest.fixture
def db():
    return gtopdb.generate(families=30, targets_per_family=2, ligands=40, seed=5)


@pytest.fixture
def engine(db):
    return CitationEngine(
        db, gtopdb.citation_views(extended=True), policy=CitationPolicy.default()
    )


@pytest.fixture
def service(engine):
    with CitationService(engine) as svc:
        yield svc


class TestRequestDeadline:
    def test_expired_timeout_cancels_with_typed_error(self, service):
        response = service.submit(CitationRequest(query=QUERY, timeout=0.0))
        assert not response.ok
        assert isinstance(response.error, DeadlineExceeded)
        assert response.error_code == "DEADLINE_EXCEEDED"
        assert service.metrics.counter("errors_timeout") == 1
        assert service.metrics.counter("errors") == 1

    def test_generous_timeout_serves_normally(self, service):
        response = service.submit(CitationRequest(query=QUERY, timeout=60.0))
        assert response.ok
        assert response.error_code is None
        assert service.metrics.counter("errors_timeout") == 0

    def test_default_timeout_applies_when_request_has_none(self, engine):
        with CitationService(engine, default_timeout=0.0) as service:
            response = service.submit(CitationRequest(query=QUERY))
            assert isinstance(response.error, DeadlineExceeded)

    def test_request_timeout_overrides_default(self, engine):
        with CitationService(engine, default_timeout=0.0) as service:
            response = service.submit(CitationRequest(query=QUERY, timeout=60.0))
            assert response.ok

    def test_batch_deadline_cancels_workers_cooperatively(self, service):
        responses = service.submit_batch(
            [
                CitationRequest(query=QUERY, metadata={"no_result_cache": True}),
                CitationRequest(query=OTHER, metadata={"no_result_cache": True}),
            ],
            timeout=0.0,
        )
        assert all(not response.ok for response in responses)
        # Workers came home within the cancellation grace with their own
        # typed responses; nothing needed the synthesised pool timeout.
        assert all(
            response.error_code == "DEADLINE_EXCEEDED" for response in responses
        )
        assert service.metrics.counter("timeouts") == 0

    def test_deadline_error_payload_is_machine_readable(self, service):
        response = service.submit(CitationRequest(query=QUERY, timeout=0.0))
        payload = response.to_payload()
        assert payload["ok"] is False
        assert payload["error_code"] == "DEADLINE_EXCEEDED"


class TestAssemblyDeadline:
    @pytest.mark.parametrize(
        "families, fetch_s, timeout",
        [(300, 0.003, 0.3), (20, 0.03, 0.2)],
        ids=["many-fast-rows", "few-slow-rows"],
    )
    def test_slow_citation_function_is_cut_at_the_assembly_checkpoint(
        self, families, fetch_s, timeout
    ):
        # Without citation queries a record fetch runs no query, so only the
        # assembly checkpoint polls the deadline while each row fetches one
        # slow record.  A result too small for a join loop's check stride
        # must still be cut.
        class SlowCitationFunction(DefaultCitationFunction):
            def __call__(self, parameter_values, snippet_results):
                time.sleep(fetch_s)
                return super().__call__(parameter_values, snippet_results)

        view = CitationView(
            "lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)",
            citation_function=SlowCitationFunction(),
        )
        engine = CitationEngine(gtopdb.generate(families=families, seed=5), [view])
        with CitationService(engine) as service:
            started = time.monotonic()
            response = service.submit(
                CitationRequest(query="Q(FID, FName) :- Family(FID, FName, Desc)", timeout=timeout)
            )
            elapsed = time.monotonic() - started
        assert isinstance(response.error, DeadlineExceeded)
        assert response.error.where == "assembly"
        assert elapsed < timeout + 0.5


class TestErrorCodes:
    def test_parse_errors_are_coded(self, service):
        response = service.submit(CitationRequest(query="completely invalid ::"))
        assert not response.ok
        assert response.error_code == "PARSE_ERROR"
        assert service.metrics.counter("errors_permanent") == 1

    def test_no_rewriting_is_coded(self, service):
        response = service.submit(
            CitationRequest(query="Q(PName) :- Contributor(TID, PName)")
        )
        assert response.error_code == "NO_REWRITING"

    def test_closed_service_is_coded(self, engine):
        service = CitationService(engine)
        service.close()
        response = service.submit(CitationRequest(query=QUERY))
        assert response.error_code == "CITATION_ERROR"


class TestResponseAccounting:
    def test_every_request_yields_one_counted_response(self, service):
        service.submit(CitationRequest(query=QUERY))
        service.submit(CitationRequest(query=QUERY))  # result-cache hit
        service.submit(CitationRequest(query="completely invalid ::"))
        counters = service.stats()["counters"]
        assert counters["requests"] == 3
        assert counters["responses"] == 3
        assert (
            counters["responses"]
            == counters["executions"]
            + counters["result_cache_hits"]
            + counters["errors"]
        )

    def test_batch_accounting_includes_deduplication(self, service):
        responses = service.submit_batch(
            [CitationRequest(query=QUERY) for _ in range(4)]
        )
        assert all(response.ok for response in responses)
        counters = service.stats()["counters"]
        assert counters["requests"] == 4
        assert counters["responses"] + counters["deduplicated"] == 4
        assert counters["deduplicated"] == 3


class TestAdmissionControl:
    def test_disabled_by_default(self, service):
        assert service.admission is None
        assert "admission" not in service.stats()

    def test_sheds_when_saturated(self, engine):
        release = threading.Event()
        entered = threading.Event()
        original = engine.execute_plan

        def slow_execute(plan, query=None):
            entered.set()
            release.wait(timeout=10.0)
            return original(plan, query)

        engine.execute_plan = slow_execute
        try:
            with CitationService(engine, max_inflight=1, queue_depth=0) as service:
                holder = threading.Thread(
                    target=service.submit, args=(CitationRequest(query=QUERY),)
                )
                holder.start()
                assert entered.wait(timeout=10.0)
                response = service.submit(CitationRequest(query=OTHER))
                release.set()
                holder.join(timeout=10.0)
                assert not response.ok
                assert isinstance(response.error, Overloaded)
                assert response.error_code == "OVERLOADED"
                assert response.error.retry_after > 0.0
                assert service.metrics.counter("errors_shed") == 1
                assert service.stats()["admission"]["shed"] == 1
        finally:
            engine.execute_plan = original

    def test_admission_appears_in_stats(self, engine):
        with CitationService(engine, max_inflight=4, queue_depth=2) as service:
            service.submit(CitationRequest(query=QUERY)).unwrap()
            stats = service.stats()
            assert stats["admission"]["max_inflight"] == 4
            assert stats["admission"]["queue_depth"] == 2
            assert stats["admission"]["admitted"] == 1
            assert stats["resilience"]["admission"] is True


class TestRetryPolicy:
    def test_transient_execute_failures_are_absorbed(self, engine):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, seed=1)
        with CitationService(engine, retry_policy=policy) as service:
            with fault_plan(
                FaultSpec("backend.execute", error=Overloaded("synthetic", 0.01), times=2)
            ):
                response = service.submit(CitationRequest(query=QUERY))
            assert response.ok
            assert service.metrics.counter("errors_transient_retried") == 2
            assert service.metrics.counter("executions") == 1
            assert service.metrics.counter("errors") == 0

    def test_exhausted_retries_surface_the_error(self, engine):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, seed=1)
        with CitationService(engine, retry_policy=policy) as service:
            with fault_plan(
                FaultSpec("backend.execute", error=Overloaded("synthetic", 0.01))
            ):
                response = service.submit(CitationRequest(query=QUERY))
            assert not response.ok
            assert response.error_code == "OVERLOADED"
            assert service.metrics.counter("errors_transient_retried") == 1


class TestStaleServing:
    def test_stale_fallback_under_deadline_pressure(self, engine, db):
        with CitationService(engine, serve_stale=True) as service:
            fresh = service.submit(CitationRequest(query=QUERY))
            assert fresh.ok
            # A new row in a relation the query's views read: only a new
            # execution can bring the entry forward.
            db.insert("Family", (9100, "Family-X", "d"))
            degraded = service.submit(CitationRequest(query=QUERY, timeout=0.0))
            assert degraded.ok
            assert degraded.stale
            assert degraded.cached
            assert degraded.to_payload()["stale"] is True
            assert degraded.row_count == fresh.row_count
            assert service.metrics.counter("stale_served") == 1
            # A degraded success is not an error.
            assert service.metrics.counter("errors") == 0

    def test_no_stale_serving_without_opt_in(self, engine, db):
        with CitationService(engine) as service:
            assert service.submit(CitationRequest(query=QUERY)).ok
            db.insert("Family", (9101, "Family-Y", "d"))
            response = service.submit(CitationRequest(query=QUERY, timeout=0.0))
            assert not response.ok
            assert response.error_code == "DEADLINE_EXCEEDED"
            assert service.metrics.counter("stale_served") == 0

    def test_cold_cache_cannot_degrade(self, engine):
        with CitationService(engine, serve_stale=True) as service:
            response = service.submit(CitationRequest(query=QUERY, timeout=0.0))
            assert not response.ok  # nothing retained to fall back on
            assert response.error_code == "DEADLINE_EXCEEDED"


class TestStaleRetention:
    def test_default_cache_still_drops_mismatched_entries(self, engine, db):
        with CitationService(engine) as service:
            service.submit(CitationRequest(query=QUERY)).unwrap()
            db.insert("Family", (9102, "Family-Z", "d"))
            before = service.result_cache.stats()["invalidations"]
            # Token mismatch: dropped and recomputed.
            service.submit(CitationRequest(query=QUERY)).unwrap()
            assert service.result_cache.stats()["invalidations"] == before + 1
            assert len(service.result_cache) == 1  # only the fresh entry


class TestDeadlineUnderLoadIsFast:
    def test_request_latency_unaffected_when_idle(self, service):
        # Resilience machinery fully idle: no deadline, no admission, no
        # retry policy.  Sanity-level guard that the per-request overhead is
        # bounded; the real 5% gate is benchmarks/bench_e23_resilience.py.
        service.submit(CitationRequest(query=QUERY)).unwrap()
        started = time.perf_counter()
        for _ in range(50):
            service.submit(CitationRequest(query=QUERY)).unwrap()
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
