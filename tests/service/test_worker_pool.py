"""Service worker-pool contracts: batch deadlines, close semantics, sizing.

Three regression suites for the pool bugs fixed alongside sharded evaluation:

* **deadline** — ``submit_batch(..., timeout=T, max_workers=N)`` must return
  within ``T`` plus scheduling slack even when a backend hangs far longer.
  The old ad-hoc ``with ThreadPoolExecutor(...)`` blocks shut down with
  ``wait=True`` on exit, so one straggler used to hold the whole batch
  hostage for its full runtime;
* **close** — :meth:`CitationService.close` detaches the mutation listener,
  so the old lazily recreated pool would serve post-close requests whose
  writes silently no longer counted into ``mutations_observed``.  Closed is
  now terminal: batch entry points raise, :meth:`submit` carries the error;
* **sizing** — the default worker count derives from the CPU count (bounded),
  shared with the evaluator's shard count via
  :func:`repro.concurrency.default_worker_count`.
"""

import os
import threading
import time

import pytest

from repro.api.backend import BackendCapabilities, CitationBackend
from repro.api.envelope import CitationRequest
from repro.concurrency import MAX_DEFAULT_WORKERS, default_worker_count
from repro.core.citation import Citation
from repro.core.engine import CitationEngine
from repro.errors import CitationError
from repro.service.service import CitationService
from repro.workloads import gtopdb

#: Slack on top of the batch deadline: thread scheduling plus the service's
#: own bookkeeping, nowhere near the straggler's sleep.
DEADLINE_EPSILON = 0.5


def _service():
    database = gtopdb.paper_instance()
    engine = CitationEngine(database, gtopdb.citation_views())
    return CitationService(engine), database


class SlowBackend(CitationBackend):
    """A backend whose execute blocks until released (or a long timeout)."""

    name = "slow"

    def __init__(self, delay: float = 10.0) -> None:
        self.delay = delay
        self.release = threading.Event()
        self.started = threading.Event()
        self.finished = threading.Event()

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="slow",
            supports_plan_cache=False,
            supports_result_cache=False,
        )

    def parse(self, request: CitationRequest):
        return request.query

    def fingerprint(self, parsed, request) -> str:
        return f"slow:{parsed}"

    def compile(self, parsed, request):
        return parsed

    def execute(self, plan, parsed, request):
        self.started.set()
        self.release.wait(self.delay)
        self.finished.set()
        return f"answer:{parsed}"

    def result_token(self, request):
        return 0

    def citation_of(self, result) -> Citation:
        return Citation((), query_text=str(result))

    def row_count(self, result):
        return None


class TestBatchDeadline:
    def _requests(self, count: int) -> list[CitationRequest]:
        # Distinct payloads so within-batch deduplication cannot collapse them.
        return [
            CitationRequest(query=f"q{i}", backend="slow") for i in range(count)
        ]

    def test_submit_batch_returns_within_timeout_with_explicit_workers(self):
        """The regression: an explicit ``max_workers`` used to build the pool
        in a ``with`` block whose exit blocked on the hung straggler."""
        service, _database = _service()
        backend = SlowBackend(delay=10.0)
        service.register_backend(backend)
        try:
            started = time.monotonic()
            responses = service.submit_batch(
                self._requests(2), timeout=0.2, max_workers=2
            )
            elapsed = time.monotonic() - started
            assert elapsed < 0.2 + DEADLINE_EPSILON, (
                f"submit_batch blocked {elapsed:.2f}s past its 0.2s deadline"
            )
            assert len(responses) == 2
            for response in responses:
                assert isinstance(response.error, TimeoutError)
        finally:
            backend.release.set()
            service.close()

    def test_cite_many_honours_the_deadline_with_explicit_workers(self):
        service, _database = _service()
        backend = SlowBackend(delay=10.0)
        service.register_backend(backend)
        queries = [f"q{i}" for i in range(2)]
        # Explicit backend requests keep the batch on the slow stub backend.
        requests = self._requests(2)
        try:
            started = time.monotonic()
            service.submit_batch(requests, timeout=0.2, max_workers=3)
            assert time.monotonic() - started < 0.2 + DEADLINE_EPSILON
            assert queries  # silence the unused warning without popping scope
        finally:
            backend.release.set()
            service.close()

    def test_straggler_still_finishes_in_the_background(self):
        """wait=False must not cancel the worker: the documented contract is
        that a timed-out straggler completes and may write through to the
        caches."""
        service, _database = _service()
        backend = SlowBackend(delay=10.0)
        service.register_backend(backend)
        try:
            responses = service.submit_batch(
                self._requests(1), timeout=0.1, max_workers=2
            )
            assert isinstance(responses[0].error, TimeoutError)
            assert backend.started.wait(1.0)
            backend.release.set()
            assert backend.finished.wait(2.0), "straggler was cancelled"
        finally:
            backend.release.set()
            service.close()

    def test_fast_batch_is_unaffected(self):
        service, _database = _service()
        try:
            query = "Q(FName) :- Family(FID, FName, Desc)"
            responses = service.submit_batch(
                [CitationRequest(query=query)], timeout=30.0, max_workers=2
            )
            assert responses[0].ok
        finally:
            service.close()


class TestCloseContract:
    def test_close_is_idempotent(self):
        service, _database = _service()
        service.close()
        service.close()

    def test_post_close_submit_carries_a_clear_error(self):
        service, _database = _service()
        service.close()
        response = service.submit(
            CitationRequest(query="Q(FName) :- Family(FID, FName, Desc)")
        )
        assert isinstance(response.error, CitationError)
        assert "closed" in str(response.error)

    def test_post_close_batches_raise(self):
        service, _database = _service()
        query = "Q(FName) :- Family(FID, FName, Desc)"
        service.close()
        with pytest.raises(CitationError, match="closed"):
            service.submit_batch([CitationRequest(query=query)])

    def test_post_close_mutations_are_not_counted(self):
        """The bug this contract pins down: a resurrected post-close pool
        served requests while ``mutations_observed`` silently stopped
        counting.  Closed now refuses to serve, so the metric can never
        drift relative to served traffic."""
        service, database = _service()
        service.submit(
            CitationRequest(query="Q(FName) :- Family(FID, FName, Desc)")
        ).unwrap()
        before = service.metrics.stats()["counters"].get("mutations_observed", 0)
        database.insert("Family", (91, "PreClose", "PD"))
        after = service.metrics.stats()["counters"].get("mutations_observed", 0)
        assert after == before + 1
        service.close()
        database.insert("Family", (92, "PostClose", "PD"))
        final = service.metrics.stats()["counters"].get("mutations_observed", 0)
        assert final == after  # detached exactly once, no further drift

    def test_context_manager_closes_terminally(self):
        service, _database = _service()
        with service:
            service.submit(
                CitationRequest(query="Q(FName) :- Family(FID, FName, Desc)")
            ).unwrap()
        with pytest.raises(CitationError, match="closed"):
            service.submit_batch(
                [CitationRequest(query="Q(FName) :- Family(FID, FName, Desc)")]
            )


class TestWorkerSizing:
    def test_default_derives_from_cpu_count(self):
        service, _database = _service()
        try:
            assert service.max_workers == default_worker_count()
            assert 2 <= service.max_workers <= MAX_DEFAULT_WORKERS
        finally:
            service.close()

    def test_explicit_worker_count_is_respected(self):
        database = gtopdb.paper_instance()
        engine = CitationEngine(database, gtopdb.citation_views())
        service = CitationService(engine, max_workers=6)
        try:
            assert service.max_workers == 6
        finally:
            service.close()

    def test_nonpositive_worker_count_rejected(self):
        database = gtopdb.paper_instance()
        engine = CitationEngine(database, gtopdb.citation_views())
        with pytest.raises(CitationError):
            CitationService(engine, max_workers=0)

    def test_stats_expose_workers_and_parallel_knobs(self):
        database = gtopdb.paper_instance()
        engine = CitationEngine(database, gtopdb.citation_views(), workers=3)
        service = CitationService(engine, max_workers=5)
        try:
            snapshot = service.stats()
            assert snapshot["workers"] == 5
            assert snapshot["engine"]["workers"] == 3
            assert snapshot["engine"]["parallel_backend"] == (
                "fork" if hasattr(os, "fork") else "serial"
            )
            assert "sharding" in snapshot["evaluation"]
        finally:
            service.close()
