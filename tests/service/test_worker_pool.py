"""Service worker-pool contracts: batch deadlines, close semantics, sizing.

Three regression suites for the request pool:

* **deadline** — ``submit_batch(..., timeout=T)`` on a service built with
  ``max_workers=N`` must return within ``T`` plus scheduling slack even when
  a backend hangs far longer.  The old ad-hoc ``with ThreadPoolExecutor(...)``
  blocks shut down with ``wait=True`` on exit, so one straggler used to hold
  the whole batch hostage for its full runtime;
* **close** — :meth:`CitationService.close` detaches the mutation listener,
  so the old lazily recreated pool would serve post-close requests whose
  writes silently no longer counted into ``mutations_observed``.  Closed is
  now terminal: batch entry points raise, :meth:`submit` carries the error;
* **sizing** — the default worker count derives from the CPU count (bounded)
  via :func:`repro.concurrency.default_worker_count`.
"""

import threading
import time

import pytest

from repro.api.backend import BackendCapabilities, CitationBackend
from repro.api.envelope import CitationRequest
from repro.concurrency import MAX_DEFAULT_WORKERS, default_worker_count
from repro.core.citation import Citation
from repro.core.engine import CitationEngine
from repro.errors import CitationError
from repro.query.evaluator import QueryEvaluator
from repro.service.service import CitationService
from repro.workloads import gtopdb

#: Slack on top of the batch deadline: thread scheduling plus the service's
#: own bookkeeping, nowhere near the straggler's sleep.
DEADLINE_EPSILON = 0.5


def _service(max_workers=None):
    database = gtopdb.paper_instance()
    engine = CitationEngine(database, gtopdb.citation_views())
    return CitationService(engine, max_workers=max_workers), database


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
        """The regression: a batch pool built in a ``with`` block used to
        block on exit until the hung straggler finished."""
        service, _database = _service(max_workers=2)
        backend = SlowBackend(delay=10.0)
        service.register_backend(backend)
        try:
            started = time.monotonic()
            responses = service.submit_batch(self._requests(2), timeout=0.2)
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
        service, _database = _service(max_workers=3)
        backend = SlowBackend(delay=10.0)
        service.register_backend(backend)
        queries = [f"q{i}" for i in range(2)]
        # Explicit backend requests keep the batch on the slow stub backend.
        requests = self._requests(2)
        try:
            started = time.monotonic()
            service.submit_batch(requests, timeout=0.2)
            assert time.monotonic() - started < 0.2 + DEADLINE_EPSILON
            assert queries  # silence the unused warning without popping scope
        finally:
            backend.release.set()
            service.close()

    def test_straggler_still_finishes_in_the_background(self):
        """The deadline must not cancel the worker: the documented contract
        is that a timed-out straggler completes and may write through to the
        caches."""
        service, _database = _service(max_workers=2)
        backend = SlowBackend(delay=10.0)
        service.register_backend(backend)
        try:
            responses = service.submit_batch(self._requests(1), timeout=0.1)
            assert isinstance(responses[0].error, TimeoutError)
            assert backend.started.wait(1.0)
            backend.release.set()
            assert backend.finished.wait(2.0), "straggler was cancelled"
        finally:
            backend.release.set()
            service.close()

    def test_fast_batch_is_unaffected(self):
        service, _database = _service(max_workers=2)
        try:
            query = "Q(FName) :- Family(FID, FName, Desc)"
            responses = service.submit_batch([CitationRequest(query=query)], timeout=30.0)
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
        """The seams perfbench reads, so that dropping one fails here rather
        than in a benchmark run: ``perfbench/run.py::settings`` reads
        ``workers``, ``strategy`` and ``parallel_backend`` from
        ``stats()["engine"]``, ``perfbench/run.py::counters`` reads
        ``parallel`` and ``serial`` from the evaluation metrics'
        ``sharding`` block, and ``perfbench/layers.py::HOOKS`` resolves
        ``QueryEvaluator.compile``, ``reduction_of``, ``prelude_for`` and
        ``evaluate_with_bindings`` with ``getattr`` under ``--trace 1``."""
        for name in ("compile", "reduction_of", "prelude_for", "evaluate_with_bindings"):
            assert callable(getattr(QueryEvaluator, name)), name
        database = gtopdb.paper_instance()
        engine = CitationEngine(database, gtopdb.citation_views())
        service = CitationService(engine, max_workers=5)
        try:
            for query in (
                "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
                "Q(FName) :- Family(FID, FName, Desc)",
            ):
                assert service.submit(CitationRequest(query=query)).ok
            snapshot = service.stats()
            assert snapshot["workers"] == 5
            assert snapshot["engine"]["workers"] == 1
            assert snapshot["engine"]["strategy"] == "program"
            assert snapshot["engine"]["parallel_backend"] == "serial"
            metrics = engine.evaluation_metrics.snapshot()
            assert metrics["evaluations"] > 0
            assert metrics["sharding"]["parallel"] == 0
            assert metrics["sharding"]["serial"] == metrics["evaluations"]
            assert snapshot["evaluation"]["sharding"] == metrics["sharding"]
        finally:
            service.close()


class GatedCompileBackend(SlowBackend):
    """A plan-cached backend whose compiles block until released."""

    name = "gated"

    def __init__(self) -> None:
        super().__init__(delay=0.0)
        self.compiled: list[str] = []

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="gated", supports_plan_cache=True, supports_result_cache=False
        )

    def compile(self, parsed, request):
        self.compiled.append(parsed)
        self.release.wait(5.0)
        return parsed

    def execute(self, plan, parsed, request):
        return f"answer:{plan}"


class TestSingleFlightCompile:
    def test_one_compile_per_key_while_other_keys_compile(self):
        service, _database = _service()
        backend = GatedCompileBackend()
        service.register_backend(backend)
        responses = []
        threads = [
            threading.Thread(
                target=lambda q=q: responses.append(
                    service.submit(CitationRequest(query=q, backend="gated"))
                )
            )
            for q in ("a", "a", "a", "b")
        ]
        try:
            for thread in threads:
                thread.start()
            # "b" compiles while "a"'s compile holds its own key.
            deadline = time.monotonic() + 2.0
            while sorted(set(backend.compiled)) != ["a", "b"] and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sorted(set(backend.compiled)) == ["a", "b"]
        finally:
            backend.release.set()
            for thread in threads:
                thread.join(5.0)
            service.close()
        assert sorted(backend.compiled) == ["a", "b"]
        assert sorted(response.result for response in responses) == [
            "answer:a", "answer:a", "answer:a", "answer:b"
        ]
        assert service.metrics.counter("plan_cache_hits") == 2

    def test_a_waiter_gives_up_at_its_own_deadline(self):
        """A request waiting on another's compile of its key answers
        ``DEADLINE_EXCEEDED`` when its own deadline passes, while the holder
        is still compiling; the holder then answers normally."""
        service, _database = _service()
        backend = GatedCompileBackend()
        service.register_backend(backend)
        holder: list = []
        thread = threading.Thread(
            target=lambda: holder.append(
                service.submit(CitationRequest(query="a", backend="gated"))
            )
        )
        # Bounds the wait of a waiter that ignores its deadline.
        gate = threading.Timer(2.0, backend.release.set)
        try:
            thread.start()
            deadline = time.monotonic() + 2.0
            while backend.compiled != ["a"] and time.monotonic() < deadline:
                time.sleep(0.01)
            assert backend.compiled == ["a"]
            gate.start()
            started = time.monotonic()
            waiter = service.submit(
                CitationRequest(query="a", backend="gated", timeout=0.05)
            )
            elapsed = time.monotonic() - started
            holding = not backend.release.is_set()
        finally:
            gate.cancel()
            backend.release.set()
            thread.join(5.0)
            service.close()
        assert waiter.error_code == "DEADLINE_EXCEEDED"
        assert elapsed < 0.5 and holding
        assert [response.result for response in holder] == ["answer:a"]
        assert backend.compiled == ["a"]
        assert service._flights == {}
        assert service.metrics.counter("errors_timeout") == 1
