"""Chaos suite: deterministic fault injection against the serving stack.

Run with ``pytest -m chaos`` (tier-1 deselects the marker).  Every scenario
audits the same two invariants after the dust settles:

* **exactly one response per request** — nothing lost, nothing duplicated,
  each response aligned with its request id; and
* **exact metric conservation** — once quiescent,
  ``requests == responses + deduplicated`` and every materialised response
  is exactly one of an execution, a result-cache hit, a stale serve, or a
  classified error.

Faults are seed-driven (see :mod:`repro.resilience.faults`), so any failure
replays byte-identically.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import CitationEngine, CitationService
from repro.api.envelope import CitationRequest
from repro.errors import Overloaded
from repro.resilience import RetryPolicy
from repro.resilience.faults import FaultSpec, clear as clear_faults, plan as fault_plan
from repro.workloads import gtopdb

pytestmark = pytest.mark.chaos

QUERIES = [
    "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
    "Q2(FID, Text) :- FamilyIntro(FID, Text)",
    "Q3(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
    "Q4(FID) :- Family(FID, FName, Desc)",
]

#: Error codes a deadline storm may legitimately produce.
STORM_CODES = {"DEADLINE_EXCEEDED", "TIMEOUT"}


@pytest.fixture(autouse=True)
def disarm_faults():
    yield
    clear_faults()


@pytest.fixture
def db():
    # Sized so one warm execution takes ~5-20ms: big enough for a storm
    # deadline to cancel mid-join, small enough to keep the suite quick.
    return gtopdb.generate(families=300, targets_per_family=3, ligands=200, seed=11)


@pytest.fixture
def engine(db):
    return CitationEngine(db, gtopdb.citation_views())


def conservation(counters: dict) -> None:
    """The exact response-accounting identities every scenario must satisfy."""
    assert counters["requests"] == counters["responses"] + counters["deduplicated"]
    assert counters["responses"] == (
        counters["executions"]
        + counters["result_cache_hits"]
        + counters["stale_served"]
        + counters["errors"]
    )
    assert counters["errors"] == (
        counters["errors_timeout"]
        + counters["errors_shed"]
        + counters["errors_permanent"]
    )


def await_quiescence(service: CitationService, budget: float = 0.5) -> dict:
    """Wait (bounded) until every in-flight worker has settled; return counters.

    Quiescence is observable purely through the metrics: each request's
    worker eventually materialises exactly one counted response, so
    ``requests == responses + deduplicated`` holds once no worker is
    executing.  The 0.5s budget is the issue's hard bound: a deadline storm
    must leave no worker still executing half a second after the call
    returned.
    """
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        counters = service.stats()["counters"]
        if counters["requests"] == counters["responses"] + counters["deduplicated"]:
            return counters
        time.sleep(0.01)
    return service.stats()["counters"]


class TestDeadlineStorm:
    def test_storm_loses_nothing_and_conserves_metrics(self, engine):
        with CitationService(engine, max_workers=4) as service:
            # Warm the plans; the storm pays execution only.
            for query in QUERIES:
                service.submit(CitationRequest(query=query)).unwrap()
            baseline = service.stats()["counters"]
            # 36 requests (duplicates included) against an ~8ms budget over
            # 5-20ms executions: most cancel mid-join, some squeak through.
            requests = [
                CitationRequest(
                    query=QUERIES[i % len(QUERIES)],
                    request_id=f"storm-{i}",
                    metadata={"no_result_cache": True},
                )
                for i in range(36)
            ]
            returned_at = time.monotonic()
            responses = service.submit_batch(requests, timeout=0.008)
            returned_in = time.monotonic() - returned_at
            # The batch honours its response deadline (+ the bounded
            # cancellation grace), it does not run to completion.
            assert returned_in < 3.0

            # Exactly one response per request, positionally aligned.
            assert len(responses) == len(requests)
            assert [r.request_id for r in responses] == [
                f"storm-{i}" for i in range(len(requests))
            ]
            for response in responses:
                if not response.ok:
                    assert response.error_code in STORM_CODES

            counters = await_quiescence(service)
            conservation(counters)
            # No worker is still executing: half a second of silence.
            time.sleep(0.1)
            settled = service.stats()["counters"]
            assert settled == counters
            # The storm really exercised cancellation, not just fast paths.
            assert counters["errors_timeout"] > baseline.get("errors_timeout", 0) or (
                counters["timeouts"] > 0
            )
            assert counters["errors_permanent"] == 0
            assert counters["errors_shed"] == 0

    def test_stalled_backend_is_cancelled_not_awaited(self, engine):
        with CitationService(engine) as service:
            service.submit(CitationRequest(query=QUERIES[0])).unwrap()
            with fault_plan(FaultSpec("backend.execute", stall=0.1)):
                started = time.perf_counter()
                response = service.submit(
                    CitationRequest(
                        query=QUERIES[0],
                        timeout=0.02,
                        metadata={"no_result_cache": True},
                    )
                )
                elapsed = time.perf_counter() - started
            assert not response.ok
            assert response.error_code == "DEADLINE_EXCEEDED"
            # The stall itself is unavoidable (no checkpoint inside a hung
            # dependency) but the first checkpoint after it cancels.
            assert elapsed < 1.0
            conservation(service.stats()["counters"])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork backend is POSIX-only")
class TestForkWorkerCrash:
    def test_killed_shard_child_degrades_to_serial_retry(self, db):
        engine = CitationEngine(
            db, gtopdb.citation_views(), strategy="parallel", workers=2
        )
        expected = frozenset(engine.cite(QUERIES[0]).result.rows)
        engine.invalidate_caches()
        with fault_plan(FaultSpec("fork.child", key=0, exit_status=42)):
            result = engine.cite(QUERIES[0])
        # Byte-identical answers despite shard 0's worker dying mid-flight.
        assert frozenset(result.result.rows) == expected
        sharding = engine.evaluation_metrics.snapshot()["sharding"]
        assert sharding["degraded_retries"] >= 1

    def test_every_child_killed_still_answers(self, db):
        engine = CitationEngine(
            db, gtopdb.citation_views(), strategy="parallel", workers=2
        )
        expected = frozenset(engine.cite(QUERIES[2]).result.rows)
        engine.invalidate_caches()
        with fault_plan(FaultSpec("fork.child", exit_status=9)):
            result = engine.cite(QUERIES[2])
        assert frozenset(result.result.rows) == expected
        sharding = engine.evaluation_metrics.snapshot()["sharding"]
        assert sharding["degraded_retries"] >= 2

    def test_crash_through_the_service_conserves_metrics(self, db):
        engine = CitationEngine(
            db, gtopdb.citation_views(), strategy="parallel", workers=2
        )
        with CitationService(engine) as service:
            baseline = service.submit(CitationRequest(query=QUERIES[0]))
            assert baseline.ok
            with fault_plan(FaultSpec("fork.child", key=1, exit_status=42)):
                degraded = service.submit(
                    CitationRequest(
                        query=QUERIES[0], metadata={"no_result_cache": True}
                    )
                )
            assert degraded.ok
            assert degraded.row_count == baseline.row_count
            counters = service.stats()["counters"]
            conservation(counters)
            assert counters["errors"] == 0


    def test_stalled_child_is_killed_at_the_deadline(self, db, monkeypatch):
        engine = CitationEngine(
            db, gtopdb.citation_views(), strategy="parallel", workers=2
        )
        forked = []
        real_fork = os.fork

        def recording_fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        with CitationService(engine) as service:
            service.submit(CitationRequest(query=QUERIES[0])).unwrap()
            monkeypatch.setattr(os, "fork", recording_fork)
            # Shard 0's child stalls before its first checkpoint, so only the
            # parent can enforce the deadline.
            with fault_plan(FaultSpec("fork.child", stall=3.0, key=0)):
                started = time.perf_counter()
                response = service.submit(
                    CitationRequest(
                        query=QUERIES[0],
                        timeout=0.3,
                        metadata={"no_result_cache": True},
                    )
                )
                elapsed = time.perf_counter() - started
            assert response.error_code == "DEADLINE_EXCEEDED"
            assert elapsed < 0.3 + 0.5
            conservation(service.stats()["counters"])
        assert forked
        for pid in forked:  # reaped: no child process is left
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestAdmissionShedding:
    def test_saturated_service_sheds_and_conserves(self, engine):
        release = threading.Event()
        entered = threading.Event()
        original = engine.execute_plan

        def gated_execute(plan, query=None):
            entered.set()
            release.wait(timeout=10.0)
            return original(plan, query)

        engine.execute_plan = gated_execute
        try:
            with CitationService(engine, max_inflight=1, queue_depth=0) as service:
                holder = threading.Thread(
                    target=service.submit,
                    args=(CitationRequest(query=QUERIES[0]),),
                )
                holder.start()
                assert entered.wait(timeout=10.0)
                shed = [
                    service.submit(CitationRequest(query=QUERIES[i % len(QUERIES)]))
                    for i in range(1, 4)
                ]
                release.set()
                holder.join(timeout=10.0)
                assert all(not response.ok for response in shed)
                assert all(
                    isinstance(response.error, Overloaded) for response in shed
                )
                assert all(
                    response.error.retry_after > 0.0 for response in shed
                )
                counters = await_quiescence(service)
                conservation(counters)
                assert counters["errors_shed"] == 3
                assert counters["executions"] == 1
                assert service.stats()["admission"]["shed"] == 3
        finally:
            engine.execute_plan = original

    def test_shed_requests_recover_on_retry(self, engine):
        # A shed request is transient by contract: once capacity frees up,
        # the same request succeeds.
        with CitationService(engine, max_inflight=2, queue_depth=1) as service:
            response = service.submit(CitationRequest(query=QUERIES[1]))
            assert response.ok
            counters = service.stats()["counters"]
            conservation(counters)


class TestRetryUnderFaults:
    def test_seeded_probabilistic_faults_are_absorbed(self, engine):
        policy = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0, seed=7)
        with CitationService(engine, retry_policy=policy) as service:
            with fault_plan(
                FaultSpec(
                    "backend.execute",
                    error=Overloaded("synthetic pressure", 0.01),
                    probability=0.4,
                ),
                seed=1234,
            ):
                responses = [
                    service.submit(
                        CitationRequest(
                            query=QUERIES[i % len(QUERIES)],
                            metadata={"no_result_cache": True},
                        )
                    )
                    for i in range(16)
                ]
            # With p=0.4 and 4 attempts the chance any request exhausts its
            # budget is ~2.6% per request; the fixed seeds make this run (and
            # any failure of it) replay byte-identically.
            failed = [r for r in responses if not r.ok]
            assert all(r.error_code == "OVERLOADED" for r in failed)
            counters = service.stats()["counters"]
            conservation(counters)
            assert counters["errors_transient_retried"] > 0
            assert counters["executions"] + counters["errors_shed"] >= len(QUERIES)

    def test_retry_does_not_duplicate_executions_on_success(self, engine):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, seed=3)
        with CitationService(engine, retry_policy=policy) as service:
            with fault_plan(
                FaultSpec("backend.execute", error=ConnectionError, times=1)
            ):
                response = service.submit(CitationRequest(query=QUERIES[3]))
            assert response.ok
            counters = service.stats()["counters"]
            assert counters["executions"] == 1
            assert counters["errors_transient_retried"] == 1
            conservation(counters)


class TestStaleServing:
    def test_deadline_pressure_serves_stamped_stale_entry(self, engine, db):
        with CitationService(engine, serve_stale=True) as service:
            fresh = service.submit(CitationRequest(query=QUERIES[0]))
            assert fresh.ok
            # A new row in a relation the query's views read: only a new
            # execution can bring the entry forward.
            db.insert("Family", (777_001, "F-chaos", "d"))
            with fault_plan(FaultSpec("backend.execute", stall=0.05)):
                degraded = service.submit(
                    CitationRequest(query=QUERIES[0], timeout=0.01)
                )
            assert degraded.ok
            assert degraded.stale
            assert degraded.row_count == fresh.row_count
            counters = service.stats()["counters"]
            conservation(counters)
            assert counters["stale_served"] == 1
            assert counters["errors"] == 0

    def test_overload_pressure_serves_stale_too(self, engine, db):
        release = threading.Event()
        entered = threading.Event()
        original = engine.execute_plan

        def gated_execute(plan, query=None):
            entered.set()
            release.wait(timeout=10.0)
            return original(plan, query)

        with CitationService(
            engine, max_inflight=1, queue_depth=0, serve_stale=True
        ) as service:
            warm = service.submit(CitationRequest(query=QUERIES[0]))
            assert warm.ok
            db.insert("Family", (777_002, "F-chaos-2", "d"))
            engine.execute_plan = gated_execute
            try:
                holder = threading.Thread(
                    target=service.submit,
                    args=(
                        CitationRequest(
                            query=QUERIES[1], metadata={"no_result_cache": True}
                        ),
                    ),
                )
                holder.start()
                assert entered.wait(timeout=10.0)
                degraded = service.submit(CitationRequest(query=QUERIES[0]))
                release.set()
                holder.join(timeout=10.0)
            finally:
                engine.execute_plan = original
            assert degraded.ok
            assert degraded.stale
            counters = await_quiescence(service)
            conservation(counters)
            assert counters["stale_served"] == 1


class TestPoolSubmitFaults:
    def test_submission_failure_is_isolated_to_its_representative(self, engine):
        with CitationService(engine, max_workers=2) as service:
            requests = [
                CitationRequest(query=QUERIES[i], request_id=f"sub-{i}")
                for i in range(len(QUERIES))
            ]
            with fault_plan(
                FaultSpec(
                    "service.pool_submit", key=1, error=RuntimeError("pool rejected")
                )
            ):
                responses = service.submit_batch(requests, timeout=5.0)
            assert len(responses) == len(requests)
            assert [r.request_id for r in responses] == [
                f"sub-{i}" for i in range(len(requests))
            ]
            by_ok = [response.ok for response in responses]
            assert by_ok.count(False) == 1
            assert not responses[1].ok
            assert responses[1].error_code == "RUNTIMEERROR"
            counters = await_quiescence(service)
            conservation(counters)
            assert counters["errors_permanent"] == 1
