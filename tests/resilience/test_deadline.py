"""Tests for propagated deadlines and cooperative cancellation checkpoints."""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro import CitationEngine
from repro.core.engine import AtomCache
from repro.errors import DeadlineExceeded, is_transient
from repro.observability import RingBufferSink, Tracer, use_tracer
from repro.resilience import Deadline, current_deadline, deadline_scope
from repro.resilience.deadline import CHECK_STRIDE
from repro.workloads import gtopdb


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(60.0)
        assert 59.0 < deadline.remaining() <= 60.0
        assert not deadline.expired()

    def test_expired_deadline_check_raises_with_location(self):
        deadline = Deadline.after(0.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("join-loop")
        assert excinfo.value.where == "join-loop"
        assert "join-loop" in str(excinfo.value)

    def test_unexpired_check_is_silent(self):
        Deadline.after(60.0).check("anywhere")

    def test_negative_budget_clamps_to_now(self):
        assert Deadline.after(-5.0).remaining() == 0.0

    def test_union_picks_the_tighter(self):
        near = Deadline.after(1.0)
        far = Deadline.after(60.0)
        assert near.union(far) is near
        assert far.union(near) is near
        assert near.union(None) is near

    def test_deadline_exceeded_is_timeout_but_not_transient(self):
        error = DeadlineExceeded("join")
        assert isinstance(error, TimeoutError)
        assert not is_transient(error)

    def test_checker_only_reads_clock_every_stride(self):
        expired = Deadline(time.monotonic() - 1.0)
        cancel = expired.checker("loop")
        # The first stride-1 calls never consult the clock.
        for _ in range(CHECK_STRIDE - 1):
            cancel()
        with pytest.raises(DeadlineExceeded):
            cancel()

    def test_checker_custom_stride(self):
        expired = Deadline(time.monotonic() - 1.0)
        cancel = expired.checker("loop", stride=4)
        for _ in range(3):
            cancel()
        with pytest.raises(DeadlineExceeded):
            cancel()


class TestDeadlineScope:
    def test_no_ambient_deadline_by_default(self):
        assert current_deadline() is None

    def test_scope_installs_and_resets(self):
        deadline = Deadline.after(10.0)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_nested_scopes_tighten(self):
        outer = Deadline.after(1.0)
        inner = Deadline.after(60.0)
        with deadline_scope(outer):
            with deadline_scope(inner):
                # A generous inner timeout cannot extend the outer budget.
                assert current_deadline() is outer
            assert current_deadline() is outer

    def test_nested_tighter_scope_wins(self):
        outer = Deadline.after(60.0)
        inner = Deadline.after(1.0)
        with deadline_scope(outer):
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer

    def test_none_scope_preserves_ambient(self):
        ambient = Deadline.after(5.0)
        with deadline_scope(ambient):
            with deadline_scope(None):
                assert current_deadline() is ambient


class TestCheckpointCounts:
    """Checkpoints are counted, not timed: a clock read per scanned row costs
    a few percent of a request, too little for a timing gate to see, so the
    number of ``Deadline.check`` calls is bounded instead.

    Q6 is executed once, cold, under a one-hour deadline and a tracer whose
    ``join.step`` spans count the rows each evaluation scanned.  The join
    reads the clock every ``CHECK_STRIDE`` rows; assembly every
    ``CHECK_STRIDE`` rows and after each row that fetched a record.
    """

    @pytest.fixture(scope="class")
    def database(self):
        return gtopdb.generate(families=80, targets_per_family=3, seed=17)

    def test_checks_stay_within_their_strides(self, database, monkeypatch):
        checks: Counter[str] = Counter()
        fetched = 0
        check, fetch = Deadline.check, AtomCache.__missing__

        def counting_check(deadline, where=""):
            checks[where] += 1
            check(deadline, where)

        def counting_fetch(cache, key):
            nonlocal fetched
            fetched += 1
            return fetch(cache, key)

        engine = CitationEngine(database, gtopdb.citation_views(extended=True))
        plan = engine.compile_plan(gtopdb.example_queries()[5])  # Q6
        monkeypatch.setattr(Deadline, "check", counting_check)
        monkeypatch.setattr(AtomCache, "__missing__", counting_fetch)
        sink = RingBufferSink()
        with use_tracer(Tracer(sinks=[sink])), deadline_scope(Deadline.after(3600.0)):
            result = engine.execute_plan(plan)

        evaluations = sink.last().find_all("query.evaluate")
        steps = [span.find_all("join.step") for span in evaluations]
        scanned = sum(step.attributes["rows_scanned"] for spans in steps for step in spans)
        main = max(sum(step.attributes["rows_scanned"] for step in spans) for spans in steps)
        assert main >= 20 * CHECK_STRIDE
        assert checks["join"] <= scanned // CHECK_STRIDE + 2
        rows = len(result.tuple_citations)
        assert fetched > 0
        assert checks["assembly"] <= rows // CHECK_STRIDE + fetched + 1
