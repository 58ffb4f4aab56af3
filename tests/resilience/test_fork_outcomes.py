"""Tests for per-item fork fan-out outcomes, crash reporting and deadlines."""

from __future__ import annotations

import os
import time

import pytest

from repro.concurrency import fork_map_outcomes
from repro.errors import DeadlineExceeded, WorkerCrashError, is_transient
from repro.resilience.deadline import Deadline

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork fan-out is POSIX-only"
)


class TestOutcomes:
    def test_success_outcomes(self):
        outcomes = fork_map_outcomes(lambda x: x * x, [1, 2, 3])
        assert outcomes == [(1, None), (4, None), (9, None)]

    def test_child_exception_ships_the_typed_object(self):
        def work(x):
            if x == 1:
                raise DeadlineExceeded("shard", remaining=0.0)
            return x

        outcomes = fork_map_outcomes(work, [0, 1, 2])
        assert outcomes[0] == (0, None)
        assert outcomes[2] == (2, None)
        value, error = outcomes[1]
        assert value is None
        assert isinstance(error, DeadlineExceeded)
        assert error.where == "shard"

    def test_dead_child_becomes_worker_crash(self):
        def work(x):
            if x == "die":
                os._exit(42)
            return x

        outcomes = fork_map_outcomes(work, ["ok", "die"])
        assert outcomes[0] == ("ok", None)
        value, error = outcomes[1]
        assert value is None
        assert isinstance(error, WorkerCrashError)
        assert error.status == 42
        assert error.pid > 0
        assert is_transient(error)

    def test_unpicklable_exception_degrades_to_runtimeerror(self):
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        outcomes = fork_map_outcomes(
            lambda _x: (_ for _ in ()).throw(Unpicklable("boom")), [None]
        )
        value, error = outcomes[0]
        assert value is None
        assert isinstance(error, RuntimeError)
        assert "boom" in str(error)


class TestDeadline:
    def test_expired_deadline_kills_and_reaps_running_children(self, monkeypatch):
        forked = []
        real_fork = os.fork

        def recording_fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded) as raised:
            fork_map_outcomes(
                lambda x: time.sleep(x) or x, [0.0, 5.0], Deadline.after(0.2)
            )
        elapsed = time.monotonic() - started
        assert raised.value.where == "shard"
        assert elapsed < 2.0
        assert len(forked) == 2
        for pid in forked:  # reaped: no zombie is left to signal
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_children_inside_the_deadline_report_normally(self):
        outcomes = fork_map_outcomes(lambda x: x + 1, [1, 2], Deadline.after(30.0))
        assert outcomes == [(2, None), (3, None)]
