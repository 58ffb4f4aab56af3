"""Tests for the retry policy: taxonomy, backoff, deadline interaction."""

from __future__ import annotations

import pytest

from repro.errors import DeadlineExceeded, Overloaded, QueryError
from repro.resilience import Deadline, RetryPolicy


def flaky(failures, error_factory):
    """A callable failing *failures* times before succeeding."""
    calls = {"n": 0}

    def run():
        calls["n"] += 1
        if calls["n"] <= failures:
            raise error_factory()
        return "ok"

    run.calls = calls
    return run


class TestValidation:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_rejects_inverted_delays(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.5, max_delay=0.1)


class TestRetry:
    def test_transient_failures_are_absorbed(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)
        run = flaky(2, lambda: Overloaded("busy"))
        retried = []
        assert policy.call(run, on_retry=lambda n, e: retried.append(n)) == "ok"
        assert run.calls["n"] == 3
        assert retried == [1, 2]

    def test_overloaded_is_retryable(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0)
        assert policy.call(flaky(1, lambda: Overloaded("busy", 0.0))) == "ok"

    def test_permanent_errors_are_not_retried(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, max_delay=0.0)
        run = flaky(1, lambda: QueryError("bad request"))
        with pytest.raises(QueryError):
            policy.call(run)
        assert run.calls["n"] == 1

    def test_deadline_exceeded_is_never_retried(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, max_delay=0.0)
        run = flaky(1, lambda: DeadlineExceeded("join"))
        with pytest.raises(DeadlineExceeded):
            policy.call(run)
        assert run.calls["n"] == 1

    def test_exhausted_budget_reraises_last_error(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)
        run = flaky(99, lambda: Overloaded("busy"))
        with pytest.raises(Overloaded):
            policy.call(run)
        assert run.calls["n"] == 3

    def test_sleep_never_overruns_the_deadline(self):
        # Backoff would sleep >= 0.05s, but only ~0ms of budget remains:
        # the policy must abandon the retry immediately instead of sleeping.
        policy = RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=0.05)
        run = flaky(99, lambda: Overloaded("busy"))
        with pytest.raises(Overloaded):
            policy.call(run, deadline=Deadline.after(0.0))
        assert run.calls["n"] == 1

    def test_seeded_schedules_are_deterministic(self):
        delays_a = [RetryPolicy(seed=42)._next_delay(0.01) for _ in range(5)]
        delays_b = [RetryPolicy(seed=42)._next_delay(0.01) for _ in range(5)]
        assert delays_a == delays_b
        assert all(0.01 <= d <= 0.5 for d in delays_a)

    def test_delays_are_bounded(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.05, seed=7)
        delay = 0.01
        for _ in range(10):
            delay = policy._next_delay(delay)
            assert 0.01 <= delay <= 0.05

    def test_custom_classifier(self):
        policy = RetryPolicy(
            max_attempts=2,
            base_delay=0.0,
            max_delay=0.0,
            classify=lambda e: isinstance(e, KeyError),
        )
        assert policy.call(flaky(1, lambda: KeyError("x"))) == "ok"
