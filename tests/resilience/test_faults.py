"""Tests for the deterministic fault-injection registry."""

from __future__ import annotations

import pytest

from repro.errors import Overloaded
from repro.resilience.faults import (
    POINTS,
    FaultRegistry,
    FaultSpec,
    clear,
    fire,
    inject,
    plan,
    registry,
)


@pytest.fixture(autouse=True)
def disarm():
    """Never leak armed faults into other tests."""
    yield
    clear()


class TestArming:
    def test_unknown_point_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            inject(FaultSpec("no.such.point", error=RuntimeError("boom")))

    def test_fire_with_nothing_armed_is_a_noop(self):
        for point in POINTS:
            fire(point)

    def test_plan_disarms_on_exit(self):
        with plan(FaultSpec("backend.execute", error=RuntimeError("boom"))):
            with pytest.raises(RuntimeError):
                fire("backend.execute")
        fire("backend.execute")  # disarmed again


class TestEffects:
    def test_error_instance_is_raised(self):
        with plan(FaultSpec("backend.execute", error=Overloaded("synthetic", 0.2))):
            with pytest.raises(Overloaded) as excinfo:
                fire("backend.execute")
            assert excinfo.value.retry_after == 0.2

    def test_error_factory_is_called(self):
        with plan(FaultSpec("service.pool_submit", error=ConnectionError)):
            with pytest.raises(ConnectionError):
                fire("service.pool_submit")

    def test_stall_then_error(self):
        spec = FaultSpec("prelude.build", stall=0.001, error=RuntimeError("slow boom"))
        with plan(spec):
            with pytest.raises(RuntimeError):
                fire("prelude.build")
        assert spec.fired == 1


class TestSelectors:
    def test_key_restricts_firing(self):
        spec = FaultSpec("service.pool_submit", error=RuntimeError("boom"), key=2)
        with plan(spec):
            fire("service.pool_submit", key=0)
            fire("service.pool_submit", key=1)
            with pytest.raises(RuntimeError):
                fire("service.pool_submit", key=2)
        assert spec.hits == 1  # only the matching key counted

    def test_after_skips_initial_hits(self):
        spec = FaultSpec("backend.execute", error=RuntimeError("boom"), after=2)
        with plan(spec):
            fire("backend.execute")
            fire("backend.execute")
            with pytest.raises(RuntimeError):
                fire("backend.execute")

    def test_times_bounds_firing(self):
        spec = FaultSpec("backend.execute", error=RuntimeError("boom"), times=2)
        with plan(spec):
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    fire("backend.execute")
            fire("backend.execute")  # budget spent: silent
        assert spec.fired == 2

    def test_probability_is_seed_deterministic(self):
        def firings(seed: int) -> list[bool]:
            reg = FaultRegistry(seed=seed)
            reg.inject(FaultSpec("backend.execute", error=RuntimeError("boom"), probability=0.5))
            out = []
            for _ in range(32):
                try:
                    reg.fire("backend.execute")
                    out.append(False)
                except RuntimeError:
                    out.append(True)
            return out

        run_a, run_b = firings(1234), firings(1234)
        assert run_a == run_b
        assert any(run_a) and not all(run_a)  # p=0.5 over 32 draws

    def test_reseed_replays_probability_sequence(self):
        reg = registry()
        spec = FaultSpec("backend.execute", error=RuntimeError("boom"), probability=0.5)

        def sequence() -> list[bool]:
            out = []
            for _ in range(16):
                try:
                    reg.fire("backend.execute")
                    out.append(False)
                except RuntimeError:
                    out.append(True)
            return out

        with reg.plan(spec, seed=99):
            first = sequence()
        spec_b = FaultSpec("backend.execute", error=RuntimeError("boom"), probability=0.5)
        with reg.plan(spec_b, seed=99):
            assert sequence() == first
