"""Deterministic, seed-driven fault injection for the chaos suite.

Production code calls :func:`fire` at **named injection points** — the three
places where the serving stack crosses a concurrency boundary or starts
costly work, and where failures actually happen:

================================= ==============================================
point                             fired from
================================= ==============================================
``service.pool_submit``           batch worker-pool submission
``backend.execute``               just before the backend executes a request
``prelude.build``                 before a semi-join prelude refresh
================================= ==============================================

With no faults armed, :func:`fire` is a truthiness test on an empty dict —
cheap enough to leave compiled in.  Tests arm faults through
:func:`inject`/:func:`plan`: a :class:`FaultSpec` names its point and what
happens on a hit (raise a typed error or stall).  ``after``/``times``
select *which* hits fire and ``probability`` draws from a
``random.Random(seed)``, so a chaos run is a pure function of its seed —
every failure it finds replays exactly.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..concurrency import shared_state

__all__ = ["FaultSpec", "FaultRegistry", "fire", "inject", "clear", "plan", "registry"]

#: The injection points production code fires.  ``inject`` validates against
#: this list so a typo in a chaos test fails loudly instead of never firing.
POINTS = (
    "service.pool_submit",
    "backend.execute",
    "prelude.build",
)


@dataclass
class FaultSpec:
    """One armed fault: where it fires, what it does, and which hits trip it.

    Exactly one effect should be set: *error* (an exception instance or
    zero-arg factory) is raised at the injection point, *stall* sleeps that
    many seconds (simulating a hung dependency — checkpoints downstream still
    poll the deadline).  *key*, when set, restricts the fault to hits fired
    with a matching key (e.g. one specific backend).  *after* skips that many
    matching hits first; *times* bounds how often the fault fires
    (``None`` = unlimited); *probability* gates each firing on the
    registry's seeded RNG.
    """

    point: str
    error: BaseException | type[BaseException] | None = None
    stall: float = 0.0
    key: object | None = None
    after: int = 0
    times: int | None = None
    probability: float = 1.0
    # Mutable per-process bookkeeping (guarded by the registry lock).
    hits: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)


@shared_state("_specs", lock="_lock")
class FaultRegistry:
    """Holds the armed :class:`FaultSpec` list and evaluates hits.

    One process-wide instance lives in this module; tests reach it through
    the module-level helpers.  Spec bookkeeping mutates under ``_lock``; the
    effects themselves (raise / sleep) run outside it so a stalling
    fault cannot serialize unrelated injection points.
    """

    def __init__(self, seed: int = 0) -> None:
        self._lock = threading.Lock()
        self._specs: dict[str, list[FaultSpec]] = {}
        self._random = _SeededRandom(seed)

    # -- arming --------------------------------------------------------------
    def inject(self, spec: FaultSpec) -> FaultSpec:
        """Arm *spec*; returns it so tests can read its counters later."""
        if spec.point not in POINTS:
            raise ValueError(
                f"unknown fault point {spec.point!r}; known points: {', '.join(POINTS)}"
            )
        with self._lock:
            self._specs.setdefault(spec.point, []).append(spec)
        return spec

    def clear(self) -> None:
        """Disarm everything and reseed, returning to the idle fast path."""
        with self._lock:
            self._specs = {}

    def reseed(self, seed: int) -> None:
        """Restart the probability RNG from *seed* (for replaying a run)."""
        with self._lock:
            self._random = _SeededRandom(seed)

    @contextmanager
    def plan(self, *specs: FaultSpec, seed: int | None = None) -> Iterator[tuple[FaultSpec, ...]]:
        """Arm *specs* for the duration of the block, disarming on exit."""
        if seed is not None:
            self.reseed(seed)
        for spec in specs:
            self.inject(spec)
        try:
            yield specs
        finally:
            self.clear()

    # -- firing --------------------------------------------------------------
    def fire(self, point: str, key: object | None = None) -> None:
        """Evaluate every armed spec at *point*; apply the first that trips.

        Called from production code.  Returns instantly when nothing is
        armed (the permanent state outside chaos tests).
        """
        if not self._specs:
            return
        effect: FaultSpec | None = None
        with self._lock:
            for spec in self._specs.get(point, ()):
                if spec.key is not None and spec.key != key:
                    continue
                spec.hits += 1
                if spec.hits <= spec.after:
                    continue
                if spec.times is not None and spec.fired >= spec.times:
                    continue
                if spec.probability < 1.0 and not self._random.trips(spec.probability):
                    continue
                spec.fired += 1
                effect = spec
                break
        if effect is None:
            return
        if effect.stall > 0.0:
            time.sleep(effect.stall)
        if effect.error is not None:
            error = effect.error() if isinstance(effect.error, type) else effect.error
            raise error


class _SeededRandom:
    """Tiny deterministic PRNG (xorshift) for probability gates.

    ``random.Random`` would work, but a 3-shift xorshift keeps the armed
    fast path allocation-free and makes the draw sequence trivially
    reproducible across python versions.
    """

    def __init__(self, seed: int) -> None:
        self._state = (seed or 1) & 0xFFFFFFFF

    def trips(self, probability: float) -> bool:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        return (x / 0xFFFFFFFF) < probability


#: Process-wide registry; chaos tests arm it, production code fires it.
_REGISTRY = FaultRegistry()


def registry() -> FaultRegistry:
    """The process-wide fault registry."""
    return _REGISTRY


def fire(point: str, key: object | None = None) -> None:
    """Fire injection point *point* on the process-wide registry."""
    _REGISTRY.fire(point, key)


def inject(spec: FaultSpec) -> FaultSpec:
    """Arm *spec* on the process-wide registry."""
    return _REGISTRY.inject(spec)


def clear() -> None:
    """Disarm the process-wide registry."""
    _REGISTRY.clear()


@contextmanager
def plan(*specs: FaultSpec, seed: int | None = None) -> Iterator[tuple[FaultSpec, ...]]:
    """Arm *specs* on the process-wide registry for the block's duration."""
    with _REGISTRY.plan(*specs, seed=seed) as armed:
        yield armed
