"""Propagated request deadlines with cooperative cancellation.

A :class:`Deadline` is an absolute point on the monotonic clock.  The serving
layer creates one per request (from ``CitationRequest.timeout`` or a
``submit_batch`` budget) and installs it with :func:`deadline_scope`; the
engine, evaluator, prelude passes and compiled join loops — several import
layers down — read it back with :func:`current_deadline` and poll
:meth:`Deadline.check` at their cancellation checkpoints.  The moment the
deadline passes, the checkpoint raises
:class:`~repro.errors.DeadlineExceeded` and the request unwinds instead of
finishing in the background (the pre-resilience ``submit_batch`` failure
mode: the future timed out but the worker kept burning CPU to completion).

The clock is ``time.monotonic()``, so wall-clock adjustments cannot extend
or shorten a request's budget.

Checkpoint cost matters — the innermost join loops run per *row*.
:meth:`Deadline.checker` returns a closure that only consults the clock
every ``stride`` calls, so an installed deadline costs an integer increment
per row and an idle one (``cancel is None``) costs a single predicate test.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar

from ..errors import DeadlineExceeded

__all__ = [
    "Deadline",
    "current_deadline",
    "deadline_scope",
]

#: How many checkpoint hits between monotonic-clock reads in a rate-limited
#: checker.  Powers of two keep the modulo a masked AND under CPython's
#: small-int fast path; 64 bounds overshoot to ~tens of microseconds of row
#: work while keeping clock-read overhead well under the 5% idle gate (E23).
CHECK_STRIDE = 64

_CURRENT_DEADLINE: ContextVar["Deadline | None"] = ContextVar(
    "repro_current_deadline", default=None
)


class Deadline:
    """An absolute monotonic-clock expiry shared by one request's whole tree.

    Immutable after construction; safe to read from any thread without a
    lock.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline *seconds* from now on the monotonic clock."""
        return cls(time.monotonic() + max(0.0, float(seconds)))

    def remaining(self) -> float:
        """Seconds left before expiry; never negative."""
        return max(0.0, self.expires_at - time.monotonic())

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return time.monotonic() >= self.expires_at

    def check(self, where: str = "") -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` if expired.

        *where* names the checkpoint (``"join"``, ``"prelude"``, ...) and
        lands in the exception and therefore in traces and the slow-query
        log, so operators can see how far cancelled requests got.
        """
        if time.monotonic() >= self.expires_at:
            raise DeadlineExceeded(where)

    def checker(self, where: str, stride: int = CHECK_STRIDE) -> Callable[[], None]:
        """A rate-limited checkpoint closure for per-row call sites.

        The closure reads the clock only every *stride* calls; in between it
        costs one integer increment.  Each call site (each prelude pass)
        builds its own checker, so the counter needs no lock.
        """
        expires_at = self.expires_at
        monotonic = time.monotonic
        calls = 0

        def check() -> None:
            nonlocal calls
            calls += 1
            if calls % stride == 0 and monotonic() >= expires_at:
                raise DeadlineExceeded(where)

        return check

    def union(self, other: "Deadline | None") -> "Deadline":
        """The tighter of this deadline and *other* (``None`` means no bound)."""
        if other is None or self.expires_at <= other.expires_at:
            return self
        return other

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


def current_deadline() -> Deadline | None:
    """The deadline governing the current request (``None`` outside one)."""
    return _CURRENT_DEADLINE.get()


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[None]:
    """Install *deadline* for everything inside the block.

    Nested scopes tighten: if an ambient deadline is already installed, the
    effective deadline is the earlier of the two, so a per-request timeout
    can never extend a batch-level budget.  The token is reset on exit —
    worker-pool threads are long-lived, so a leaked deadline would cancel
    the thread's next request.
    """
    ambient = _CURRENT_DEADLINE.get()
    effective = deadline.union(ambient) if deadline is not None else ambient
    token = _CURRENT_DEADLINE.set(effective)
    try:
        yield
    finally:
        _CURRENT_DEADLINE.reset(token)
