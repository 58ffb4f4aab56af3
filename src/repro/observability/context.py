"""Request-scoped context values beyond the span tree.

The serving layer knows the structural fingerprint of the query it is about
to execute; the evaluator, several layers down, attributes its measured
evaluation times to that fingerprint.  Importing the service's fingerprint module from the query
layer would be an import cycle, so the key flows through a context variable
instead: the service sets it around ``backend.execute`` and the evaluator
reads it back.  Like the span context, it propagates into batch worker
threads via ``contextvars.copy_context``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from collections.abc import Iterator

__all__ = ["current_fingerprint", "fingerprint_scope"]

_CURRENT_FINGERPRINT: ContextVar[str | None] = ContextVar(
    "repro_current_fingerprint", default=None
)


def current_fingerprint() -> str | None:
    """The fingerprint of the request being executed (``None`` outside one)."""
    return _CURRENT_FINGERPRINT.get()


@contextmanager
def fingerprint_scope(fingerprint: str | None) -> Iterator[None]:
    """Attribute everything inside the block to *fingerprint*.

    The token is reset on exit — worker-pool threads are long-lived, so a
    leaked value would misattribute the thread's next request.
    """
    token = _CURRENT_FINGERPRINT.set(fingerprint)
    try:
        yield
    finally:
        _CURRENT_FINGERPRINT.reset(token)
