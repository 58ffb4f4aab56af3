"""Resilience substrate: deadlines, admission control, retries, fault injection.

Four small, separately usable pieces that together let the serving stack
survive overload, slow queries, and failing backends:

- :mod:`~repro.resilience.deadline` — a contextvar-propagated
  :class:`~repro.resilience.deadline.Deadline` with cooperative cancellation
  checkpoints down in the join loops, so a timed-out request stops burning
  CPU instead of finishing in the background.
- :mod:`~repro.resilience.admission` — an
  :class:`~repro.resilience.admission.AdmissionController` bounding in-flight
  requests and the wait queue, shedding the rest with a typed
  :class:`~repro.errors.Overloaded` plus a retry-after hint.
- :mod:`~repro.resilience.retry` — a
  :class:`~repro.resilience.retry.RetryPolicy` (exponential backoff,
  decorrelated jitter) driven by the transient/permanent taxonomy in
  :mod:`repro.errors`.
- :mod:`~repro.resilience.faults` — a deterministic, seed-driven
  fault-injection registry with named points at every concurrency boundary,
  powering the ``pytest -m chaos`` suite.
"""

from . import faults
from .admission import AdmissionController
from .deadline import Deadline, current_deadline, deadline_scope
from .retry import RetryPolicy

__all__ = [
    "AdmissionController",
    "Deadline",
    "RetryPolicy",
    "current_deadline",
    "deadline_scope",
    "faults",
]
