"""Evaluation metrics: how many joins the evaluator ran and how long they took.

:class:`EvaluationMetrics` holds thread-safe counters of evaluations and
their measured time, overall and per query fingerprint, surfaced through
:meth:`~repro.service.service.CitationService.stats` and the CLI
``--stats`` output.
"""

from __future__ import annotations

import threading

from repro.concurrency import shared_state

__all__ = ["EvaluationMetrics"]


def _mean_ms(count: int, seconds: float) -> float:
    return round(seconds * 1000.0 / count, 4) if count else 0.0


@shared_state("_evaluations", "_seconds", "_by_query", lock="_lock")
class EvaluationMetrics:
    """Thread-safe counts and times of the evaluator's joins.

    A :class:`~repro.core.engine.CitationEngine` owns one instance and
    threads it into every evaluator it builds; the serving layer registers
    :meth:`snapshot` as a gauge source so the block appears in
    :meth:`CitationService.stats` and the CLI ``--stats``.

    :meth:`record_evaluation` also accumulates per **query fingerprint**
    when one is given (the serving layer scopes the fingerprint via
    :func:`repro.observability.context.fingerprint_scope`), so
    :meth:`query_profiles` shows where evaluation time goes by query.
    """

    #: FIFO bound on per-fingerprint entries: the service outlives requests,
    #: so ad-hoc query traffic must not grow the map without bound.  Evicted
    #: fingerprints simply start a fresh entry if they reappear.
    MAX_TRACKED_QUERIES = 256

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reset_locked()

    def _reset_locked(self) -> None:
        self._evaluations = 0
        self._seconds = 0.0
        # fingerprint -> [evaluation count, total seconds]
        self._by_query: dict[str, list] = {}

    # -- recording -----------------------------------------------------------
    def record_evaluation(self, seconds: float, fingerprint: str | None = None) -> None:
        """Count one evaluation that took *seconds*, under *fingerprint* too
        when one is given."""
        with self._lock:
            self._evaluations += 1
            self._seconds += seconds
            if fingerprint is None:
                return
            entry = self._by_query.get(fingerprint)
            if entry is None:
                entry = self._by_query[fingerprint] = [0, 0.0]
                while len(self._by_query) > self.MAX_TRACKED_QUERIES:
                    self._by_query.pop(next(iter(self._by_query)))
            entry[0] += 1
            entry[1] += seconds

    # -- reading -------------------------------------------------------------
    def query_profiles(self) -> dict[str, dict]:
        """Per-fingerprint evaluation counts and mean milliseconds."""
        with self._lock:
            tracked = {fingerprint: tuple(entry) for fingerprint, entry in self._by_query.items()}
        return {
            fingerprint: {"evaluations": count, "mean_ms": _mean_ms(count, seconds)}
            for fingerprint, (count, seconds) in tracked.items()
        }

    def snapshot(self) -> dict:
        """A JSON-friendly snapshot of every counter."""
        with self._lock:
            evaluations, seconds = self._evaluations, self._seconds
            tracked_queries = len(self._by_query)
        return {
            "evaluations": evaluations,
            "mean_ms": _mean_ms(evaluations, seconds),
            "tracked_queries": tracked_queries,
            # Read by perfbench/run.py::counters; every evaluation is serial.
            "sharding": {"parallel": 0, "serial": evaluations},
        }

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            self._reset_locked()
