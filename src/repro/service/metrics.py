"""Counters and latency histograms for the citation service.

The service records every request into a :class:`ServiceMetrics` instance:
monotonic counters (requests, cache hits, compiles, errors, timeouts, ...)
and fixed-bucket latency histograms for the compile (rewrite-search), execute
(evaluation) and end-to-end phases.  :meth:`ServiceMetrics.stats` returns a
plain-dict snapshot suitable for JSON output — the ``--stats`` flag of the
CLI and the benchmarks print it verbatim.

Histograms use exponential bucket boundaries in milliseconds; percentiles are
estimated as the upper bound of the bucket containing the requested quantile
(the usual Prometheus-style estimate), with the true maximum tracked exactly.
Everything is thread-safe: ``submit_batch`` observes from worker threads.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Callable, Iterable

from repro.concurrency import shared_state

__all__ = ["LatencyHistogram", "ServiceMetrics", "DEFAULT_BUCKET_BOUNDS_MS"]

#: Default histogram boundaries (milliseconds), roughly exponential.
DEFAULT_BUCKET_BOUNDS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class LatencyHistogram:
    """A fixed-bucket latency histogram (milliseconds)."""

    __slots__ = ("bounds_ms", "bucket_counts", "count", "total_ms", "min_ms", "max_ms")

    def __init__(self, bounds_ms: Iterable[float] = DEFAULT_BUCKET_BOUNDS_MS) -> None:
        self.bounds_ms = tuple(sorted(bounds_ms))
        if not self.bounds_ms:
            raise ValueError("histogram needs at least one bucket boundary")
        # One bucket per boundary (<= bound) plus one overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds_ms) + 1)
        self.count = 0
        self.total_ms = 0.0
        self.min_ms = float("inf")
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        """Record one observation given in seconds."""
        ms = seconds * 1000.0
        self.bucket_counts[bisect_left(self.bounds_ms, ms)] += 1
        self.count += 1
        self.total_ms += ms
        if ms < self.min_ms:
            self.min_ms = ms
        if ms > self.max_ms:
            self.max_ms = ms

    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def observed_min_ms(self) -> float:
        """The smallest observation, or 0.0 before any — never ``inf``.

        :attr:`min_ms` starts at ``inf`` as the fold identity; serializing
        that sentinel would leak ``Infinity`` into JSON output (invalid per
        the spec), so readers go through this accessor.
        """
        return self.min_ms if self.count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound_ms, cumulative_count)`` per finite bound, ascending.

        Exactly the shape Prometheus histogram exposition wants (the
        implicit ``+Inf`` bucket equals :attr:`count` and is left to the
        renderer).
        """
        out: list[tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds_ms, self.bucket_counts):
            cumulative += bucket_count
            out.append((bound, cumulative))
        return out

    def percentile_ms(self, quantile: float) -> float:
        """Upper-bound estimate of the given quantile (0 < quantile <= 1)."""
        if self.count == 0:
            return 0.0
        threshold = quantile * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= threshold:
                if index == len(self.bounds_ms):
                    return self.max_ms
                return min(self.bounds_ms[index], self.max_ms)
        return self.max_ms

    def snapshot(self) -> dict[str, object]:
        """A JSON-friendly summary of the histogram.

        ``buckets`` lists cumulative counts per upper bound; the overflow
        bucket's bound is the string ``"+Inf"`` so the snapshot survives
        ``json.dumps`` (a float ``inf`` would serialize as the non-JSON
        literal ``Infinity``).
        """
        buckets: list[dict[str, object]] = [
            {"le_ms": bound, "count": cumulative}
            for bound, cumulative in self.cumulative_buckets()
        ]
        buckets.append({"le_ms": "+Inf", "count": self.count})
        return {
            "count": self.count,
            "total_ms": round(self.total_ms, 4),
            "mean_ms": round(self.mean_ms(), 4),
            "p50_ms": round(self.percentile_ms(0.50), 4),
            "p95_ms": round(self.percentile_ms(0.95), 4),
            "p99_ms": round(self.percentile_ms(0.99), 4),
            "min_ms": round(self.observed_min_ms(), 4),
            "max_ms": round(self.max_ms, 4),
            "buckets": buckets,
        }


@shared_state("_counters", "_histograms", "_gauge_sources", lock="_lock")
class ServiceMetrics:
    """Thread-safe counters and histograms with a ``stats()`` snapshot."""

    #: Counters that always appear in ``stats()`` (even when still zero), so
    #: dashboards and tests can rely on the keys being present.
    STANDARD_COUNTERS = (
        "requests",
        "batch_requests",
        "result_cache_hits",
        # Of those, hits on a stale entry the backend patched in place of
        # executing again (a re-stamped entry counts only as a hit).
        "result_cache_patches",
        "plan_cache_hits",
        # Plans built from a shape's plan for other constants (a repeat of
        # the request finds its instantiation cached).
        "plan_instantiations",
        "plan_compilations",
        "executions",
        "deduplicated",
        "errors",
        "timeouts",
        "mutations_observed",
        # -- resilience: one response per request, classified ---------------
        # ``responses`` counts every response the serving path materialises
        # (including batch-worker responses later replaced by a pool-timeout
        # response), so quiescence is observable:
        # requests == responses + deduplicated once no worker is running.
        "responses",
        # The ``errors`` total split by failure class.  ``errors_timeout``
        # counts cooperative deadline cancellations, ``errors_shed``
        # admission-control rejections, ``errors_permanent`` everything
        # else; ``errors_transient_retried`` counts *retry attempts* that a
        # RetryPolicy absorbed (not responses — a retried request that
        # eventually succeeds shows up in ``executions``).
        "errors_timeout",
        "errors_shed",
        "errors_permanent",
        "errors_transient_retried",
        # Degraded serving: stale result-cache entries served under pressure.
        "stale_served",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {name: 0 for name in self.STANDARD_COUNTERS}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._gauge_sources: dict[str, Callable[[], dict]] = {}

    #: Prefix of per-backend counters (``backend.<name>.<event>``); they are
    #: grouped under the ``"backends"`` key of :meth:`stats` instead of being
    #: mixed into the flat counter dict.
    BACKEND_PREFIX = "backend."

    # -- recording -----------------------------------------------------------
    def increment(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* (creating it on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def increment_backend(self, backend: str, event: str, amount: int = 1) -> None:
        """Count *event* (requests, plan_hits, result_hits, executions,
        compilations, deduplicated, errors, ...) against one backend."""
        self.increment(f"{self.BACKEND_PREFIX}{backend}.{event}", amount)

    def observe(self, name: str, seconds: float) -> None:
        """Record a latency observation into histogram *name*."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            histogram.observe(seconds)

    def register_gauge_source(self, name: str, source: Callable[[], dict]) -> None:
        """Attach a callable polled at :meth:`stats` time.

        The callable's dict snapshot appears under key *name* in the stats
        output.  This is how subsystems that keep their own thread-safe
        counters (e.g. the evaluator's evaluation counts,
        :class:`repro.query.stats.EvaluationMetrics`) surface through the
        service's one-stop ``stats()`` without double-counting into the flat
        counter namespace.  Re-registering a name replaces the source;
        :meth:`reset` leaves sources attached.
        """
        with self._lock:
            self._gauge_sources[name] = source

    # -- reading -------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter *name* (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def cache_hit_rate(self) -> float:
        """Fraction of requests answered from the result or plan cache."""
        with self._lock:
            requests = self._counters.get("requests", 0)
            hits = self._counters.get("result_cache_hits", 0) + self._counters.get(
                "plan_cache_hits", 0
            )
        return hits / requests if requests else 0.0

    def backend_stats(self) -> dict[str, dict[str, int]]:
        """Per-backend event counts: ``{backend: {event: count}}``."""
        with self._lock:
            items = list(self._counters.items())
        backends: dict[str, dict[str, int]] = {}
        for name, value in items:
            if not name.startswith(self.BACKEND_PREFIX):
                continue
            backend, _, event = name[len(self.BACKEND_PREFIX):].partition(".")
            backends.setdefault(backend, {})[event] = value
        return backends

    def stats(self) -> dict:
        """A snapshot of all counters, per-backend counts, histograms and
        registered gauge sources."""
        with self._lock:
            all_counters = dict(self._counters)
            latencies = {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            }
            gauge_sources = dict(self._gauge_sources)
        counters = {
            name: value
            for name, value in all_counters.items()
            if not name.startswith(self.BACKEND_PREFIX)
        }
        snapshot: dict = {"counters": counters, "latency_ms": latencies}
        snapshot["backends"] = self.backend_stats()
        requests = counters.get("requests", 0)
        hits = counters.get("result_cache_hits", 0) + counters.get("plan_cache_hits", 0)
        snapshot["cache_hit_rate"] = round(hits / requests, 4) if requests else 0.0
        # Polled outside the lock: a source may take its own lock.
        for name, source in gauge_sources.items():
            snapshot[name] = source()
        return snapshot

    def to_prometheus(
        self, namespace: str = "repro", extra: dict[str, dict] | None = None
    ) -> str:
        """Render every counter, histogram and gauge source as Prometheus
        text exposition (format 0.0.4).

        Flat counters become ``<namespace>_<name>_total``; per-backend
        counters share one ``<namespace>_backend_events_total`` family with
        ``backend``/``event`` labels; each latency histogram becomes one
        label set of the ``<namespace>_latency_seconds`` family (bounds and
        sums converted from the internal milliseconds to seconds, as the
        Prometheus base-unit convention requires).  Gauge-source snapshots —
        and any *extra* dicts the caller passes, keyed like gauge sources —
        are flattened to gauges, keeping numeric leaves only.
        """
        from repro.observability.prometheus import PrometheusRenderer, flatten_numeric

        with self._lock:
            all_counters = dict(self._counters)
            histograms = {
                name: (
                    histogram.cumulative_buckets(),
                    histogram.total_ms,
                    histogram.count,
                )
                for name, histogram in sorted(self._histograms.items())
            }
            gauge_sources = dict(self._gauge_sources)

        renderer = PrometheusRenderer()
        for name, value in sorted(all_counters.items()):
            if name.startswith(self.BACKEND_PREFIX):
                backend, _, event = name[len(self.BACKEND_PREFIX):].partition(".")
                renderer.counter(
                    f"{namespace}_backend_events_total",
                    value,
                    labels={"backend": backend, "event": event},
                    help_text="Per-backend request lifecycle events.",
                )
            else:
                renderer.counter(
                    f"{namespace}_{name}_total",
                    value,
                    help_text=f"Total {name.replace('_', ' ')}.",
                )
        requests = all_counters.get("requests", 0)
        hits = all_counters.get("result_cache_hits", 0) + all_counters.get(
            "plan_cache_hits", 0
        )
        renderer.gauge(
            f"{namespace}_cache_hit_rate",
            hits / requests if requests else 0.0,
            help_text="Fraction of requests answered from the result or plan cache.",
        )
        for name, (buckets, total_ms, count) in histograms.items():
            renderer.histogram(
                f"{namespace}_latency_seconds",
                [(bound_ms / 1000.0, cumulative) for bound_ms, cumulative in buckets],
                total_ms / 1000.0,
                count,
                labels={"phase": name},
                help_text="Request phase latency in seconds.",
            )
        # Polled outside the lock: a source may take its own lock.
        flattened: dict[str, dict] = {
            name: source() for name, source in gauge_sources.items()
        }
        if extra:
            flattened.update(extra)
        for name, payload in sorted(flattened.items()):
            for metric, value in flatten_numeric(f"{namespace}_{name}", payload):
                renderer.gauge(metric, value)
        return renderer.render()

    def reset(self) -> None:
        """Zero every counter and drop all histograms."""
        with self._lock:
            self._counters = {name: 0 for name in self.STANDARD_COUNTERS}
            self._histograms.clear()
