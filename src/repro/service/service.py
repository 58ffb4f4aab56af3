"""The :class:`CitationService`: one request/response front end for citation.

The paper's premise is that a live curated database must answer "cite this
query result" for every reader — and the paper deliberately spans query
models: conjunctive queries, unions, timestamped "citation evolution",
RDF/ontology citation and versioned data.  The service fronts all of them
through one path: every request is a
:class:`~repro.api.envelope.CitationRequest` routed to a registered
:class:`~repro.api.backend.CitationBackend`, and every backend gets the same
serving-layer machinery:

* **plan caching** — requests are fingerprinted structurally (invariant
  under variable renaming, atom and disjunct reordering); a hit skips the
  backend's compile phase (the Bucket/MiniCon search for the CQ-family
  backends) entirely.  Formal relational plans are keyed by shape, so a hit
  on a plan compiled for other constants hands out an instantiation of it;
* **result caching** — an exact structural repeat is answered from memory
  without any evaluation while the data holds still, and after a mutation
  whenever the backend can bring the cached result forward;
* **token-based invalidation** — cache entries are stamped with the
  backend's validity token (database generation / triple-store generation /
  pinned version id).  A stale result entry is offered to the backend's
  :meth:`~repro.api.backend.CitationBackend.refresh_result`: the relational
  backend re-stamps it when no logged change reaches it and patches just the
  reached rows' citations when only citation records changed, so only a
  change to the data its views read forces a new execution.  Other backends
  (and stale plans) are retired by any mutation;
* **batching** — :meth:`CitationService.submit_batch` deduplicates
  structurally identical requests inside one batch and answers every member
  of an isomorphism class from a single execution;
* **concurrency** — batches fan out over a thread pool with a batch deadline
  and error isolation: one failing or slow request never poisons its batch;
* **observability** — every phase is metered globally and per backend
  (:mod:`repro.service.metrics`); :meth:`CitationService.stats` returns a
  JSON-friendly snapshot.

:meth:`explain`, :meth:`plan_for` and :meth:`warm` also accept a bare
conjunctive query (or its text), which they wrap in a relational-backend
request.  A served plan carries its compiled join programs
(:attr:`~repro.core.engine.CitationPlan.compiled`), so a plan-cache hit
skips the rewriting search and the program compile.

Mutations may arrive between requests (the caches notice via the validity
tokens) but must not race a request mid-flight — the usual reader/writer
discipline of an in-memory store applies.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from collections.abc import Callable, Hashable, Iterable, Sequence
from typing import Any

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.view_rules import analyze_view_set
from repro.api.backend import BackendRegistry, CitationBackend
from repro.api.backends.relational import RelationalBackend
from repro.api.backends.union import UnionBackend
from repro.api.envelope import CitationRequest, CitationResponse
from repro.concurrency import default_worker_count, shared_state
from repro.core.engine import CitationEngine, CitationPlan, Mode
from repro.errors import (
    CitationError,
    DeadlineExceeded,
    Overloaded,
    StaticAnalysisError,
    error_code_for,
)
from repro.observability import (
    NULL_SPAN,
    RingBufferSink,
    Tracer,
    fingerprint_scope,
    get_tracer,
    use_tracer,
)
from repro.query.ast import ConjunctiveQuery
from repro.resilience import AdmissionController, Deadline, RetryPolicy, faults
from repro.resilience.deadline import current_deadline, deadline_scope
from repro.service.explain import ExplainReport
from repro.service.metrics import ServiceMetrics
from repro.service.plan_cache import GenerationalLRU, PlanCache

__all__ = ["CitationService"]


@shared_state("_flights", lock="_flights_lock")
class CitationService:
    """Caching, batching, concurrent serving over pluggable citation backends."""

    def __init__(
        self,
        engine: CitationEngine | None = None,
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        max_workers: int | None = None,
        metrics: ServiceMetrics | None = None,
        cache_results: bool = True,
        query_parser: Callable[[ConjunctiveQuery | str], ConjunctiveQuery] | None = None,
        backends: Sequence[CitationBackend] | None = None,
        tracer: Tracer | None = None,
        startup_lint: bool = True,
        max_inflight: int | None = None,
        queue_depth: int = 0,
        retry_policy: RetryPolicy | None = None,
        serve_stale: bool = False,
        default_timeout: float | None = None,
    ) -> None:
        if engine is None and not backends:
            raise CitationError(
                "a citation service needs an engine and/or explicit backends"
            )
        self.engine = engine
        # The service-level tracer; a context-local override (use_tracer,
        # which explain() relies on) still takes precedence — see tracer().
        self._tracer = tracer
        self.metrics = metrics or ServiceMetrics()
        self.plan_cache = PlanCache(maxsize=plan_cache_size)
        # Stale retention is opt-in (serve_stale): the degraded-serving
        # fallback needs token-mismatched entries to survive lookups, while
        # the default cache keeps its eager-eviction semantics untouched.
        self.result_cache: GenerationalLRU[Any] = GenerationalLRU(
            maxsize=result_cache_size, keep_stale=serve_stale
        )
        self.cache_results = cache_results
        # -- resilience: all default-off, each independently opt-in ----------
        # Admission control bounds concurrent execution; the retry policy
        # absorbs transient failures; serve_stale degrades to stamped stale
        # results under deadline/overload pressure; default_timeout applies a
        # per-request deadline when the request itself carries none.
        self.admission = (
            AdmissionController(max_inflight, queue_depth)
            if max_inflight is not None
            else None
        )
        self.retry_policy = retry_policy
        self.serve_stale = serve_stale
        self.default_timeout = default_timeout
        if self.admission is not None:
            self.metrics.register_gauge_source("admission", self.admission.snapshot)
        # CPU-derived bounded default (repro.concurrency.default_worker_count).
        self.max_workers = (
            max_workers if max_workers is not None else default_worker_count()
        )
        if self.max_workers < 1:
            raise CitationError(f"max_workers must be >= 1, got {self.max_workers}")
        # Single flight: plan-cache key -> [its compile lock, requests holding or awaiting it].
        self._flights_lock = threading.Lock()
        self._flights: dict[Hashable, list] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._closed = False
        self.registry = BackendRegistry()
        if engine is not None:
            # Pluggable request parsing (the CLI injects a Datalog+SQL
            # parser); parse errors surface per request with the parser's own
            # message.
            self.registry.register(RelationalBackend(engine, parser=query_parser))
            self.registry.register(UnionBackend(engine))
        for backend in backends or ():
            self.registry.register(backend)
        self._count_mutation = lambda _kind, _relation, _row: self.metrics.increment(
            "mutations_observed"
        )
        if engine is not None:
            engine.database.add_mutation_listener(self._count_mutation)
            # Evaluation counts and times, polled live at stats() time.
            self.metrics.register_gauge_source(
                "evaluation", engine.evaluation_metrics.snapshot
            )
            # Compile-time query analysis counters (minimizations, cache
            # hits, diagnostics), polled live at stats() time.
            self.metrics.register_gauge_source("analysis", engine.analysis_stats)
        # Startup lint: check the view set (and the policy wiring) before the
        # first request, so broken configurations surface at boot instead of
        # at request time.  Under the engine's strict analysis mode,
        # error-severity findings abort startup.
        self.startup_lint_report: AnalysisReport | None = None
        if startup_lint and engine is not None and engine.analysis != "off":
            report = analyze_view_set(
                engine.citation_views, engine.database.schema, engine.policy
            )
            self.startup_lint_report = report
            counts = report.counts()
            self.metrics.increment("lint_errors", counts["error"])
            self.metrics.increment("lint_warnings", counts["warning"])
            if engine.analysis == "strict" and report.has_errors:
                raise StaticAnalysisError(
                    "citation view set failed startup lint: "
                    + "; ".join(str(d) for d in report.errors),
                    report.errors,
                )

    # -- observability ---------------------------------------------------------
    def tracer(self) -> Tracer:
        """The tracer requests are recorded with right now.

        Resolution order: context-local override (:func:`use_tracer`, which
        :meth:`explain` installs around a single request), then the tracer
        given at construction, then the process-global one (disabled unless
        :func:`repro.observability.set_tracer` was called).
        """
        return get_tracer(self._tracer)

    def explain(
        self,
        request: CitationRequest | ConjunctiveQuery | str,
        mode: Mode | None = None,
    ) -> ExplainReport:
        """Serve *request* once with tracing forced on; return its trace.

        The request's EXPLAIN ANALYZE: the returned
        :class:`~repro.service.explain.ExplainReport` carries the response
        plus the full span tree — plan/result-cache outcomes and
        per-join-step measured cardinalities.  The result
        cache is bypassed (via the request's ``no_result_cache`` metadata
        key) so the explained request actually executes; the plan cache is
        exercised normally, so explaining a warm query shape shows the hit.
        A bare query (or string) is wrapped in a relational-backend request.
        """
        if not isinstance(request, CitationRequest):
            request = self._cq_request(request, mode)
        request = replace(
            request,
            metadata={**dict(request.metadata), "no_result_cache": True},
        )
        capture = RingBufferSink(capacity=4)
        tracer = Tracer(sinks=[capture], slow_log=self.tracer().slow_log)
        with use_tracer(tracer):
            response = self.submit(request)
        return ExplainReport(response=response, trace=capture.last())

    def to_prometheus(self) -> str:
        """Metrics as Prometheus text exposition (see ``--stats-format``).

        Counters, per-backend events and latency histograms come from
        :class:`~repro.service.metrics.ServiceMetrics`; cache and engine
        state ride along as flattened gauges.
        """
        extra: dict[str, dict] = {
            "plan_cache": self.plan_cache.stats(),
            "result_cache": self.result_cache.stats(),
        }
        if self.engine is not None:
            generation, epoch = self.engine.plan_token()
            extra["engine"] = {
                "generation": generation,
                "cache_epoch": epoch,
                "refresh": self.engine.refresh_stats(),
            }
        return self.metrics.to_prometheus(extra=extra)

    # -- backend management ----------------------------------------------------
    def register_backend(
        self, backend: CitationBackend, replace: bool = False
    ) -> CitationBackend:
        """Make *backend* routable by name (and by auto-routing)."""
        return self.registry.register(backend, replace=replace)

    def backend(self, name: str) -> CitationBackend:
        """The backend registered under *name*."""
        return self.registry.get(name)

    def capabilities(self) -> dict[str, dict]:
        """Capability summaries of every registered backend."""
        return self.registry.capabilities()

    # -- the unified request path ----------------------------------------------
    def submit(self, request: CitationRequest) -> CitationResponse:
        """Serve one citation request through routing and the caches.

        Never raises: errors (routing, parsing, compilation, execution) ride
        in the response — including use after :meth:`close`, which rides as a
        :class:`~repro.errors.CitationError`.  Call
        :meth:`CitationResponse.unwrap` to re-raise.
        """
        started = time.perf_counter()
        self.metrics.increment("requests")
        request = request.with_id()
        if self._closed:
            closed_error = CitationError(self._CLOSED_MESSAGE)
            self._count_error_response(closed_error)
            return CitationResponse(
                request=request,
                error=closed_error,
                error_code=error_code_for(closed_error),
                elapsed=time.perf_counter() - started,
            )
        try:
            backend = self.registry.route(request)
        except Exception as error:
            self._count_error_response(error)
            return CitationResponse(
                request=request,
                error=error,
                error_code=error_code_for(error),
                elapsed=time.perf_counter() - started,
            )
        self.metrics.increment_backend(backend.name, "requests")
        try:
            parsed = backend.parse(request)
            key = backend.fingerprint(parsed, request)
        except Exception as error:  # error isolation: report, never crash a batch
            self._count_error_response(error, backend)
            return CitationResponse(
                request=request,
                backend=backend.name,
                error=error,
                error_code=error_code_for(error),
                elapsed=time.perf_counter() - started,
            )
        return self._serve_routed(backend, request, parsed, key, started)

    def submit_batch(
        self,
        requests: Sequence[CitationRequest],
        timeout: float | None = None,
    ) -> list[CitationResponse]:
        """Serve a batch concurrently with deduplication and error isolation.

        Requests that are structurally identical (same backend, fingerprint
        and cache variant) are executed once; the other members receive the
        same citations rebound to their own query.  *timeout* is a **response
        deadline for the batch**, measured from the call: any request not
        answered within *timeout* seconds yields a response carrying a
        :class:`TimeoutError`.  The budget also rides into each worker as a
        propagated :class:`~repro.resilience.deadline.Deadline`, so engine
        work past the deadline is cooperatively cancelled (a typed
        :class:`~repro.errors.DeadlineExceeded` response) instead of burning
        CPU to completion in the background; only workers blocked outside
        the engine's cancellation checkpoints fall back to the synthesised
        pool-timeout response.  The response list is positionally aligned
        with *requests*.
        """
        self._ensure_open()
        self.metrics.increment("batch_requests")
        return self._submit_deduplicated(requests, timeout)

    # -- bare conjunctive queries -----------------------------------------------
    def _cq_request(
        self, query: ConjunctiveQuery | str, mode: Mode | None
    ) -> CitationRequest:
        return CitationRequest(query=query, backend="relational", mode=mode)

    def plan_for(
        self, query: ConjunctiveQuery | str, mode: Mode | None = None
    ) -> tuple[CitationPlan, bool]:
        """The cached-or-compiled plan for *query* and whether it was a hit."""
        request = self._cq_request(query, mode)
        backend = self.registry.get("relational")
        parsed = backend.parse(request)
        key = backend.fingerprint(parsed, request)
        return self._plan(backend, request, parsed, key)

    def warm(
        self, queries: Iterable[ConjunctiveQuery | str], mode: Mode | None = None
    ) -> int:
        """Precompile plans for an expected workload; return the plan count."""
        compiled = 0
        for query in queries:
            _plan, hit = self.plan_for(query, mode)
            compiled += 0 if hit else 1
        return compiled

    # -- cache control ---------------------------------------------------------
    def invalidate(self) -> None:
        """Drop all cached plans and results (rarely needed: tokens already
        invalidate stale entries lazily)."""
        self.plan_cache.invalidate()
        self.result_cache.invalidate()

    def stats(self) -> dict:
        """A JSON-friendly snapshot of metrics, caches and engine state."""
        snapshot = self.metrics.stats()
        snapshot["plan_cache"] = self.plan_cache.stats()
        snapshot["result_cache"] = self.result_cache.stats()
        snapshot["registered_backends"] = self.registry.names()
        tracer = self.tracer()
        if tracer.enabled:
            snapshot["tracing"] = tracer.stats()
            if tracer.slow_log is not None:
                snapshot["slow_queries"] = tracer.slow_log.snapshot()
        snapshot["workers"] = self.max_workers
        snapshot["resilience"] = {
            "admission": self.admission is not None,
            "max_inflight": None if self.admission is None else self.admission.max_inflight,
            "queue_depth": None if self.admission is None else self.admission.queue_depth,
            "retry": self.retry_policy is not None,
            "serve_stale": self.serve_stale,
            "default_timeout": self.default_timeout,
        }
        if self.engine is not None:
            generation, epoch = self.engine.plan_token()
            snapshot["engine"] = {
                "generation": generation,
                "cache_epoch": epoch,
                "mode": self.engine.mode,
                "analysis": self.engine.analysis,
                "citation_views": len(self.engine.citation_views),
                # Read by perfbench/run.py::settings; one executor, serial.
                "strategy": "program",
                "workers": 1,
                "parallel_backend": "serial",
                "refresh": self.engine.refresh_stats(),
            }
        if self.startup_lint_report is not None:
            snapshot["startup_lint"] = self.startup_lint_report.as_dict()
        return snapshot

    #: The post-close contract in one place: closing detaches the mutation
    #: listener, so a resurrected pool would serve requests whose writes no
    #: longer count into ``mutations_observed`` — silently drifting the very
    #: metric the race suite reconciles.  Refusing loudly is the contract.
    _CLOSED_MESSAGE = (
        "this CitationService is closed: its worker pool was shut down and its "
        "mutation listener detached, so serving again would silently drift "
        "mutations_observed — construct a new service instead"
    )

    def close(self) -> None:
        """Shut down the worker pool and detach from the database.

        Idempotent, and **terminal**: a closed service refuses further
        serving (batch entry points raise :class:`CitationError`;
        :meth:`submit` returns it in the response) instead of lazily
        recreating the pool with the mutation listener gone.  The shutdown
        waits for in-flight work outside the lock, so a slow straggler
        cannot deadlock a concurrent caller probing :meth:`_pool`.
        """
        with self._executor_lock:
            already_closed = self._closed
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        if not already_closed and self.engine is not None:
            self.engine.database.remove_mutation_listener(self._count_mutation)

    def __enter__(self) -> "CitationService":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- internals -------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise CitationError(self._CLOSED_MESSAGE)

    def _pool(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            # Checked under the same lock close() flips the flag with, so a
            # pool can never be resurrected after close() swapped it out.
            self._ensure_open()
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="citation-service",
                )
            return self._executor

    def _cache_key(
        self, backend: CitationBackend, key: str, request: CitationRequest
    ) -> Hashable:
        return (backend.name, key, backend.cache_variant(request))

    def _serve_routed(
        self,
        backend: CitationBackend,
        request: CitationRequest,
        parsed: Any,
        key: str,
        started: float,
    ) -> CitationResponse:
        """Serve an already routed, parsed and fingerprinted request.

        With tracing enabled, the whole request runs under a
        ``service.request`` *boundary* span — the root of the request's
        trace.  Boundary spans reach the slow-query log individually even
        when nested inside a batch span, so batch members compete for slow
        slots as requests, not as whole batches.

        The active tracer is also installed as the context-local override
        for the request's duration: the engine and evaluator layers resolve
        their tracer with a bare ``get_tracer()`` (they know nothing of the
        service), so a tracer passed to the service constructor must ride
        in the context to reach them.
        """
        tracer = self.tracer()
        if not tracer.enabled:
            return self._serve_routed_inner(backend, request, parsed, key, started)
        with use_tracer(tracer), tracer.span(
            "service.request",
            boundary=True,
            request_id=request.request_id,
            backend=backend.name,
            fingerprint=key,
            query=str(request.query).strip(),
        ) as span:
            response = self._serve_routed_inner(backend, request, parsed, key, started)
            span.set_attributes(
                cached=response.cached,
                elapsed_ms=round(response.elapsed * 1000.0, 3),
            )
            if response.row_count is not None:
                span.set_attribute("rows", response.row_count)
            if response.error is not None:
                span.set_attribute("error", repr(response.error))
            return response

    def _serve_routed_inner(
        self,
        backend: CitationBackend,
        request: CitationRequest,
        parsed: Any,
        key: str,
        started: float,
    ) -> CitationResponse:
        try:
            with self._request_deadline(request):
                result, cached, stale = self._admitted_through_caches(
                    backend, request, parsed, key
                )
        except Exception as error:
            self._count_error_response(error, backend)
            return CitationResponse(
                request=request,
                backend=backend.name,
                error=error,
                error_code=error_code_for(error),
                elapsed=time.perf_counter() - started,
                fingerprint=key,
            )
        elapsed = time.perf_counter() - started
        self.metrics.observe("request", elapsed)
        self.metrics.increment("responses")
        if stale:
            self.metrics.increment("stale_served")
            self.metrics.increment_backend(backend.name, "stale_served")
        return CitationResponse(
            request=request,
            backend=backend.name,
            result=result,
            citation=backend.citation_of(result),
            elapsed=elapsed,
            cached=cached,
            stale=stale,
            fingerprint=key,
            row_count=backend.row_count(result),
        )

    def _request_deadline(self, request: CitationRequest):
        """The deadline scope governing one request's execution.

        ``request.timeout`` (or the service's ``default_timeout``) becomes a
        propagated :class:`~repro.resilience.deadline.Deadline`; an ambient
        deadline (the batch budget installed by ``submit_batch``) still
        applies and nested scopes tighten, so a generous per-request timeout
        can never extend a batch deadline.
        """
        timeout = request.timeout if request.timeout is not None else self.default_timeout
        if timeout is None:
            return contextlib.nullcontext()
        return deadline_scope(Deadline.after(timeout))

    def _count_error_response(self, error: BaseException, backend: CitationBackend | None = None) -> None:
        """Count one materialised error response, split by failure class."""
        self.metrics.increment("errors")
        self.metrics.increment("responses")
        if backend is not None:
            self.metrics.increment_backend(backend.name, "errors")
        if isinstance(error, DeadlineExceeded):
            self.metrics.increment("errors_timeout")
        elif isinstance(error, Overloaded):
            self.metrics.increment("errors_shed")
        else:
            self.metrics.increment("errors_permanent")

    def _admitted_through_caches(
        self,
        backend: CitationBackend,
        request: CitationRequest,
        parsed: Any,
        key: str,
    ) -> tuple[Any, bool, bool]:
        """``_through_caches`` under admission control, with stale fallback.

        Returns ``(result, cached, stale)``.  Deadline or overload failures
        may degrade to a retained stale result-cache entry when the service
        was built with ``serve_stale=True``; everything else propagates.
        """
        admission = self.admission
        try:
            if admission is None:
                result, cached = self._through_caches(backend, request, parsed, key)
            else:
                service_started = time.monotonic()
                with admission.admit(current_deadline()):
                    result, cached = self._through_caches(
                        backend, request, parsed, key
                    )
                admission.record_service_time(time.monotonic() - service_started)
            return result, cached, False
        except (DeadlineExceeded, Overloaded) as error:
            fallback = self._stale_fallback(backend, request, parsed, key, error)
            if fallback is None:
                raise
            result, fresh = fallback
            if fresh:
                # The entry became valid concurrently (another worker just
                # cached it): a plain result-cache hit, not a degradation.
                self.metrics.increment("result_cache_hits")
                self.metrics.increment_backend(backend.name, "result_hits")
                return result, True, False
            return result, True, True

    def _stale_fallback(
        self,
        backend: CitationBackend,
        request: CitationRequest,
        parsed: Any,
        key: str,
        error: BaseException,
    ) -> tuple[Any, bool] | None:
        """A retained result-cache entry for *request*, or ``None``.

        Only consulted after a deadline/overload failure and only when the
        request would have been result-cacheable in the first place (no
        policy override, no ``no_result_cache`` opt-out).
        """
        if not self.serve_stale or not self.cache_results:
            return None
        if not backend.capabilities().supports_result_cache:
            return None
        if request.policy is not None or request.metadata.get("no_result_cache", False):
            return None
        cache_key = self._cache_key(backend, key, request)
        entry = self.result_cache.get_stale(cache_key, backend.result_token(request))
        if entry is None:
            return None
        value, fresh = entry
        tracer = self.tracer()
        if tracer.enabled:
            span = tracer.current_span()
            if span is not None:
                span.set_attributes(
                    stale_served=not fresh, stale_reason=error_code_for(error)
                )
        return backend.rebind(value, parsed, request), fresh

    def _through_caches(
        self,
        backend: CitationBackend,
        request: CitationRequest,
        parsed: Any,
        key: str,
    ) -> tuple[Any, bool]:
        capabilities = backend.capabilities()
        if request.policy is not None and not capabilities.supports_policy_override:
            raise CitationError(
                f"backend {backend.name!r} does not support per-request policy "
                "overrides"
            )
        cache_key = self._cache_key(backend, key, request)
        token = backend.result_token(request)
        # A policy override bypasses the result cache (cached results embed
        # the policy they were evaluated under); plans are policy-free.  A
        # request may also opt out via metadata — explain() does, so the
        # explained request actually executes.
        use_result_cache = (
            self.cache_results
            and capabilities.supports_result_cache
            and request.policy is None
            and not request.metadata.get("no_result_cache", False)
        )
        tracer = self.tracer()
        if use_result_cache:
            hit = self.result_cache.get(
                cache_key,
                token,
                lambda value, stamp: self._bring_forward(backend, request, value, stamp),
            )
            if hit is not None:
                self.metrics.increment("result_cache_hits")
                self.metrics.increment_backend(backend.name, "result_hits")
                if tracer.enabled:
                    span = tracer.current_span()
                    if span is not None:
                        span.set_attribute("result_cache", "hit")
                return backend.rebind(hit, parsed, request), True
        if tracer.enabled:
            span = tracer.current_span()
            if span is not None:
                span.set_attribute(
                    "result_cache", "miss" if use_result_cache else "bypass"
                )
        if capabilities.supports_plan_cache:
            plan_span = tracer.span("service.plan") if tracer.enabled else NULL_SPAN
            with plan_span:
                plan, plan_hit = self._plan(backend, request, parsed, key)
                plan_span.set_attribute("plan_cache", "hit" if plan_hit else "miss")
        else:
            plan = backend.compile(parsed, request)
        execute_span = (
            tracer.span("service.execute", backend=backend.name)
            if tracer.enabled
            else NULL_SPAN
        )
        execute_started = time.perf_counter()
        # The fingerprint scope is always installed (one contextvar write):
        # it keys the evaluator's per-query estimate-vs-actual accumulation,
        # which must run with tracing off too.
        with execute_span, fingerprint_scope(key):
            result = self._execute_with_retry(backend, plan, parsed, request)
        self.metrics.observe("execute", time.perf_counter() - execute_started)
        self.metrics.increment("executions")
        self.metrics.increment_backend(backend.name, "executions")
        if use_result_cache:
            # Results always reflect the data: stamp with the token read at
            # request start, not the (possibly data-independent) plan stamp.
            self.result_cache.put(cache_key, result, token)
        return result, False

    def _bring_forward(
        self, backend: CitationBackend, request: CitationRequest, value: Any, stamp: Hashable
    ) -> tuple[Any, Hashable] | None:
        """The backend's refresh of a stale result-cache entry, counting
        each entry it had to patch (rather than only re-stamp)."""
        brought = backend.refresh_result(value, stamp, request)
        if brought is not None and brought[0] is not value:
            self.metrics.increment("result_cache_patches")
            self.metrics.increment_backend(backend.name, "result_patches")
        return brought

    def _execute_with_retry(
        self,
        backend: CitationBackend,
        plan: Any,
        parsed: Any,
        request: CitationRequest,
    ) -> Any:
        """One backend execution, retried under the configured policy.

        Only *transient* failures (see :func:`repro.errors.is_transient`) are
        retried, bounded by the request's remaining deadline; each absorbed
        retry is counted, so a spike of transient failures is visible even
        when every request ultimately succeeds.  The ``backend.execute``
        fault point lets the chaos suite inject failures exactly here.
        """

        def run() -> Any:
            faults.fire("backend.execute", key=backend.name)
            return backend.execute(plan, parsed, request)

        policy = self.retry_policy
        if policy is None:
            return run()
        tracer = self.tracer()

        def on_retry(attempt: int, error: BaseException) -> None:
            self.metrics.increment("errors_transient_retried")
            self.metrics.increment_backend(backend.name, "transient_retried")
            if tracer.enabled:
                span = tracer.current_span()
                if span is not None:
                    span.set_attributes(
                        retries=attempt, last_transient=error_code_for(error)
                    )

        return policy.call(run, deadline=current_deadline(), on_retry=on_retry)

    def _plan(
        self,
        backend: CitationBackend,
        request: CitationRequest,
        parsed: Any,
        key: str,
    ) -> tuple[Any, bool]:
        """The plan of *parsed* and whether it was a hit: compiled under the
        backend's ``plan_key`` (single flight per key), or a cached plan of
        that key made the request's own by ``instantiate`` and cached under
        the request's fingerprint."""
        stamp = backend.plan_token(request)
        own_key = self._cache_key(backend, key, request)
        cache_key = self._cache_key(backend, backend.plan_key(parsed, request, key), request)
        plan = self.plan_cache.get(own_key, stamp) if own_key != cache_key else None
        if plan is None:
            plan = self.plan_cache.get(cache_key, stamp)
            if plan is None:
                with self._flights_lock:
                    flight = self._flights.setdefault(cache_key, [threading.Lock(), 0])
                    flight[1] += 1
                # A request waiting on another's compile waits under its own deadline.
                deadline = current_deadline()
                try:
                    if not flight[0].acquire(timeout=-1 if deadline is None else deadline.remaining()):
                        raise DeadlineExceeded("plan")
                    try:
                        plan = self.plan_cache.get(cache_key, stamp)
                        if plan is None:
                            compile_started = time.perf_counter()
                            plan = backend.compile(parsed, request)
                            self.metrics.observe("compile", time.perf_counter() - compile_started)
                            self.metrics.increment("plan_compilations")
                            self.metrics.increment_backend(backend.name, "compilations")
                            self.plan_cache.put(cache_key, plan, stamp)
                            return plan, False
                    finally:
                        flight[0].release()
                finally:
                    with self._flights_lock:
                        flight[1] -= 1
                        if not flight[1]:
                            del self._flights[cache_key]
            instantiated = backend.instantiate(plan, parsed, request)
            if instantiated is not plan:
                self.metrics.increment("plan_instantiations")
                self.metrics.increment_backend(backend.name, "instantiations")
                self.plan_cache.put(own_key, instantiated, stamp)
                plan = instantiated
        self.metrics.increment("plan_cache_hits")
        self.metrics.increment_backend(backend.name, "plan_hits")
        return plan, True

    #: How long past the batch deadline to wait for a cancelled worker to
    #: come home with its real DeadlineExceeded response before synthesising
    #: a pool-timeout response on its behalf.  Applied batch-wide (anchored
    #: to the deadline, not per future), so the worst case adds one grace to
    #: the batch, not one per straggler.  Workers running engine work hit a
    #: cancellation checkpoint within ~CHECK_STRIDE rows and beat this
    #: comfortably; only un-checkpointed backends (a blocking stub, real I/O)
    #: fall through to the synthesised response, exactly as before.
    _BATCH_CANCEL_GRACE = 0.1

    def _submit_deduplicated(
        self,
        requests: Sequence[CitationRequest],
        timeout: float | None,
    ) -> list[CitationResponse]:
        tracer = self.tracer()
        if not tracer.enabled:
            return self._submit_deduplicated_inner(requests, timeout, propagate=False)
        with tracer.span("service.batch", size=len(requests)) as span:
            responses = self._submit_deduplicated_inner(requests, timeout, propagate=True)
            span.set_attribute(
                "errors", sum(1 for response in responses if not response.ok)
            )
            return responses

    def _submit_deduplicated_inner(
        self,
        requests: Sequence[CitationRequest],
        timeout: float | None,
        propagate: bool,
    ) -> list[CitationResponse]:
        executor = self._pool()
        batch_started = time.monotonic()
        batch_deadline = (
            None if timeout is None else Deadline(batch_started + timeout)
        )
        responses: list[CitationResponse | None] = [None] * len(requests)
        prepared: list[tuple[CitationBackend, Any] | None] = [None] * len(requests)
        stamped = [request.with_id() for request in requests]
        groups: dict[Hashable, list[int]] = {}
        group_keys: dict[Hashable, str] = {}
        for index, request in enumerate(stamped):
            self.metrics.increment("requests")
            try:
                backend = self.registry.route(request)
            except Exception as error:  # unroutable request: isolate immediately
                self._count_error_response(error)
                responses[index] = CitationResponse(
                    request=request, error=error, error_code=error_code_for(error)
                )
                continue
            self.metrics.increment_backend(backend.name, "requests")
            try:
                parsed = backend.parse(request)
                key = backend.fingerprint(parsed, request)
            except Exception as error:  # malformed request: isolate immediately
                self._count_error_response(error, backend)
                responses[index] = CitationResponse(
                    request=request,
                    backend=backend.name,
                    error=error,
                    error_code=error_code_for(error),
                )
                continue
            prepared[index] = (backend, parsed)
            cache_key = self._cache_key(backend, key, request)
            if request.policy is not None:
                # A policy override produces citations other requests must
                # not share: never deduplicate it onto (or under) another
                # request's execution.
                cache_key = (cache_key, "policy", index)
            groups.setdefault(cache_key, []).append(index)
            group_keys[cache_key] = key

        # Concurrent execution of one representative per group,
        # reusing the routing, parse and fingerprint work done while grouping.
        representatives = {
            cache_key: members[0] for cache_key, members in groups.items()
        }
        if propagate:
            batch_span = self.tracer().current_span()
            if batch_span is not None:
                batch_span.set_attribute("groups", len(groups))

        def serve_representative(cache_key: Hashable, index: int) -> CitationResponse:
            backend, parsed = prepared[index]  # type: ignore[misc]
            started = time.perf_counter()
            if batch_deadline is None:
                return self._serve_routed(
                    backend, stamped[index], parsed, group_keys[cache_key], started
                )
            # The batch budget rides into the worker as a propagated
            # deadline (thread pools do not inherit contextvars), so the
            # engine's cancellation checkpoints stop timed-out work instead
            # of letting it burn CPU to completion in the background.
            with deadline_scope(batch_deadline):
                return self._serve_routed(
                    backend, stamped[index], parsed, group_keys[cache_key], started
                )

        def submit_representative(
            submit_args: tuple, cache_key: Hashable, index: int
        ) -> Future:
            """Submit one representative, isolating submission failures.

            The ``service.pool_submit`` fault point fires here; an injected
            (or real — e.g. concurrent shutdown) submission failure becomes
            that representative's error response instead of aborting the
            whole batch with siblings already in flight.
            """
            try:
                faults.fire("service.pool_submit", key=index)
                return executor.submit(*submit_args, cache_key, index)
            except Exception as error:
                self._count_error_response(error)
                failed: Future = Future()
                failed.set_result(
                    CitationResponse(
                        request=stamped[index],
                        error=error,
                        error_code=error_code_for(error),
                        fingerprint=group_keys[cache_key],
                    )
                )
                return failed

        deadline = None if timeout is None else batch_started + timeout
        if propagate:
            # Thread pools do not inherit contextvars, so the batch span
            # (and any use_tracer override) would be invisible to the
            # workers; ship each representative a copy of this context.
            # Skipped with tracing off — a context copy per request is
            # pure overhead then.
            futures: dict[Hashable, Future] = {
                cache_key: submit_representative(
                    (contextvars.copy_context().run, serve_representative),
                    cache_key,
                    index,
                )
                for cache_key, index in representatives.items()
            }
        else:
            futures = {
                cache_key: submit_representative(
                    (serve_representative,), cache_key, index
                )
                for cache_key, index in representatives.items()
            }
        outcomes: dict[Hashable, CitationResponse] = {}
        for cache_key, future in futures.items():
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                outcomes[cache_key] = future.result(timeout=remaining)
                continue
            except TimeoutError:
                pass
            # The worker saw the same deadline and its cancellation
            # checkpoints are already unwinding it; grant one short,
            # batch-wide grace so it can come home with its real
            # DeadlineExceeded response (counted once) before we
            # synthesise a pool-timeout response on its behalf.
            grace = max(
                0.0, deadline + self._BATCH_CANCEL_GRACE - time.monotonic()
            )
            try:
                outcomes[cache_key] = future.result(timeout=grace)
                continue
            except TimeoutError:
                pass
            self.metrics.increment("timeouts")
            index = representatives[cache_key]
            timeout_error = TimeoutError(
                f"citation request missed the batch deadline of "
                f"{timeout:.3f}s"
            )
            outcomes[cache_key] = CitationResponse(
                request=stamped[index],
                error=timeout_error,
                error_code=error_code_for(timeout_error),
                elapsed=time.monotonic() - batch_started,
                fingerprint=group_keys[cache_key],
            )

        for cache_key, members in groups.items():
            outcome = outcomes[cache_key]
            for position, index in enumerate(members):
                if position == 0:
                    responses[index] = outcome
                    continue
                # Deduplicated member: same citations, rebound to its query.
                self.metrics.increment("deduplicated")
                backend, parsed = prepared[index]  # type: ignore[misc]
                self.metrics.increment_backend(backend.name, "deduplicated")
                if outcome.ok and outcome.result is not None:
                    result = backend.rebind(outcome.result, parsed, stamped[index])
                    responses[index] = CitationResponse(
                        request=stamped[index],
                        backend=outcome.backend,
                        result=result,
                        citation=backend.citation_of(result),
                        elapsed=outcome.elapsed,
                        cached=True,
                        stale=outcome.stale,
                        fingerprint=outcome.fingerprint,
                        row_count=backend.row_count(result),
                    )
                else:
                    responses[index] = CitationResponse(
                        request=stamped[index],
                        backend=outcome.backend,
                        error=outcome.error,
                        error_code=outcome.error_code,
                        elapsed=outcome.elapsed,
                        fingerprint=outcome.fingerprint,
                    )
        return [response for response in responses if response is not None]
