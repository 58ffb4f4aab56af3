"""EXPLAIN ANALYZE for the citation service.

:meth:`CitationService.explain` serves one request with tracing forced on and
wraps the outcome in an :class:`ExplainReport`: the ordinary response next to
the request's full trace tree.  The trace *is* the annotated plan — service
spans carry the cache outcomes, the engine spans the rewriting counts, the
evaluation spans the answer counts and the ``join.step`` children the
per-step measured cardinalities — so rendering it (:func:`repro.observability.render.render_trace`) yields the
per-step plan text the CLI ``explain`` subcommand prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.observability import render_trace

if TYPE_CHECKING:
    from repro.api.envelope import CitationResponse
    from repro.observability.tracer import TraceSpan

__all__ = ["ExplainReport"]


@dataclass
class ExplainReport:
    """One explained request: its response plus the captured trace tree.

    ``trace`` is the request's root span (``None`` only if the request
    failed before any span opened — e.g. an unroutable backend name).
    """

    response: "CitationResponse"
    trace: "TraceSpan | None"

    @property
    def ok(self) -> bool:
        return self.response.ok

    def to_text(self) -> str:
        """The EXPLAIN ANALYZE rendering: a header plus the span tree."""
        response = self.response
        lines = [
            f"query: {str(response.request.query).strip()}",
            f"backend: {response.backend}",
            f"fingerprint: {response.fingerprint}",
            f"elapsed: {response.elapsed * 1000.0:.3f}ms",
        ]
        if response.row_count is not None:
            lines.append(f"rows: {response.row_count}")
        lines.append(f"cached: {response.cached}")
        if response.error is not None:
            lines.append(f"error: {response.error!r}")
        if self.trace is not None:
            lines.append("")
            lines.append(render_trace(self.trace))
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly payload: the response summary plus the trace."""
        payload: dict[str, Any] = {"response": self.response.to_payload()}
        payload["trace"] = None if self.trace is None else self.trace.to_dict()
        return payload
