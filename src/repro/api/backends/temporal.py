"""The temporal backend: citation evolution with ``as_of`` era pinning.

Adapts :class:`~repro.core.temporal.TemporalCitationEngine`.  An ``as_of``
request is rewritten at parse time into an ordinary conjunctive query whose
timestamped atoms carry the era as a constant — from there the request flows
through the relational machinery unchanged.  The era constant participates
in the structural fingerprint, so every era gets its own result cache entry,
brought forward through the database's change log like the relational
backend's; it is lifted from the plan key, so the eras share one formal plan,
instantiated for each.
"""

from __future__ import annotations

from repro.api.backend import BackendCapabilities
from repro.api.backends.relational import RelationalBackend
from repro.api.envelope import CitationRequest
from repro.core.temporal import TemporalCitationEngine
from repro.errors import CitationError
from repro.query.ast import ConjunctiveQuery
from repro.query.parser import parse_query

__all__ = ["TemporalBackend"]


class TemporalBackend(RelationalBackend):
    """Serve era-pinned citation requests over timestamp-parameterized views."""

    name = "temporal"

    def __init__(
        self, temporal_engine: TemporalCitationEngine, name: str | None = None
    ) -> None:
        super().__init__(temporal_engine.engine, name=name or type(self).name)
        self.temporal = temporal_engine
        self._capabilities = BackendCapabilities(
            name=self.name,
            description=(
                "timestamped citation evolution; as_of pins a single era"
            ),
            dialects=("datalog",),
            payload_types=(str, ConjunctiveQuery),
            modes=("formal", "economical"),
            supports_plan_cache=True,
            supports_result_cache=True,
            supports_as_of=True,
            supports_policy_override=True,
        )

    def parse(self, request: CitationRequest) -> ConjunctiveQuery:
        query = request.query
        if isinstance(query, str):
            query = parse_query(query.strip())
        elif not isinstance(query, ConjunctiveQuery):
            raise CitationError(
                f"the {self.name!r} backend takes a ConjunctiveQuery or a Datalog "
                f"string, not {type(query).__name__}"
            )
        if request.as_of is not None:
            query = self.temporal.restrict_to_era(query, request.as_of)
        return query
