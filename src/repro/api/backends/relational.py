"""The conjunctive-query backend: the paper's core model behind the API.

Adapts :class:`~repro.core.engine.CitationEngine` — its
``compile_plan`` / ``execute_plan`` split maps directly onto the backend
protocol, and the structural fingerprint of
:mod:`repro.service.fingerprint` provides isomorphism-invariant cache keys.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable

from repro.api.backend import BackendCapabilities, CitationBackend
from repro.api.envelope import CitationRequest
from repro.core.citation import Citation
from repro.core.engine import CitationEngine, CitationPlan, CitedResult
from repro.errors import CitationError
from repro.query.ast import ConjunctiveQuery
from repro.query.evaluator import result_schema
from repro.query.parser import parse_query
from repro.query.sql import parse_sql
from repro.relational.relation import Relation
from repro.service.fingerprint import fingerprint

__all__ = ["RelationalBackend"]


class RelationalBackend(CitationBackend):
    """Serve conjunctive-query citation requests over a :class:`CitationEngine`."""

    name = "relational"

    def __init__(
        self,
        engine: CitationEngine,
        parser: Callable[[object], ConjunctiveQuery] | None = None,
        name: str | None = None,
    ) -> None:
        self.engine = engine
        self._parser = parser
        if name is not None:
            self.name = name
        self._capabilities = BackendCapabilities(
            name=self.name,
            description="conjunctive queries over the view-rewriting citation engine",
            dialects=("datalog", "sql"),
            payload_types=(str, ConjunctiveQuery),
            modes=("formal", "economical"),
            supports_plan_cache=True,
            supports_result_cache=True,
            supports_as_of=False,
            supports_policy_override=True,
        )

    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    # -- routing ---------------------------------------------------------------
    def claims(self, request: CitationRequest) -> bool:
        if not super().claims(request):
            return False
        # Under auto-routing, a multi-rule program string belongs to the
        # union backend, not here.
        if request.dialect == "auto" and isinstance(request.query, str):
            return not _looks_like_program(request.query)
        return True

    # -- the five phases -------------------------------------------------------
    def parse(self, request: CitationRequest) -> ConjunctiveQuery:
        query = request.query
        if not isinstance(query, str):
            if isinstance(query, ConjunctiveQuery):
                return query
            raise CitationError(
                f"the {self.name!r} backend takes a ConjunctiveQuery or a string, "
                f"not {type(query).__name__}"
            )
        if self._parser is not None:
            return self._parser(query)
        text = query.strip()
        if request.dialect == "sql" or (
            request.dialect == "auto" and text.lower().startswith("select")
        ):
            return parse_sql(text, self.engine.database.schema)
        return parse_query(text)

    def fingerprint(self, parsed: ConjunctiveQuery, request: CitationRequest) -> str:
        """Fingerprint of the *minimized core*, not the query as submitted.

        Cores are unique up to isomorphism and the fingerprint is
        isomorphism-invariant, so every redundant variant of the same query
        lands on one plan-cache and result-cache entry.  The engine caches
        the analysis, so the subsequent ``compile`` reuses it; with the
        engine's ``analysis="off"`` the core *is* the parsed query.
        """
        return fingerprint(self.engine.analyze(parsed).core)

    def compile(self, parsed: ConjunctiveQuery, request: CitationRequest) -> CitationPlan:
        return self.engine.compile_plan(parsed, self._mode(request))

    def execute(
        self, plan: CitationPlan, parsed: ConjunctiveQuery, request: CitationRequest
    ) -> CitedResult:
        if request.policy is None:
            return self.engine.execute_plan(plan, query=parsed)
        return self.engine.execute_plan(plan, query=parsed, policy=request.policy)

    # -- cache integration -----------------------------------------------------
    def _mode(self, request: CitationRequest) -> str:
        return request.mode or self.engine.mode

    def cache_variant(self, request: CitationRequest) -> Hashable:
        return ("mode", self._mode(request))

    def result_token(self, request: CitationRequest) -> Hashable:
        return self.engine.plan_token()

    def refresh_result(
        self, result: CitedResult, token: Hashable, request: CitationRequest
    ) -> tuple[CitedResult, Hashable] | None:
        """Re-stamp or patch the cached result through the engine's change
        log (:meth:`~repro.core.engine.CitationEngine.refresh_result`)."""
        return self.engine.refresh_result(result, token)  # type: ignore[arg-type]

    def plan_token(self, request: CitationRequest) -> Hashable:
        """Formal-mode plans survive data changes; economical ones do not.

        The rewriting search reads only the query and the view definitions,
        so formal (and fallback) plans are stamped ``("any", epoch)`` and
        outlive ordinary inserts/deletes; economical plans embed a cost-based
        selection made against the data and carry the full generation stamp.
        """
        generation, epoch = self.engine.plan_token()
        if self._mode(request) == "economical":
            return (generation, epoch)
        return ("any", epoch)

    def rebind(
        self, result: CitedResult, parsed: ConjunctiveQuery, request: CitationRequest
    ) -> CitedResult:
        """Re-attach a cached result to an isomorphic variant of its query.

        Answer rows and citations are identical across an isomorphism class;
        only the result schema (head variable names) and the reported query
        text differ.
        """
        if parsed == result.query:
            return result
        relation = Relation(result_schema(parsed), result.result.rows)
        citation = Citation(
            result.citation.records,
            expression=result.citation.expression,
            query_text=str(parsed),
            version=result.citation.version,
            timestamp=result.citation.timestamp,
        )
        return CitedResult(
            query=parsed,
            rewritings=result.rewritings,
            tuple_citations=result.tuple_citations,
            citation=citation,
            policy=result.policy,
            mode=result.mode,
            result=relation,
            used_fallback=result.used_fallback,
        )

    # -- response helpers ------------------------------------------------------
    def citation_of(self, result: CitedResult) -> Citation:
        return result.citation


def _looks_like_program(text: str) -> bool:
    """Cheap heuristic: does *text* contain more than one Datalog rule?"""
    return text.count(":-") > 1
