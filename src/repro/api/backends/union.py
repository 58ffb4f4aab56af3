"""The UCQ backend: unions of conjunctive queries behind the API.

Adapts :func:`~repro.core.union_engine.compile_union_plan` /
:func:`~repro.core.union_engine.execute_union_plan`, so a cached union plan
skips the rewriting search of *every* disjunct.  The fingerprint is the
sorted multiset of the disjuncts' structural fingerprints: two unions that
differ only in variable naming, atom order or disjunct order share one cache
slot.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from collections.abc import Hashable

from repro.api.backend import BackendCapabilities, CitationBackend
from repro.api.backends.relational import _looks_like_program
from repro.api.envelope import CitationRequest
from repro.core.citation import Citation
from repro.core.engine import CitationEngine
from repro.core.union_engine import (
    UnionCitationPlan,
    UnionCitedResult,
    compile_union_plan,
    execute_union_plan,
)
from repro.errors import CitationError
from repro.query.ast import ConjunctiveQuery
from repro.query.evaluator import result_schema
from repro.query.ucq import UnionQuery, as_union
from repro.relational.relation import Relation
from repro.service.fingerprint import fingerprint

__all__ = ["UnionBackend"]


class UnionBackend(CitationBackend):
    """Serve union-of-CQ citation requests over a :class:`CitationEngine`."""

    name = "union"

    def __init__(
        self,
        engine: CitationEngine,
        on_uncovered_disjunct: str = "error",
        name: str | None = None,
    ) -> None:
        self.engine = engine
        self.on_uncovered_disjunct = on_uncovered_disjunct
        if name is not None:
            self.name = name
        self._capabilities = BackendCapabilities(
            name=self.name,
            description="unions of conjunctive queries, one compiled plan per disjunct",
            dialects=("program",),
            payload_types=(UnionQuery, str),
            modes=("formal", "economical"),
            supports_plan_cache=True,
            supports_result_cache=True,
            supports_as_of=False,
            supports_policy_override=False,
        )

    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    # -- routing ---------------------------------------------------------------
    def claims(self, request: CitationRequest) -> bool:
        if request.as_of is not None:
            return False
        if request.dialect != "auto":
            return request.dialect in self._capabilities.dialects
        if isinstance(request.query, UnionQuery):
            return True
        # A multi-rule program string routes here under auto-detection — the
        # exact complement of what RelationalBackend declines.
        return isinstance(request.query, str) and _looks_like_program(request.query)

    # -- the five phases -------------------------------------------------------
    def parse(self, request: CitationRequest) -> UnionQuery:
        query = request.query
        if isinstance(query, str):
            # Accept ';' as a single-line rule separator (the CLI's batch
            # files are one query per line).
            return UnionQuery.parse(query.replace(";", "\n"))
        if isinstance(query, (UnionQuery, ConjunctiveQuery, Sequence)):
            return as_union(query)
        raise CitationError(
            f"the {self.name!r} backend takes a UnionQuery, a ConjunctiveQuery, "
            f"a sequence of ConjunctiveQuery or a program string, "
            f"not {type(query).__name__}"
        )

    def fingerprint(self, parsed: UnionQuery, request: CitationRequest) -> str:
        disjunct_keys = sorted(fingerprint(disjunct) for disjunct in parsed.disjuncts)
        digest = hashlib.sha256(("ucq1|" + "|".join(disjunct_keys)).encode("utf-8"))
        return digest.hexdigest()[:32]

    def compile(self, parsed: UnionQuery, request: CitationRequest) -> UnionCitationPlan:
        return compile_union_plan(
            self.engine,
            parsed,
            mode=self._mode(request),
            on_uncovered_disjunct=self.on_uncovered_disjunct,
        )

    def execute(
        self, plan: UnionCitationPlan, parsed: UnionQuery, request: CitationRequest
    ) -> UnionCitedResult:
        result = execute_union_plan(self.engine, plan)
        return self.rebind(result, parsed, request)

    # -- cache integration -----------------------------------------------------
    def _mode(self, request: CitationRequest) -> str:
        return request.mode or self.engine.mode

    def cache_variant(self, request: CitationRequest) -> Hashable:
        return ("mode", self._mode(request), "uncovered", self.on_uncovered_disjunct)

    def result_token(self, request: CitationRequest) -> Hashable:
        return self.engine.plan_token()

    def plan_token(self, request: CitationRequest) -> Hashable:
        return self.engine.plan_stamp(self._mode(request))

    def rebind(
        self, result: UnionCitedResult, parsed: UnionQuery, request: CitationRequest
    ) -> UnionCitedResult:
        """Re-attach a cached union result to an isomorphic variant.

        Rows, tuple citations and records are identical across the
        isomorphism class; the result schema takes the variant's first
        disjunct's head names and the reported query text is the variant's.
        ``per_disjunct_rewritings`` keeps the executed query's disjunct
        order.
        """
        if parsed == result.query:
            return result
        schema = result_schema(parsed.disjuncts[0])
        relation = Relation(
            type(schema)(parsed.name, schema.attributes, key=None), result.result.rows
        )
        citation = Citation(
            result.citation.records,
            expression=result.citation.expression,
            query_text=str(parsed),
        )
        return UnionCitedResult(
            query=parsed,
            tuple_citations=result.tuple_citations,
            citation=citation,
            result=relation,
            per_disjunct_rewritings=result.per_disjunct_rewritings,
            uncovered_disjuncts=result.uncovered_disjuncts,
        )

    # -- response helpers ------------------------------------------------------
    def citation_of(self, result: UnionCitedResult) -> Citation:
        return result.citation
