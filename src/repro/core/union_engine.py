"""Citations for unions of conjunctive queries.

The paper's model is defined for conjunctive queries; its "Other models"
section asks whether the language needs to be extended.  Unions are the
natural first extension and fit the algebra directly: an answer of
``Q = Q¹ ∪ ... ∪ Qᵏ`` may be derived through several disjuncts, and those
derivations are *alternatives* — exactly what the ``+`` operator already
models for multiple bindings.  The citation of an answer tuple is therefore

    cite(t, Q) = Σ_{i : t ∈ Qⁱ}  cite(t, Qⁱ)

where each ``cite(t, Qⁱ)`` is the (possibly ``+R``-combined) citation the CQ
engine produces for the disjunct, and ``Σ`` is the ``+`` policy.

Mirroring :class:`~repro.core.engine.CitationEngine`, the work is split into
a compile phase (:func:`compile_union_plan` — one rewriting search per
disjunct) and an execute phase (:func:`execute_union_plan` — evaluation and
citation assembly), so the serving layer can cache union plans exactly like
CQ plans.  :func:`cite_union` remains as the one-shot entry point and simply
delegates to compile + execute.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.citation import Citation
from repro.core.engine import (
    CitationEngine,
    CitationPlan,
    Mode,
    PlanToken,
    TupleCitation,
    aggregate_citation,
)
from repro.core.expression import Aggregate, alternative
from repro.errors import NoRewritingError
from repro.query.evaluator import result_schema
from repro.query.ucq import UnionQuery, as_union
from repro.relational.relation import Relation


@dataclass
class UnionCitedResult:
    """The answer of a union query with per-tuple and aggregate citations."""

    query: UnionQuery
    tuple_citations: list[TupleCitation]
    citation: Citation
    result: Relation
    per_disjunct_rewritings: list[int]
    uncovered_disjuncts: list[int]

    def rows(self) -> list[tuple]:
        """Answer tuples in deterministic order."""
        return self.result.sorted_rows()

    def __len__(self) -> int:
        return len(self.result)


@dataclass(frozen=True)
class UnionCitationPlan:
    """Compiled citation plans for every disjunct of a union query.

    A ``None`` entry marks an uncovered disjunct (no rewriting over the
    citation views, compiled with ``on_uncovered_disjunct="skip"``): its
    answers are kept at execution time but carry an empty citation.
    """

    query: UnionQuery
    disjunct_plans: tuple[CitationPlan | None, ...]
    mode: Mode
    on_uncovered_disjunct: str
    #: The engine's ``(generation, epoch)`` stamp at compile time, mirroring
    #: :attr:`CitationPlan.token` (introspection; the serving layer stamps its
    #: cache entries itself).
    token: PlanToken


def compile_union_plan(
    engine: CitationEngine,
    query: UnionQuery | str,
    mode: Mode | None = None,
    on_uncovered_disjunct: str = "error",
) -> UnionCitationPlan:
    """Run the rewriting search for every disjunct of *query*.

    Raises :class:`~repro.errors.NoRewritingError` for an uncovered disjunct
    under ``on_uncovered_disjunct="error"`` (unless the engine itself is
    configured with a fallback); ``"skip"`` records the disjunct as uncovered
    instead.
    """
    if isinstance(query, str):
        query = UnionQuery.parse(query)
    query = as_union(query)
    mode = mode or engine.mode
    plans: list[CitationPlan | None] = []
    for disjunct in query.disjuncts:
        try:
            plans.append(engine.compile_plan(disjunct, mode))
        except NoRewritingError:
            if on_uncovered_disjunct == "error":
                raise
            plans.append(None)
    return UnionCitationPlan(
        query=query,
        disjunct_plans=tuple(plans),
        mode=mode,
        on_uncovered_disjunct=on_uncovered_disjunct,
        token=engine.plan_token(),
    )


def execute_union_plan(
    engine: CitationEngine, plan: UnionCitationPlan
) -> UnionCitedResult:
    """Evaluate a compiled union plan and assemble the combined citation."""
    query = plan.query
    per_tuple_expressions: dict[tuple, list] = {}
    per_tuple_records: dict[tuple, list] = {}
    per_disjunct_rewritings: list[int] = []
    uncovered: list[int] = []
    all_rows: set[tuple] = set()

    for index, (disjunct, disjunct_plan) in enumerate(
        zip(query.disjuncts, plan.disjunct_plans)
    ):
        if disjunct_plan is None:
            uncovered.append(index)
            all_rows.update(engine.evaluate_uncovered(disjunct).rows)
            per_disjunct_rewritings.append(0)
            continue
        result = engine.execute_plan(disjunct_plan)
        per_disjunct_rewritings.append(len(result.rewritings))
        for tuple_citation in result.tuple_citations:
            all_rows.add(tuple_citation.row)
            per_tuple_expressions.setdefault(tuple_citation.row, []).append(
                tuple_citation.expression
            )
            per_tuple_records.setdefault(tuple_citation.row, []).append(
                tuple_citation.records
            )

    tuple_citations: list[TupleCitation] = []
    for row in sorted(all_rows, key=repr):
        expressions = per_tuple_expressions.get(row, [])
        if expressions:
            expression = alternative(expressions)
            records = engine.policy.alternative(per_tuple_records[row])
        else:
            expression = Aggregate([])
            records = frozenset()
        tuple_citations.append(TupleCitation(row, expression, records))

    schema = result_schema(query.disjuncts[0])
    relation = Relation(type(schema)(query.name, schema.attributes, key=None), all_rows)
    return UnionCitedResult(
        query=query,
        tuple_citations=tuple_citations,
        citation=aggregate_citation(tuple_citations, engine.policy, query),
        result=relation,
        per_disjunct_rewritings=per_disjunct_rewritings,
        uncovered_disjuncts=uncovered,
    )


def cite_union(
    engine: CitationEngine,
    query: UnionQuery | str,
    mode: Mode | None = None,
    on_uncovered_disjunct: str = "error",
) -> UnionCitedResult:
    """Answer a union query and construct its citation.

    One-shot convenience over :func:`compile_union_plan` +
    :func:`execute_union_plan` — prefer
    :meth:`repro.service.CitationService.submit` with the ``"union"`` backend
    for serving workloads, which caches the compiled plans.

    Parameters
    ----------
    engine:
        The conjunctive-query citation engine to use per disjunct.
    query:
        A :class:`UnionQuery` or its textual form (several rules with the
        same head predicate).
    mode:
        ``"formal"`` or ``"economical"``, as for :meth:`CitationEngine.cite`.
    on_uncovered_disjunct:
        ``"error"`` (default) raises when a disjunct has no rewriting over
        the citation views; ``"skip"`` drops that disjunct's citations but
        keeps its answers (they carry the engine's fallback record if the
        engine is configured with one, otherwise an empty citation).
    """
    plan = compile_union_plan(
        engine, query, mode=mode, on_uncovered_disjunct=on_uncovered_disjunct
    )
    return execute_union_plan(engine, plan)
