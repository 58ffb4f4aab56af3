"""Incremental citation maintenance (Section 3, "Citation evolution").

Recomputing every citation after every update is wasteful; the paper calls
computing citations incrementally "an intriguing computational challenge".
The :class:`IncrementalCitationMaintainer` keeps the cited result of one
query current under writes made through the
:class:`~repro.relational.database.Database`, by any writer: the database's
change log is its only input.  Reading the result brings it forward
(:meth:`~IncrementalCitationMaintainer.refresh`):

* :meth:`CitationEngine.refresh_result` goes first, re-stamping a result no
  logged change reaches or rebuilding the rows whose records alone changed;
* when the result's views only gained rows, semi-naive delta evaluation
  finds the output rows with a derivation through a *new* view row, and
  those rows, plus every row holding a record the changes reach, are
  re-derived;
* otherwise the held plan is executed again, and compiled again first when
  it is economical.

The held view extents are the engine's own relation objects (the engine
replaces a view it patches or re-materialises), so no copy is kept.
:meth:`~IncrementalCitationMaintainer.recompute` cites from scratch; the E7
benchmark measures the incremental path against it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Mapping

from repro.core.engine import (
    CitationEngine,
    CitationPlan,
    CitedResult,
    PlanToken,
    aggregate_citation,
    holds_reached,
)
from repro.core.citation import Citation
from repro.errors import CitationError
from repro.query.ast import Atom, ConjunctiveQuery, Constant, Variable
from repro.query.evaluator import Binding, QueryEvaluator
from repro.relational.relation import Relation
from repro.rewriting.rewriting import Rewriting


@dataclass
class MaintenanceStatistics:
    """Counters of the maintainer's work: logged generations consumed and
    those absorbed with no row touched; rows re-derived (an execution counts
    every row), gained and lost; full recomputations (the initial citation
    and each :meth:`IncrementalCitationMaintainer.recompute`)."""

    updates_seen: int = 0
    updates_ignored: int = 0
    rows_recomputed: int = 0
    rows_added: int = 0
    rows_removed: int = 0
    full_recomputations: int = 0


class IncrementalCitationMaintainer:
    """Keeps the cited result of one query current under database updates.

    Construction cites the query over the engine's caches as they stand and
    counts as the one full recomputation.
    """

    def __init__(self, engine: CitationEngine, query: ConjunctiveQuery | str) -> None:
        self.engine = engine
        self.query = engine._as_query(query)
        self.statistics = MaintenanceStatistics(full_recomputations=1)
        self._cite()

    # -- state -----------------------------------------------------------------
    @property
    def result(self) -> CitedResult:
        """The cited result, brought forward to the database's current state."""
        return self.refresh()

    def citation(self) -> Citation:
        """The current aggregate citation."""
        return self.result.citation

    def _cite(self) -> None:
        """Compile and execute the query with the engine's caches as they stand."""
        self._token: PlanToken = self.engine.plan_token()
        self._plan: CitationPlan = self.engine.compile_plan(self.query)
        self._take(self.engine.execute_plan(self._plan))

    def _take(self, result: CitedResult) -> None:
        """Hold *result* and the extents of the views its rewritings read."""
        self._result = result
        relations = self.engine.view_relations() if result.rewritings else {}
        self._views = {
            atom.predicate: relations[atom.predicate]
            for rewriting in result.rewritings
            for atom in rewriting.query.body
        }

    # -- full recomputation -------------------------------------------------------
    def recompute(self) -> CitedResult:
        """Recompute the cited result from scratch (also drops the engine's caches)."""
        self.engine.invalidate_caches()
        self._cite()
        self.statistics.full_recomputations += 1
        return self._result

    # -- bringing the result forward -------------------------------------------------
    def refresh(self) -> CitedResult:
        """Bring the held result forward over the database's logged changes."""
        token = self.engine.plan_token()
        if token == self._token:
            return self._result
        statistics = self.statistics
        seen = token[0] - self._token[0]
        statistics.updates_seen += seen
        result = self._result
        brought = self.engine.refresh_result(result, self._token)
        if brought is not None:
            self._result, self._token = brought
            if self._result is result:
                statistics.updates_ignored += seen
            return self._result
        changes = self.engine.database.changes_since(self._token[0])
        relations = self.engine.view_relations() if self._views else {}
        if (
            changes is None
            or token[1] != self._token[1]
            or self._plan.data_dependent
            or (added := self._added_view_rows(relations)) is None
        ):
            self._execute(token)
            return self._result
        self._token = (changes[0], token[1])
        # Delta and per-row queries probe a few rows over the engine's view indexes.
        evaluator = QueryEvaluator(
            self.engine.database,
            extra_relations=relations,
            index_manager=self.engine._index_manager,
        )
        rows = self._delta_output_rows(evaluator, added)
        keys, whole, _ = self.engine._reach(changes[1])
        if keys or whole:
            rows.update(
                tc.row
                for tc in result.tuple_citations
                if holds_reached(tc.expression, keys, whole)
            )
        if rows:
            self._patch_rows(evaluator, rows)
        else:
            statistics.updates_ignored += seen
        self._take(self._result)
        return self._result

    def _added_view_rows(self, relations: Mapping[str, Relation]) -> dict[str, set[tuple]] | None:
        """The rows each held view gained since the held token; ``None``
        when a view lost rows (or the result reads no view)."""
        if not self._views:
            return None
        added: dict[str, set[tuple]] = {}
        for name, old in self._views.items():
            new = relations[name]
            if new is not old:
                old_rows, new_rows = old.rows, new.rows
                if not old_rows <= new_rows:
                    return None
                if gained := new_rows - old_rows:
                    added[name] = set(gained)
        return added

    def _execute(self, token: PlanToken) -> None:
        """Execute the held plan again; compile it first when it is
        :attr:`~repro.core.engine.CitationPlan.data_dependent`."""
        old_rows = self._result.result.rows
        if self._plan.data_dependent:
            self._cite()
        else:
            self._token = token
            self._take(self.engine.execute_plan(self._plan))
        new_rows = self._result.result.rows
        self.statistics.rows_recomputed += len(new_rows)
        self.statistics.rows_added += len(new_rows - old_rows)
        self.statistics.rows_removed += len(old_rows - new_rows)

    # -- delta machinery -----------------------------------------------------------------
    def _delta_output_rows(
        self, evaluator: QueryEvaluator, added: Mapping[str, set[tuple]]
    ) -> set[tuple]:
        """Output rows that gain at least one new derivation (semi-naive delta)."""
        for name, rows in added.items():
            evaluator.extra_relations[f"__delta_{name}__"] = Relation.of_valid_rows(
                evaluator.extra_relations[name].schema, rows
            )
        new_rows: set[tuple] = set()
        for rewriting in self._result.rewritings:
            query = rewriting.query
            for index, atom in enumerate(query.body):
                if atom.predicate in added:
                    delta = Atom(f"__delta_{atom.predicate}__", atom.terms)
                    body = (*query.body[:index], delta, *query.body[index + 1 :])
                    delta_query = ConjunctiveQuery(query.head, body, query.equalities)
                    new_rows.update(evaluator.evaluate(delta_query).rows)
        return new_rows

    # -- row-level patching -------------------------------------------------------------------
    @staticmethod
    def _bindings_for_row(
        evaluator: QueryEvaluator, rewriting: Rewriting, row: tuple
    ) -> list[Binding]:
        """All bindings of *rewriting* that produce exactly *row*."""
        substitution: dict[Variable, Constant] = {}
        for term, value in zip(rewriting.query.head_terms, row):
            if isinstance(term, Variable):
                existing = substitution.get(term)
                if existing is not None and existing.value != value:
                    return []
                substitution[term] = Constant(value)
            elif isinstance(term, Constant) and term.value != value:
                return []
        values = {variable: constant.value for variable, constant in substitution.items()}
        bound_query = rewriting.query.substitute(substitution)
        return [{**binding, **values} for binding in evaluator.bindings(bound_query)]

    def _patch_rows(self, evaluator: QueryEvaluator, rows: set[tuple]) -> None:
        """Re-derive the citations of *rows*, dropping those that vanished."""
        result = self._result
        surviving = [tc for tc in result.tuple_citations if tc.row not in rows]
        existing_rows = result.result.rows
        for row in rows:
            alternatives = [
                (rewriting, bindings)
                for rewriting in result.rewritings
                if (bindings := self._bindings_for_row(evaluator, rewriting, row))
            ]
            self.statistics.rows_recomputed += 1
            if alternatives:
                surviving.append(self.engine.cite_row(row, alternatives))
                self.statistics.rows_added += row not in existing_rows
            else:
                self.statistics.rows_removed += row in existing_rows
        surviving.sort(key=lambda tc: repr(tc.row))
        self._result = replace(
            result,
            tuple_citations=surviving,
            citation=aggregate_citation(surviving, result.policy, result.query),
            result=Relation.of_valid_rows(result.result.schema, {tc.row for tc in surviving}),
        )

    # -- invariants -------------------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Verify that the maintained result matches a from-scratch computation.

        Raises :class:`CitationError` on divergence; used heavily in tests.
        """
        maintained = self.result
        fresh_engine_result = self.engine.cite(self.query)
        maintained_rows = {tc.row for tc in maintained.tuple_citations}
        fresh_rows = {tc.row for tc in fresh_engine_result.tuple_citations}
        if maintained_rows != fresh_rows:
            raise CitationError(
                "incremental maintenance diverged on the answer set: "
                f"maintained={sorted(maintained_rows, key=repr)} "
                f"fresh={sorted(fresh_rows, key=repr)}"
            )
        if maintained.citation.records != fresh_engine_result.citation.records:
            raise CitationError("incremental maintenance diverged on the aggregate citation")
