"""Incremental citation maintenance (Section 3, "Citation evolution").

Data and citation views evolve over time.  Recomputing every citation after
every update is wasteful; the paper calls computing citations incrementally
"an intriguing computational challenge".  The
:class:`IncrementalCitationMaintainer` keeps the cited result of one query up
to date under base-table inserts and deletes:

* updates to relations that none of the used views mention are absorbed with
  no work at all (the common case for a curated database with many tables);
* inserts are handled with semi-naive delta evaluation: only bindings that
  use at least one *new* view row are enumerated and added;
* deletes first compute which view rows disappeared; only output tuples whose
  citation used one of those rows are re-derived.

A full recomputation path (:meth:`recompute`) is kept for comparison — the E7
benchmark measures the speed-up of the incremental path over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping

from repro.core.engine import (
    CitationEngine,
    CitedResult,
    PlanToken,
    TupleCitation,
    aggregate_citation,
)
from repro.core.citation import Citation
from repro.errors import CitationError
from repro.query.ast import Atom, ConjunctiveQuery, Constant, Variable
from repro.query.evaluator import Binding, QueryEvaluator
from repro.relational.relation import Relation
from repro.rewriting.rewriting import Rewriting
from repro.rewriting.view import View

#: Signature of a maintenance listener: ``(relation, kind)`` where *kind* is
#: one of ``"answer"`` (the cited result was patched), ``"records"`` (only
#: snippet contents were refreshed) or ``"ignored"`` (the update did not
#: affect the maintained result).  The serving layer registers one of these
#: to observe maintenance activity; cache *correctness* does not depend on it
#: (stale plans are already rejected via the database generation token).
MaintenanceListener = Callable[[str, str], None]


@dataclass
class MaintenanceStatistics:
    """Counters describing the work done by the maintainer."""

    updates_seen: int = 0
    updates_ignored: int = 0
    rows_recomputed: int = 0
    rows_added: int = 0
    rows_removed: int = 0
    full_recomputations: int = 0


class IncrementalCitationMaintainer:
    """Keeps the cited result of one query current under database updates."""

    def __init__(self, engine: CitationEngine, query: ConjunctiveQuery | str) -> None:
        self.engine = engine
        self.query = engine._as_query(query)
        self.statistics = MaintenanceStatistics()
        self._listeners: list[MaintenanceListener] = []
        self._result: CitedResult | None = None
        # The engine token the result is current at.
        self._token: PlanToken = engine.plan_token()
        self._view_extents: dict[str, set[tuple]] = {}
        self._relations_of_interest: set[str] = set()
        self._citation_relations: set[str] = set()
        self.recompute()

    # -- state -----------------------------------------------------------------
    @property
    def result(self) -> CitedResult:
        """The current cited result."""
        assert self._result is not None
        return self._result

    def citation(self) -> Citation:
        """The current aggregate citation."""
        return self.result.citation

    def _rewritings(self) -> list[Rewriting]:
        return self.result.rewritings

    # -- invalidation hooks -----------------------------------------------------
    def add_change_listener(self, listener: MaintenanceListener) -> None:
        """Register a callback invoked after every processed update."""
        self._listeners.append(listener)

    def remove_change_listener(self, listener: MaintenanceListener) -> None:
        """Unregister a previously added listener (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, relation: str, kind: str) -> None:
        for listener in self._listeners:
            listener(relation, kind)

    def _views_in_use(self) -> list[View]:
        views: list[View] = []
        for rewriting in self._rewritings():
            for view in rewriting.views_used():
                if view not in views:
                    views.append(view)
        return views

    # -- full recomputation -------------------------------------------------------
    def recompute(self) -> CitedResult:
        """Recompute the cited result from scratch (also refreshes caches)."""
        self.engine.invalidate_caches()
        result = self._cite()
        self.statistics.full_recomputations += 1
        return result

    def _cite(self) -> CitedResult:
        """Cite the query with the engine's caches as they stand, and take
        the view extents and relation sets maintenance reads from it."""
        self._token = self.engine.plan_token()
        self._result = self.engine.cite(self.query)
        self._view_extents = {
            name: set(relation.rows)
            for name, relation in self.engine.view_relations().items()
        }
        self._relations_of_interest = {
            atom.predicate
            for view in self._views_in_use()
            for atom in view.query.body
        }
        views_in_use = {view.name for view in self._views_in_use()}
        self._citation_relations = {
            atom.predicate
            for citation_view in self.engine.citation_views
            if citation_view.name in views_in_use
            for citation_query in citation_view.citation_queries
            for atom in citation_query.body
        } - self._relations_of_interest
        return self._result

    # -- update entry points ----------------------------------------------------------
    def insert(self, relation: str, row: tuple | Mapping[str, object]) -> bool:
        """Apply an insert to the database and maintain the citations."""
        changed = self.engine.database.insert(relation, row)
        return self._after_update(relation, changed)

    def delete(self, relation: str, row: tuple) -> bool:
        """Apply a delete to the database and maintain the citations."""
        changed = self.engine.database.delete(relation, row)
        return self._after_update(relation, changed)

    def _after_update(self, relation: str, changed: bool) -> bool:
        self.statistics.updates_seen += 1
        if not changed:
            self.statistics.updates_ignored += 1
            return False
        if relation in self._relations_of_interest:
            self._apply_view_deltas()
            self._token = self.engine.plan_token()
            self._notify(relation, "answer")
            return True
        if relation in self._citation_relations:
            # Only the snippet contents changed: the answer set and the
            # expressions' structure are unaffected.
            self._refresh_citation_records()
            self._notify(relation, "records")
            return True
        self._token = self.engine.plan_token()
        self.statistics.updates_ignored += 1
        self._notify(relation, "ignored")
        return False

    def _refresh_citation_records(self) -> None:
        """Rebuild the tuple citations a snippet update reaches.

        The engine brings the result forward through its change log,
        rebuilding just the rows whose citation holds a record the update
        can reach (:meth:`CitationEngine.refresh_result`).  When it cannot
        (an economical result, whose selection read the data, or a moved
        cache epoch), the query is cited again over the engine's caches as
        they stand, every row counting as recomputed.
        """
        refreshed = self.engine.refresh_result(self.result, self._token)
        if refreshed is None:
            self.statistics.rows_recomputed += len(self._cite())
        else:
            self._result, self._token = refreshed

    # -- delta machinery -----------------------------------------------------------------
    def _apply_view_deltas(self) -> None:
        """Refresh view extents, find added/removed view rows and patch the result.

        ``engine.view_relations()`` re-materialises by itself the views over
        the mutated relation (the others keep their relations), so no forced
        invalidation is needed here.
        """
        new_extents = {
            name: set(relation.rows)
            for name, relation in self.engine.view_relations().items()
        }
        added: dict[str, set[tuple]] = {}
        removed: dict[str, set[tuple]] = {}
        for name, rows in new_extents.items():
            old = self._view_extents.get(name, set())
            plus = rows - old
            minus = old - rows
            if plus:
                added[name] = plus
            if minus:
                removed[name] = minus
        self._view_extents = new_extents
        if not added and not removed:
            self.statistics.updates_ignored += 1
            return
        affected_rows = self._rows_using(removed) if removed else set()
        new_rows = self._delta_output_rows(added) if added else set()
        self._patch_rows(affected_rows | new_rows)

    def _rows_using(self, removed: Mapping[str, set[tuple]]) -> set[tuple]:
        """Output rows whose citation used a view row that has disappeared.

        Conservative: an output row is affected when, for some rewriting, one
        of its recorded bindings instantiates a view atom to a removed row.
        Bindings are re-derived from the stored tuple citations' expressions
        (the parameter valuations) plus the rewriting structure; to stay
        sound we simply mark every output row of a rewriting that uses a view
        with removed rows.  Precision is then restored by re-deriving those
        rows (rows that still have derivations keep their citations).
        """
        views_with_removals = set(removed)
        affected: set[tuple] = set()
        for rewriting in self._rewritings():
            if views_with_removals & {atom.predicate for atom in rewriting.query.body}:
                affected.update(tc.row for tc in self.result.tuple_citations)
                break
        return affected

    def _delta_output_rows(self, added: Mapping[str, set[tuple]]) -> set[tuple]:
        """Output rows that gain at least one new derivation (semi-naive delta)."""
        new_rows: set[tuple] = set()
        relations = self.engine.view_relations()
        for rewriting in self._rewritings():
            for index, atom in enumerate(rewriting.query.body):
                delta_rows = added.get(atom.predicate)
                if not delta_rows:
                    continue
                delta_name = f"__delta_{atom.predicate}__"
                extras = dict(relations)
                extras[delta_name] = Relation(
                    relations[atom.predicate].schema, delta_rows
                )
                body = list(rewriting.query.body)
                body[index] = Atom(delta_name, atom.terms)
                delta_query = ConjunctiveQuery(
                    rewriting.query.head, tuple(body), rewriting.query.equalities
                )
                evaluator = QueryEvaluator(self.engine.database, extra_relations=extras)
                for binding in evaluator.bindings(delta_query):
                    new_rows.add(evaluator.output_tuple(delta_query, binding))
        return new_rows

    # -- row-level patching -------------------------------------------------------------------
    def _bindings_for_row(self, rewriting: Rewriting, row: tuple) -> list[Binding]:
        """All bindings of *rewriting* that produce exactly *row*."""
        head_terms = rewriting.query.head_terms
        substitution: dict[Variable, Constant] = {}
        for term, value in zip(head_terms, row):
            if isinstance(term, Variable):
                existing = substitution.get(term)
                if existing is not None and existing.value != value:
                    return []
                substitution[term] = Constant(value)
            elif isinstance(term, Constant) and term.value != value:
                return []
        bound_query = rewriting.query.substitute(substitution)
        evaluator = QueryEvaluator(
            self.engine.database, extra_relations=self.engine.view_relations()
        )
        bindings = []
        for binding in evaluator.bindings(bound_query):
            merged: Binding = dict(binding)
            for variable, constant in substitution.items():
                merged[variable] = constant.value
            bindings.append(merged)
        return bindings

    def _recompute_tuple(self, row: tuple) -> TupleCitation | None:
        """Re-derive the citation of one output row (``None`` when it vanished)."""
        alternatives = [
            (rewriting, bindings)
            for rewriting in self._rewritings()
            if (bindings := self._bindings_for_row(rewriting, row))
        ]
        return self.engine.cite_row(row, alternatives) if alternatives else None

    def _patch_rows(self, rows: Iterable[tuple]) -> None:
        rows = set(rows)
        if not rows:
            return
        result = self.result
        surviving = [tc for tc in result.tuple_citations if tc.row not in rows]
        existing_rows = {tc.row for tc in result.tuple_citations}
        for row in sorted(rows, key=repr):
            patched = self._recompute_tuple(row)
            self.statistics.rows_recomputed += 1
            if patched is not None:
                surviving.append(patched)
                if row not in existing_rows:
                    self.statistics.rows_added += 1
            elif row in existing_rows:
                self.statistics.rows_removed += 1
        surviving.sort(key=lambda tc: repr(tc.row))

        new_relation = Relation(result.result.schema, (tc.row for tc in surviving))
        self._result = CitedResult(
            query=result.query,
            rewritings=result.rewritings,
            tuple_citations=surviving,
            citation=aggregate_citation(surviving, self.engine.policy, self.query),
            policy=result.policy,
            mode=result.mode,
            result=new_relation,
        )

    # -- invariants -------------------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Verify that the maintained result matches a from-scratch computation.

        Raises :class:`CitationError` on divergence; used heavily in tests.
        """
        fresh_engine_result = self.engine.cite(self.query)
        maintained_rows = {tc.row for tc in self.result.tuple_citations}
        fresh_rows = {tc.row for tc in fresh_engine_result.tuple_citations}
        if maintained_rows != fresh_rows:
            raise CitationError(
                "incremental maintenance diverged on the answer set: "
                f"maintained={sorted(maintained_rows, key=repr)} "
                f"fresh={sorted(fresh_rows, key=repr)}"
            )
        if self.result.citation.records != fresh_engine_result.citation.records:
            raise CitationError("incremental maintenance diverged on the aggregate citation")
