"""The Bucket algorithm for answering queries using views.

For every subgoal of the query, a *bucket* collects view atoms that can cover
it.  Candidate rewritings are formed by taking one element from every bucket
and are then verified (via expansion and containment) to be equivalent to the
query.  The algorithm follows Halevy's survey (VLDB J. 2001), which the paper
cites as [9]; verification makes the generate-and-test loop sound even where
the bucket-filling heuristics are permissive.

Known limitation (shared with the classical formulation): because bucket
entries consider one query subgoal at a time, a rewriting that needs a single
view atom to cover *several* subgoals connected through an existential view
variable is not discovered — the per-subgoal entries introduce distinct fresh
variables that the assembly step never re-unifies.  The MiniCon algorithm
(:mod:`repro.rewriting.minicon`) was designed around exactly this weakness
and finds those rewritings; benchmark E3 quantifies the difference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.query.ast import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Term,
    Variable,
)
from repro.resilience.deadline import current_deadline
from repro.rewriting.rewriting import (
    Rewriting,
    deduplicate_rewritings,
    is_equivalent_rewriting,
    minimize_rewriting,
)
from repro.rewriting.view import View

_fresh_counter = itertools.count()


def _fresh_variable(stem: str) -> Variable:
    return Variable(f"_b{next(_fresh_counter)}_{stem}")


@dataclass(frozen=True)
class BucketEntry:
    """One way a view can cover one query subgoal."""

    view: View
    view_atom: Atom
    covered_subgoal: int


@dataclass
class BucketStatistics:
    """Counters describing the search performed by :class:`BucketRewriter`."""

    buckets: list[int]
    candidates_considered: int = 0
    candidates_verified: int = 0

    @property
    def candidate_space(self) -> int:
        """Size of the full cross product of the buckets."""
        space = 1
        for size in self.buckets:
            space *= size
        return space


class BucketRewriter:
    """Generate equivalent rewritings of a conjunctive query using views."""

    def __init__(self, views: Sequence[View], max_candidates: int | None = 100_000) -> None:
        self.views = tuple(views)
        self.max_candidates = max_candidates
        self.last_statistics: BucketStatistics | None = None

    # -- bucket construction ---------------------------------------------------
    def _bucket_for(self, query: ConjunctiveQuery, subgoal_index: int) -> list[BucketEntry]:
        subgoal = query.body[subgoal_index]
        required = query.head_variables() | query.join_variables()
        bucket: list[BucketEntry] = []
        for view in self.views:
            definition = view.query.without_parameters().inline_equalities()
            view_head_vars = set(
                t for t in definition.head_terms if isinstance(t, Variable)
            )
            for view_subgoal in definition.body:
                mapping = self._unify_subgoal(
                    subgoal, view_subgoal, view_head_vars, required
                )
                if mapping is None:
                    continue
                view_atom = self._entry_atom(view, definition, mapping)
                bucket.append(BucketEntry(view, view_atom, subgoal_index))
        return bucket

    @staticmethod
    def _unify_subgoal(
        query_subgoal: Atom,
        view_subgoal: Atom,
        view_head_vars: set[Variable],
        required: set[Variable],
    ) -> dict[Variable, Term] | None:
        """Map view variables (of one view subgoal) to query terms, or ``None``.

        A query term that is a head/join variable of the query or a constant
        must be matched by a *distinguished* view variable, otherwise the view
        cannot expose or constrain it.
        """
        if (
            query_subgoal.predicate != view_subgoal.predicate
            or query_subgoal.arity != view_subgoal.arity
        ):
            return None
        mapping: dict[Variable, Term] = {}
        for query_term, view_term in zip(query_subgoal.terms, view_subgoal.terms):
            if isinstance(view_term, Constant):
                if isinstance(query_term, Constant) and query_term == view_term:
                    continue
                if isinstance(query_term, Variable) and query_term not in required:
                    continue
                return None
            assert isinstance(view_term, Variable)
            needs_distinguished = isinstance(query_term, Constant) or (
                isinstance(query_term, Variable) and query_term in required
            )
            if needs_distinguished and view_term not in view_head_vars:
                return None
            existing = mapping.get(view_term)
            if existing is None:
                mapping[view_term] = query_term
            elif existing != query_term:
                return None
        return mapping

    @staticmethod
    def _entry_atom(
        view: View, definition: ConjunctiveQuery, mapping: dict[Variable, Term]
    ) -> Atom:
        terms: list[Term] = []
        for head_term in definition.head_terms:
            if isinstance(head_term, Variable) and head_term in mapping:
                terms.append(mapping[head_term])
            elif isinstance(head_term, Constant):
                terms.append(head_term)
            else:
                stem = head_term.name if isinstance(head_term, Variable) else "c"
                terms.append(_fresh_variable(stem))
        return Atom(view.name, tuple(terms))

    # -- candidate generation -----------------------------------------------------
    def rewrite(
        self, query: ConjunctiveQuery, minimize: bool = True
    ) -> list[Rewriting]:
        """Return all minimal equivalent rewritings found for *query*."""
        query = query.without_parameters().inline_equalities()
        buckets = [self._bucket_for(query, i) for i in range(len(query.body))]
        statistics = BucketStatistics(buckets=[len(b) for b in buckets])
        self.last_statistics = statistics
        if any(not bucket for bucket in buckets):
            return []

        results: list[Rewriting] = []
        deadline = current_deadline()
        check = deadline.checker("rewriting") if deadline is not None else None
        for combination in itertools.product(*buckets):
            if check is not None:
                check()
            statistics.candidates_considered += 1
            if (
                self.max_candidates is not None
                and statistics.candidates_considered > self.max_candidates
            ):
                break
            candidate = self._assemble(query, combination)
            if candidate is None:
                continue
            statistics.candidates_verified += 1
            if not is_equivalent_rewriting(query, candidate):
                continue
            if minimize:
                candidate = minimize_rewriting(candidate)
            results.append(candidate)
        return deduplicate_rewritings(results)

    def _assemble(
        self, query: ConjunctiveQuery, combination: Iterable[BucketEntry]
    ) -> Rewriting | None:
        atoms: list[Atom] = []
        for entry in combination:
            if entry.view_atom not in atoms:
                atoms.append(entry.view_atom)
        bound = {v for atom in atoms for v in atom.variables()}
        bound.update(eq.variable for eq in query.equalities)
        for term in query.head_terms:
            if isinstance(term, Variable) and term not in bound:
                return None
        rewriting_query = ConjunctiveQuery(query.head, tuple(atoms), query.equalities)
        try:
            return Rewriting(rewriting_query, self.views)
        except Exception:
            return None
