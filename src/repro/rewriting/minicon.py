"""A MiniCon-style rewriting algorithm.

MiniCon (Pottinger & Halevy) improves on the Bucket algorithm by reasoning
about *sets* of query subgoals a view can cover consistently — a MiniCon
Description (MCD) — and then combining MCDs whose covered sets partition the
query's subgoals.  This prunes combinations the Bucket algorithm would
generate and reject, which is exactly the kind of search-space reduction the
paper's "Calculating citations" challenge calls for.

As with the Bucket implementation, every produced rewriting is verified by
expansion + containment, so heuristic over-approximations in MCD formation
cannot yield incorrect rewritings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.query.ast import Atom, ConjunctiveQuery, Constant, Term, Variable
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
    return Variable(f"_m{next(_fresh_counter)}_{stem}")


@dataclass
class MCD:
    """A MiniCon Description: a view covering a set of query subgoals."""

    view: View
    covered: frozenset[int]
    #: mapping from query variables to view terms (the homomorphism φ⁻¹ direction)
    query_to_view: dict[Term, Term] = field(default_factory=dict)
    #: the view terms each query constant meets, in the order met; the
    #: rewriting puts the constant at every one of them
    constants: dict[Term, tuple[Term, ...]] = field(default_factory=dict)
    #: the view terms a query variable meets when it meets more than one,
    #: in the order met (the first is its ``query_to_view`` image); all are
    #: head variables of the view, and the rewriting puts the variable at
    #: every one of them
    repeated: dict[Term, tuple[Term, ...]] = field(default_factory=dict)

    def conflicts_with(self, other: "MCD") -> bool:
        """Two MCDs conflict when their covered subgoal sets overlap."""
        return bool(self.covered & other.covered)


@dataclass
class MiniConStatistics:
    """Counters describing the MCD search."""

    mcds: int = 0
    combinations_considered: int = 0
    candidates_verified: int = 0


class MiniConRewriter:
    """Generate equivalent rewritings via MCD formation and combination."""

    def __init__(self, views: Sequence[View], max_candidates: int | None = 100_000) -> None:
        self.views = tuple(views)
        self.max_candidates = max_candidates
        self.last_statistics: MiniConStatistics | None = None

    # -- MCD formation ------------------------------------------------------------
    def _form_mcds(self, query: ConjunctiveQuery) -> list[MCD]:
        mcds: list[MCD] = []
        head_vars = query.head_variables()
        for view in self.views:
            definition = view.query.without_parameters().inline_equalities()
            view_head_vars = {
                t for t in definition.head_terms if isinstance(t, Variable)
            }
            for start_index, start_subgoal in enumerate(query.body):
                for view_subgoal in definition.body:
                    mcd = self._grow_mcd(
                        query,
                        definition,
                        view,
                        view_head_vars,
                        head_vars,
                        start_index,
                        start_subgoal,
                        view_subgoal,
                    )
                    if mcd is not None and not any(
                        mcd.covered == existing.covered
                        and mcd.view is existing.view
                        and mcd.query_to_view == existing.query_to_view
                        and mcd.constants == existing.constants
                        and mcd.repeated == existing.repeated
                        for existing in mcds
                    ):
                        mcds.append(mcd)
        return mcds

    def _grow_mcd(
        self,
        query: ConjunctiveQuery,
        definition: ConjunctiveQuery,
        view: View,
        view_head_vars: set[Variable],
        query_head_vars: set[Variable],
        start_index: int,
        start_subgoal: Atom,
        view_subgoal: Atom,
    ) -> MCD | None:
        mapping: dict[Term, Term] = {}
        constants: dict[Term, tuple[Term, ...]] = {}
        repeated: dict[Term, tuple[Term, ...]] = {}
        if not self._extend_mapping(
            start_subgoal, view_subgoal, view_head_vars, mapping, constants, repeated
        ):
            return None
        covered = {start_index}

        # Closure: if a query variable maps to an existential view variable, every
        # query subgoal using that variable must also be covered by this MCD.
        changed = True
        while changed:
            changed = False
            for query_term, view_term in list(mapping.items()):
                if not isinstance(query_term, Variable):
                    continue
                if not isinstance(view_term, Variable):
                    continue
                if view_term in view_head_vars:
                    continue
                if query_term in query_head_vars:
                    return None  # head variable hidden behind an existential view var
                for index, subgoal in enumerate(query.body):
                    if index in covered or query_term not in subgoal.variables():
                        continue
                    placed = False
                    for candidate in definition.body:
                        trial, trial_constants = dict(mapping), dict(constants)
                        trial_repeated = dict(repeated)
                        if self._extend_mapping(
                            subgoal, candidate, view_head_vars, trial, trial_constants,
                            trial_repeated,
                        ):
                            mapping, constants = trial, trial_constants
                            repeated = trial_repeated
                            covered.add(index)
                            placed = True
                            changed = True
                            break
                    if not placed:
                        return None
        return MCD(
            view=view,
            covered=frozenset(covered),
            query_to_view=mapping,
            constants=constants,
            repeated=repeated,
        )

    @staticmethod
    def _extend_mapping(
        query_subgoal: Atom,
        view_subgoal: Atom,
        view_head_vars: set[Variable],
        mapping: dict[Term, Term],
        constants: dict[Term, tuple[Term, ...]],
        repeated: dict[Term, tuple[Term, ...]],
    ) -> bool:
        if (
            query_subgoal.predicate != view_subgoal.predicate
            or query_subgoal.arity != view_subgoal.arity
        ):
            return False
        for query_term, view_term in zip(query_subgoal.terms, view_subgoal.terms):
            if isinstance(query_term, Constant):
                if isinstance(view_term, Constant):
                    if query_term != view_term:
                        return False
                    continue
                # A constant in the query must be checkable through the view
                # head at every view term it meets: `Family(F, "c", "c")` over
                # `Family(FID, FName, Desc)` binds both FName and Desc to "c".
                met = constants.get(query_term, ())
                if view_term not in met:
                    constants[query_term] = (*met, view_term)
                continue
            # Likewise a variable repeated within `Family(X, N, N)` meets both
            # `FName` and `Desc`.  Only the view head can equate them: an
            # existential view variable or a constant refuses this subgoal.
            existing = mapping.get(query_term)
            if existing is None:
                mapping[query_term] = view_term
            elif existing != view_term:
                if existing not in view_head_vars or view_term not in view_head_vars:
                    return False
                met = repeated.get(query_term, (existing,))
                if view_term not in met:
                    repeated[query_term] = (*met, view_term)
        return True

    # -- combination ---------------------------------------------------------------
    def rewrite(self, query: ConjunctiveQuery, minimize: bool = True) -> list[Rewriting]:
        """Return all minimal equivalent rewritings found for *query*."""
        query = query.without_parameters().inline_equalities()
        mcds = self._form_mcds(query)
        statistics = MiniConStatistics(mcds=len(mcds))
        self.last_statistics = statistics
        subgoals = frozenset(range(len(query.body)))
        results: list[Rewriting] = []
        deadline = current_deadline()
        check = deadline.checker("rewriting") if deadline is not None else None

        for combination in self._partitions(mcds, subgoals):
            if check is not None:
                check()
            statistics.combinations_considered += 1
            if (
                self.max_candidates is not None
                and statistics.combinations_considered > self.max_candidates
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

    def _partitions(self, mcds: list[MCD], subgoals: frozenset[int]):
        """Yield combinations of pairwise-disjoint MCDs covering all subgoals.

        Each step must cover the minimal uncovered subgoal, so every valid
        combination is produced exactly once (its members are chosen in the
        canonical order of the subgoals they cover).
        """

        def recurse(remaining: frozenset[int], chosen: list[MCD]):
            if not remaining:
                yield list(chosen)
                return
            target = min(remaining)
            for mcd in mcds:
                if target not in mcd.covered:
                    continue
                if not mcd.covered <= remaining:
                    continue
                chosen.append(mcd)
                yield from recurse(remaining - mcd.covered, chosen)
                chosen.pop()

        yield from recurse(subgoals, [])

    def _assemble(
        self, query: ConjunctiveQuery, combination: Sequence[MCD]
    ) -> Rewriting | None:
        atoms: list[Atom] = []
        for mcd in combination:
            definition = mcd.view.query.without_parameters()
            view_to_query: dict[Term, Term] = {}
            images = [
                (term, mcd.repeated.get(term, (image,)))
                for term, image in mcd.query_to_view.items()
            ]
            for query_term, view_terms in images + list(mcd.constants.items()):
                for view_term in view_terms:
                    if isinstance(view_term, Variable) and view_term not in view_to_query:
                        view_to_query[view_term] = query_term
            terms: list[Term] = []
            for head_term in definition.head_terms:
                if isinstance(head_term, Variable):
                    mapped = view_to_query.get(head_term)
                    terms.append(
                        mapped if mapped is not None else _fresh_variable(head_term.name)
                    )
                else:
                    terms.append(head_term)
            atom = Atom(mcd.view.name, tuple(terms))
            if atom not in atoms:
                atoms.append(atom)
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
