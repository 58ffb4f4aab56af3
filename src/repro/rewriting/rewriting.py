"""Rewritings of queries over views: representation, expansion, verification.

A :class:`Rewriting` is a conjunctive query whose body atoms refer to view
predicates.  Its *expansion* replaces every view atom with the view's body
(head variables unified with the atom's terms, existential variables renamed
fresh per occurrence).  A rewriting is an *equivalent rewriting* of a query
``Q`` when its expansion is equivalent to ``Q``; this is the notion the paper
relies on ("the set of minimal equivalent rewritings {Q1, ..., Qn}").
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence

from repro.errors import RewritingError
from repro.query.ast import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Term,
    Variable,
)
from repro.query.containment import containment_mapping, is_equivalent_to
from repro.rewriting.view import View, views_by_name

_fresh = itertools.count()


class Rewriting:
    """A query expressed over view predicates, together with its expansion.

    :attr:`unifier` maps each rewriting variable that the expansion merged
    away (a repeated view head variable, a view head constant or a view
    equality) to the expansion term it became; :meth:`resolve` reads it.
    """

    __slots__ = ("query", "views", "expansion", "unifier")

    def __init__(self, query: ConjunctiveQuery, views: Sequence[View]) -> None:
        self.query = query
        self.views = tuple(views)
        index = views_by_name(self.views)
        missing = {a.predicate for a in query.body} - set(index)
        if missing:
            raise RewritingError(
                f"rewriting {query.name!r} uses unknown view predicates: {sorted(missing)}"
            )
        self.expansion, self.unifier = _unfold(query, index)

    def resolve(self, term: Term) -> Term:
        """The expansion term a term of the rewriting stands for."""
        return self.unifier.get(term, term) if isinstance(term, Variable) else term

    def with_constants(self, values: Mapping[tuple, Term]) -> "Rewriting":
        """This rewriting with the constants *values* keys by ``(type, value)``
        replaced, in its query, its expansion and its unifier alike."""
        replaced = object.__new__(Rewriting)
        replaced.query = self.query.with_constants(values)
        replaced.views = self.views
        replaced.expansion = self.expansion.with_constants(values)
        replaced.unifier = {
            variable: values.get((type(term.value), term.value), term)
            if isinstance(term, Constant) else term
            for variable, term in self.unifier.items()
        }
        return replaced

    # -- introspection -------------------------------------------------------
    @property
    def view_atoms(self) -> tuple[Atom, ...]:
        """Body atoms of the rewriting (each refers to a view)."""
        return self.query.body

    def views_used(self) -> tuple[View, ...]:
        """Views referenced by at least one body atom, in first-use order."""
        index = views_by_name(self.views)
        seen: list[View] = []
        for atom in self.query.body:
            view = index[atom.predicate]
            if view not in seen:
                seen.append(view)
        return tuple(seen)

    def uses_parameterized_view(self) -> bool:
        """``True`` when any referenced view is λ-parameterized."""
        return any(view.parameters for view in self.views_used())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rewriting):
            return NotImplemented
        return self.query == other.query

    def __hash__(self) -> int:
        return hash(self.query)

    def __repr__(self) -> str:
        return f"Rewriting({self.query})"

    def __str__(self) -> str:
        return str(self.query)


def _freshen(name: str) -> Variable:
    return Variable(f"_e{next(_fresh)}_{name}")


def expand_rewriting(
    rewriting_query: ConjunctiveQuery, views: Mapping[str, View]
) -> ConjunctiveQuery:
    """Expand view atoms of *rewriting_query* into base-relation atoms.

    Each occurrence of a view atom gets its own fresh copies of the view's
    existential variables.  Repeated variables or constants in a view head are
    handled by unifying the corresponding rewriting terms.
    """
    return _unfold(rewriting_query, views)[0]


def _unfold(
    rewriting_query: ConjunctiveQuery, views: Mapping[str, View]
) -> tuple[ConjunctiveQuery, dict[Variable, Term]]:
    """:func:`expand_rewriting`, and the unifier: each variable the
    expansion merged away, mapped to the term it resolves to."""
    expanded_atoms: list[Atom] = []
    merges: dict[Variable, Term] = {}

    def canonical(term: Term) -> Term:
        while isinstance(term, Variable) and term in merges:
            term = merges[term]
        return term

    def unify(left: Term, right: Term) -> None:
        left, right = canonical(left), canonical(right)
        if left == right:
            return
        if isinstance(left, Variable):
            merges[left] = right
        elif isinstance(right, Variable):
            merges[right] = left
        else:
            raise RewritingError(
                f"expansion requires unifying distinct constants {left} and {right}"
            )

    for atom in rewriting_query.body:
        view = views.get(atom.predicate)
        if view is None:
            # Base-relation atom in a partial rewriting: keep as is.
            expanded_atoms.append(atom)
            continue
        definition = view.query.without_parameters()
        if len(definition.head_terms) != atom.arity:
            raise RewritingError(
                f"atom {atom} has arity {atom.arity} but view {view.name!r} "
                f"has arity {len(definition.head_terms)}"
            )
        substitution: dict[Variable, Term] = {}
        for head_term, atom_term in zip(definition.head_terms, atom.terms):
            if isinstance(head_term, Variable):
                if head_term in substitution:
                    unify(substitution[head_term], atom_term)
                else:
                    substitution[head_term] = atom_term
            else:
                unify(head_term, atom_term)
        for variable in definition.existential_variables():
            substitution[variable] = _freshen(variable.name)
        # Equality atoms of the view constrain the corresponding rewriting term.
        for equality in definition.equalities:
            target = substitution.get(equality.variable)
            if target is not None:
                unify(target, equality.constant)
        inlined = definition.inline_equalities()
        for body_atom in inlined.body:
            expanded_atoms.append(body_atom.substitute(substitution))

    resolved = {v: canonical(v) for v in merges}
    head, equalities = rewriting_query.head, list(rewriting_query.equalities)
    if resolved:
        expanded_atoms = [a.substitute(resolved) for a in expanded_atoms]
        head = head.substitute(resolved)
        # A rewriting equality follows its variable too.
        equalities = [e for e in (eq.substitute(resolved) for eq in equalities) if e is not None]
    return ConjunctiveQuery(head, expanded_atoms, equalities), resolved


def is_equivalent_rewriting(
    query: ConjunctiveQuery, rewriting: Rewriting
) -> bool:
    """``True`` when the rewriting's expansion is equivalent to *query*."""
    return is_equivalent_to(rewriting.expansion, query.without_parameters())


def is_contained_rewriting(query: ConjunctiveQuery, rewriting: Rewriting) -> bool:
    """``True`` when the rewriting's expansion is contained in *query*.

    Contained (not necessarily equivalent) rewritings are the building block
    of maximally-contained rewritings; the citation engine prefers equivalent
    ones but can fall back to contained ones when instructed.
    """
    return (
        containment_mapping(query.without_parameters(), rewriting.expansion) is not None
    )


def minimize_rewriting(rewriting: Rewriting) -> Rewriting:
    """Drop redundant view atoms from a rewriting (keeping equivalence of the expansion)."""
    query = rewriting.query
    changed = True
    while changed:
        changed = False
        body = list(query.body)
        if len(body) <= 1:
            break
        for index in range(len(body)):
            candidate_body = body[:index] + body[index + 1 :]
            bound = {v for atom in candidate_body for v in atom.variables()}
            bound.update(eq.variable for eq in query.equalities)
            if not all(
                (not t.is_variable()) or t in bound for t in query.head_terms
            ):
                continue
            candidate = query.with_body(candidate_body)
            try:
                candidate_rewriting = Rewriting(candidate, rewriting.views)
            except RewritingError:
                continue
            if is_equivalent_to(candidate_rewriting.expansion, rewriting.expansion):
                query = candidate
                changed = True
                break
    return Rewriting(query, rewriting.views)


def deduplicate_rewritings(rewritings: Iterable[Rewriting]) -> list[Rewriting]:
    """Remove rewritings whose view-level queries are equivalent to an earlier one."""
    kept: list[Rewriting] = []
    for rewriting in rewritings:
        duplicate = False
        for existing in kept:
            same_views = {a.predicate for a in rewriting.query.body} == {
                a.predicate for a in existing.query.body
            }
            if same_views and is_equivalent_to(rewriting.query, existing.query):
                duplicate = True
                break
        if not duplicate:
            kept.append(rewriting)
    return kept


def make_rewriting_query(
    name: str,
    head_terms: Sequence[Term],
    view_atoms: Sequence[Atom],
) -> ConjunctiveQuery:
    """Assemble a rewriting query from prepared view atoms."""
    return ConjunctiveQuery(Atom(name, tuple(head_terms)), tuple(view_atoms))


def constant_or_variable(value: object) -> Term:
    """Helper turning a raw value into a term (strings become variables)."""
    if isinstance(value, Term):
        return value
    if isinstance(value, str):
        return Variable(value)
    return Constant(value)
