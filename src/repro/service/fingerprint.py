"""Canonical fingerprints for conjunctive queries.

The serving layer caches compiled citation plans keyed by query *structure*:
two requests that differ only in variable names or in the order of their body
atoms must map to the same cache slot, while queries with genuinely different
shapes (different joins, predicates, head, equality constants or
λ-parameters) must not collide.

:func:`canonical_key` computes such a structural normal form.  It treats the
query as a colored hypergraph over its variables — the same view of a query
that :meth:`~repro.query.ast.ConjunctiveQuery.canonical_instance` takes for
containment checking — and canonicalises it with color refinement plus
individualization:

1. every variable starts with an isomorphism-invariant color built from its
   head positions, λ-parameter position, bound equality constants and its
   occurrence pattern ``(predicate, position)`` across body atoms;
2. colors are refined to a fixpoint: a variable's color absorbs the colors of
   the variables it co-occurs with, per atom and per position (1-dimensional
   Weisfeiler–Leman);
3. if two variables still share a color, the smallest ambiguous class is
   split by individualizing each member in turn and the lexicographically
   smallest resulting encoding wins — this resolves automorphism-rich bodies
   exactly, at a cost that is negligible for the small bodies of citation
   queries.

:func:`fingerprint` hashes the canonical key into a compact hex string used
as the cache key by :mod:`repro.service.plan_cache`.

:func:`shape` also keys a query by its *shape*: each liftable constant
becomes a variable bound to a hole of the constant's type, equal constants
sharing one, so the key keeps their equality pattern but not their values;
one plan then serves every such query once its constants are substituted
(:meth:`~repro.core.engine.CitationEngine.instantiate_plan`).  Holes can
tie where their values did not, so the lifted canonicalization gets a
bounded number of individualizations, past which the query is keyed by
value.
"""

from __future__ import annotations

import hashlib
from collections.abc import Collection, Mapping
from dataclasses import dataclass
from typing import NamedTuple

from repro.query.ast import Atom, ConjunctiveQuery, Constant, Term, Variable

__all__ = ["Shape", "canonical_key", "fingerprint", "shape", "are_isomorphic"]


@dataclass(frozen=True, slots=True)
class _Hole(Variable):
    """The variable a lifted constant becomes; never equal to a query's own."""


# ---------------------------------------------------------------------------
# Term / constant encodings
# ---------------------------------------------------------------------------
def _constant_token(value: object) -> tuple:
    """A hashable, type-discriminating token for a constant value.

    ``1`` and ``True`` and ``"1"`` must produce different tokens, so the type
    name participates.
    """
    return ("c", type(value).__name__, repr(value))


def _term_encoding(term: Term, rank: Mapping[Variable, int]) -> tuple:
    if isinstance(term, Constant):
        return _constant_token(term.value)
    return ("v", rank[term])


# ---------------------------------------------------------------------------
# Color refinement
# ---------------------------------------------------------------------------
def _normalize(colors: dict[Variable, object]) -> dict[Variable, int]:
    """Map arbitrary color values to dense integer ranks (order-preserving)."""
    distinct = sorted(set(colors.values()), key=repr)
    rank = {color: index for index, color in enumerate(distinct)}
    return {variable: rank[color] for variable, color in colors.items()}


def _initial_colors(query: ConjunctiveQuery, holes: Mapping) -> dict[Variable, int]:
    head_positions: dict[Variable, list[int]] = {}
    for index, term in enumerate(query.head.terms):
        if isinstance(term, Variable):
            head_positions.setdefault(term, []).append(index)
    parameter_positions = {
        parameter: index for index, parameter in enumerate(query.parameters)
    }
    equality_constants: dict[Variable, list[tuple]] = {}
    for equality in query.equalities:
        equality_constants.setdefault(equality.variable, []).append(
            _constant_token(equality.constant.value)
        )
    occurrences: dict[Variable, list[tuple[str, int]]] = {}
    for atom in query.body:
        for index, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                occurrences.setdefault(term, []).append((atom.predicate, index))
    colors: dict[Variable, object] = {}
    for variable in query.variables():
        colors[variable] = (
            tuple(head_positions.get(variable, ())),
            parameter_positions.get(variable, -1),
            tuple(sorted(equality_constants.get(variable, ()))),
            tuple(sorted(occurrences.get(variable, ()))),
            type(holes[variable]).__name__ if variable in holes else "",
        )
    return _normalize(colors)


def _atom_signature(
    atom: Atom, variable: Variable, colors: Mapping[Variable, int]
) -> tuple:
    """How *atom* looks from the point of view of *variable*."""
    positions = tuple(
        index for index, term in enumerate(atom.terms) if term == variable
    )
    context = tuple(
        _constant_token(term.value)
        if isinstance(term, Constant)
        else ("v", colors[term])
        for term in atom.terms
    )
    return (atom.predicate, positions, context)


def _refine(query: ConjunctiveQuery, colors: dict[Variable, int]) -> dict[Variable, int]:
    """Refine variable colors to a fixpoint (1-WL on the query hypergraph):
    the first round that splits no color class.  (Its labels can differ
    from the last round's: ranks sort by ``repr``, so 10 before 2.)"""
    incidence: dict[Variable, list[Atom]] = {}
    for atom in query.body:
        for variable in dict.fromkeys(atom.variables()):
            incidence.setdefault(variable, []).append(atom)
    while True:
        updated: dict[Variable, object] = {}
        for variable, color in colors.items():
            signatures = sorted(
                _atom_signature(atom, variable, colors)
                for atom in incidence.get(variable, ())
            )
            updated[variable] = (color, tuple(signatures))
        normalized = _normalize(updated)
        if len(set(normalized.values())) == len(set(colors.values())):
            return colors
        colors = normalized


# ---------------------------------------------------------------------------
# Canonical encoding (with individualization for automorphism ties)
# ---------------------------------------------------------------------------
def _encode(query: ConjunctiveQuery, colors: Mapping[Variable, int], holes: Mapping) -> tuple:
    """Encode the query under a total variable order (all colors distinct);
    also return the holes' constants in that order."""
    ordered = sorted(colors, key=lambda variable: colors[variable])
    rank = {variable: index for index, variable in enumerate(ordered)}
    head = (
        query.head.predicate,
        tuple(_term_encoding(term, rank) for term in query.head.terms),
    )
    body = tuple(
        sorted(
            (atom.predicate, tuple(_term_encoding(term, rank) for term in atom.terms))
            for atom in query.body
        )
    )
    equalities = tuple(
        sorted(
            (rank[equality.variable], _constant_token(equality.constant.value))
            for equality in query.equalities
        )
    )
    parameters = tuple(rank[parameter] for parameter in query.parameters)
    lifted = [variable for variable in ordered if variable in holes]
    types = tuple((rank[hole], type(holes[hole]).__name__) for hole in lifted)
    return ("cq1", head, body, equalities, parameters, types), tuple(map(holes.get, lifted))


class _TooManyBranches(Exception):
    """A canonical labelling needed more individualizations than allowed."""


#: The individualizations :func:`shape` spends on a lifted query before it
#: keys the query by value.  Holes can tie where their values did not, and
#: k interchangeable point atoms ``R(1, X), ..., R(k, X)`` take about e·k!
#: of them (9 for three, 40 for four) where their values take none.
_LIFT_BRANCHES = 16


def _canonicalize(
    query: ConjunctiveQuery,
    colors: dict[Variable, int],
    holes: Mapping,
    budget: list[int] | None = None,
) -> tuple:
    classes: dict[int, list[Variable]] = {}
    for variable, color in colors.items():
        classes.setdefault(color, []).append(variable)
    ambiguous = {color: members for color, members in classes.items() if len(members) > 1}
    if not ambiguous:
        return _encode(query, colors, holes)
    # Individualize each member of the smallest-colored ambiguous class in
    # turn; the minimal resulting encoding is the canonical one.  The choice
    # of class (minimal color of the smallest class size) is itself
    # isomorphism-invariant, so isomorphic queries branch identically.  Ties
    # between automorphic labelings break on the holes' constant tokens.
    target_color = min(
        ambiguous, key=lambda color: (len(ambiguous[color]), color)
    )
    best: tuple[tuple, tuple] | None = None
    best_rank: tuple = ()
    for chosen in ambiguous[target_color]:
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise _TooManyBranches
        branched: dict[Variable, object] = {
            variable: (color, 1 if variable == chosen else 0)
            for variable, color in colors.items()
        }
        refined = _refine(query, _normalize(branched))
        candidate = _canonicalize(query, refined, holes, budget)
        rank = (candidate[0], tuple(map(_constant_token, candidate[1])))
        if best is None or rank < best_rank:
            best, best_rank = candidate, rank
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
def canonical_key(query: ConjunctiveQuery) -> tuple:
    """A hashable normal form of *query*, identical for isomorphic queries.

    Two queries get the same key iff they differ only by a bijective variable
    renaming and/or a permutation of body atoms (and of equality atoms).
    Head predicate, head arity and term order, body structure, equality
    constants and λ-parameters all participate.
    """
    return _canonicalize(query, _refine(query, _initial_colors(query, {})), {})[0]


def fingerprint(query: ConjunctiveQuery) -> str:
    """A compact structural hash of *query* (hex), used as plan-cache key."""
    return _digest(canonical_key(query))


def _digest(key: object) -> str:
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]


class Shape(NamedTuple):
    """The by-value fingerprint, the plan key (the lifted key alone) and the
    lifted constants in canonical order (see :func:`shape`)."""

    fingerprint: str
    plan_key: str
    constants: tuple


class _Lifted(ConjunctiveQuery):
    """A query with holes for its lifted constants (a head-only hole is unsafe)."""

    def _validate(self) -> None:
        pass


def shape(query: ConjunctiveQuery, fixed: Collection[object] = ()) -> Shape:
    """The keys of *query* with each liftable constant lifted to a typed hole.

    The rewriting search, containment and the join compare constants only
    with ``==``.  So constants in relational atoms and in the head are
    lifted, unless one equals a *fixed* value (a view definition's) or a
    constant of the query's equality atoms; and none is when two of
    different types are ``==``-equal (``1``, ``True``), nor when the lifted
    query needs more than :data:`_LIFT_BRANCHES` individualizations.  A
    query with nothing lifted is keyed by :func:`fingerprint` alone.
    """
    kept = {*fixed, *(equality.constant.value for equality in query.equalities)}
    values = {_constant_token(term.value): term.value for atom in (query.head, *query.body)
              for term in atom.terms if isinstance(term, Constant) and term.value not in kept}
    if values and len(set(values.values())) == len(values):
        holes = {token: _Hole(f"?{index}") for index, token in enumerate(values)}

        def lift(atom: Atom) -> Atom:
            return Atom(atom.predicate, tuple(
                holes.get(_constant_token(term.value), term) if isinstance(term, Constant)
                else term
                for term in atom.terms
            ))

        lifted = _Lifted(lift(query.head), map(lift, query.body), query.equalities,
                         query.parameters)
        constant_of = {holes[token]: value for token, value in values.items()}
        colors = _refine(lifted, _initial_colors(lifted, constant_of))
        try:
            key, constants = _canonicalize(lifted, colors, constant_of, [_LIFT_BRANCHES])
        except _TooManyBranches:
            pass
        else:
            return Shape(_digest((key, constants)), _digest(key), constants)
    value = fingerprint(query)
    return Shape(value, value, ())


def are_isomorphic(left: ConjunctiveQuery, right: ConjunctiveQuery) -> bool:
    """``True`` when the two queries are equal up to renaming/reordering."""
    return canonical_key(left) == canonical_key(right)
