"""View definitions for query rewriting.

A :class:`View` is a named conjunctive query over the base schema.  The
citation layer (:mod:`repro.core`) wraps views with citation queries and a
citation function; this module only cares about the relational part.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.errors import RewritingError
from repro.query.ast import ConjunctiveQuery, Variable
from repro.query.evaluator import QueryEvaluator, result_schema
from repro.relational.database import Database
from repro.relational.relation import Relation


class View:
    """A named view defined by a conjunctive query.

    Parameters
    ----------
    query:
        The defining conjunctive query.  Its head predicate is the view name;
        λ-parameters (if any) are retained and exposed via :attr:`parameters`
        but are ignored by the rewriting algorithms, as the paper specifies.
    """

    __slots__ = ("query",)

    def __init__(self, query: ConjunctiveQuery) -> None:
        self.query = query

    @property
    def name(self) -> str:
        """The view name (head predicate of the defining query)."""
        return self.query.name

    @property
    def arity(self) -> int:
        """Arity of the view's output."""
        return len(self.query.head_terms)

    @property
    def parameters(self) -> tuple[Variable, ...]:
        """λ-parameters of the view definition."""
        return self.query.parameters

    @property
    def head_variables(self) -> tuple[Variable, ...]:
        """Head (distinguished) variables of the defining query."""
        return tuple(
            term for term in self.query.head_terms if isinstance(term, Variable)
        )

    def parameter_positions(self) -> dict[str, int]:
        """Map each parameter name to its position in the view head.

        Needed by the citation engine: given a view atom in a rewriting and a
        binding, the value of parameter ``p`` is the binding of the term at
        this head position.
        """
        positions: dict[str, int] = {}
        for param in self.query.parameters:
            for index, term in enumerate(self.query.head_terms):
                if term == param:
                    positions[param.name] = index
                    break
            else:  # pragma: no cover - guarded by ConjunctiveQuery validation
                raise RewritingError(
                    f"parameter {param.name!r} does not appear in the head of view {self.name!r}"
                )
        return positions

    def materialize(self, database: Database) -> Relation:
        """Evaluate the view over *database* (parameters ignored)."""
        return QueryEvaluator(database).evaluate(self.query.without_parameters())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return self.query == other.query

    def __hash__(self) -> int:
        return hash(self.query)

    def __repr__(self) -> str:
        return f"View({self.query})"


def materialize_views(
    views: Iterable[View], database: Database
) -> dict[str, Relation]:
    """Materialize every view over *database*, keyed by view name.

    The resulting mapping can be passed as ``extra_relations`` to
    :class:`~repro.query.evaluator.QueryEvaluator` so that rewritings (which
    mention view predicates) can be evaluated directly.
    """
    out: dict[str, Relation] = {}
    for view in views:
        if view.name in out:
            raise RewritingError(f"duplicate view name {view.name!r}")
        relation = view.materialize(database)
        # Rename the schema so the relation is addressable by the view name.
        out[view.name] = Relation.of_valid_rows(result_schema(view.query), set(relation))
    return out


def views_by_name(views: Iterable[View]) -> Mapping[str, View]:
    """Index views by name, checking for duplicates."""
    out: dict[str, View] = {}
    for view in views:
        if view.name in out:
            raise RewritingError(f"duplicate view name {view.name!r}")
        out[view.name] = view
    return out
