"""Shared hypothesis strategies for conjunctive queries and instances.

Every property suite generates over the same tiny world: two binary base
relations ``R`` and ``S`` plus a view-like extra relation ``V`` handed to the
evaluator as an ``extra_relation``, with values drawn from a small domain so
joins actually join.  The generators cover the shapes the evaluator must
answer exactly:

* :func:`random_queries` — arbitrary safe CQs (acyclic and cyclic mixed),
  optionally with constants and the view predicate;
* :func:`acyclic_queries` — tree-shaped bodies (guaranteed α-acyclic by
  construction: every atom shares exactly one variable with its parent);
* :func:`cyclic_queries` — a chordless variable cycle of length ≥ 3
  (guaranteed cyclic for binary atoms), optionally with extra chords;
* :func:`self_join_queries` — the same predicate several times in one body;
* :func:`parameterized_queries` — a λ-parameterized query plus a valuation;
* :func:`random_instances` / :func:`small_databases` — matching data;
* :func:`drift_sequences` / :func:`apply_drift` — interleaved insert/delete
  sequences against both the database relations (through the
  :class:`~repro.relational.database.Database` update path) and the
  view-like extra relation (mutated directly, bypassing the database), for
  properties about caches that must survive data drift.

:func:`brute_force` is the shared reference semantics: filter the full
cartesian product of the body extensions, no join order, no indexes — the
textbook answer the compiled evaluator is compared against.
:func:`brute_force_bindings` is the same enumeration keeping each row's
bindings, the reference for Definition 2.2's binding sets, and
:func:`binding_sets` puts an evaluator's bindings in the same form.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from repro.query.ast import Atom, ConjunctiveQuery, Constant, Variable
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

__all__ = [
    "RS_SCHEMA",
    "VIEW_SCHEMA",
    "VARIABLES",
    "values",
    "rows",
    "random_queries",
    "acyclic_queries",
    "cyclic_queries",
    "self_join_queries",
    "parameterized_queries",
    "small_databases",
    "random_instances",
    "drift_sequences",
    "apply_drift",
    "brute_force",
    "brute_force_bindings",
    "binding_sets",
]

RS_SCHEMA = DatabaseSchema(
    [
        RelationSchema("R", [Attribute("a", int), Attribute("b", int)]),
        RelationSchema("S", [Attribute("a", int), Attribute("b", int)]),
    ]
)

VIEW_SCHEMA = RelationSchema("V", [Attribute("a", int), Attribute("b", int)])

VARIABLES = ["X", "Y", "Z", "W"]

#: Base predicates plus the view-backed extra relation.
ALL_PREDICATES = ("R", "S", "V")


def values() -> st.SearchStrategy[int]:
    """Column values: a small domain, so random joins are non-trivial."""
    return st.integers(0, 3)


def rows(max_size: int = 8) -> st.SearchStrategy[list[tuple[int, int]]]:
    """Row lists for one binary relation."""
    return st.lists(st.tuples(values(), values()), min_size=0, max_size=max_size)


def _head_from_body(draw, body: list[Atom], name: str) -> ConjunctiveQuery:
    """A safe head over a non-empty prefix of the body's variables."""
    body_vars = sorted({v.name for atom in body for v in atom.variables()})
    if not body_vars:
        body.append(Atom("R", (Variable("X"), Variable("Y"))))
        body_vars = ["X", "Y"]
    head_size = draw(st.integers(min_value=1, max_value=len(body_vars)))
    head_vars = tuple(Variable(v) for v in body_vars[:head_size])
    return ConjunctiveQuery(Atom(name, head_vars), body)


@st.composite
def random_queries(
    draw,
    predicates: tuple[str, ...] = ALL_PREDICATES,
    max_atoms: int = 3,
    allow_constants: bool = True,
    name: str = "Q",
):
    """Safe conjunctive queries (cyclic shapes included) over *predicates*."""
    atom_count = draw(st.integers(min_value=1, max_value=max_atoms))
    body = []
    for _ in range(atom_count):
        predicate = draw(st.sampled_from(predicates))
        terms = []
        for _position in range(2):
            if not allow_constants or draw(st.booleans()):
                terms.append(Variable(draw(st.sampled_from(VARIABLES))))
            else:
                terms.append(Constant(draw(values())))
        body.append(Atom(predicate, tuple(terms)))
    return _head_from_body(draw, body, name)


@st.composite
def acyclic_queries(
    draw,
    predicates: tuple[str, ...] = ALL_PREDICATES,
    max_atoms: int = 4,
    allow_constants: bool = True,
    name: str = "Q",
):
    """Tree-shaped (hence α-acyclic) conjunctive queries.

    Atom *k* shares exactly one variable with a previously generated atom and
    introduces one fresh variable (or a constant), so the body hypergraph is
    a tree by construction — including self-joins when the predicate repeats.
    """
    atom_count = draw(st.integers(min_value=1, max_value=max_atoms))
    body: list[Atom] = []
    fresh = (Variable(f"A{i}") for i in itertools.count())
    first_new = next(fresh)
    first_terms: list = [first_new]
    if allow_constants and draw(st.booleans()):
        first_terms.append(Constant(draw(values())))
    else:
        first_terms.append(next(fresh))
    if draw(st.booleans()):
        first_terms.reverse()
    body.append(Atom(draw(st.sampled_from(predicates)), tuple(first_terms)))
    for _ in range(atom_count - 1):
        parent = body[draw(st.integers(0, len(body) - 1))]
        parent_vars = sorted({v.name for v in parent.variables()})
        if parent_vars:
            link: object = Variable(draw(st.sampled_from(parent_vars)))
        else:  # all-constant parent: start a fresh component
            link = next(fresh)
        if allow_constants and draw(st.booleans()):
            other: object = Constant(draw(values()))
        else:
            other = next(fresh)
        terms = [link, other]
        if draw(st.booleans()):
            terms.reverse()
        body.append(Atom(draw(st.sampled_from(predicates)), tuple(terms)))
    return _head_from_body(draw, body, name)


@st.composite
def cyclic_queries(
    draw,
    predicates: tuple[str, ...] = ALL_PREDICATES,
    max_cycle: int = 4,
    name: str = "Q",
):
    """Cyclic conjunctive queries: a variable cycle of length ≥ 3.

    For binary atoms, α-acyclicity coincides with the join graph being a
    forest, so a chordless cycle — with or without extra chord atoms — is
    guaranteed cyclic.
    """
    length = draw(st.integers(min_value=3, max_value=max_cycle))
    cycle_vars = [Variable(f"C{i}") for i in range(length)]
    body = [
        Atom(
            draw(st.sampled_from(predicates)),
            (cycle_vars[i], cycle_vars[(i + 1) % length]),
        )
        for i in range(length)
    ]
    for _ in range(draw(st.integers(0, 2))):  # optional chords
        left = draw(st.sampled_from(cycle_vars))
        right = draw(st.sampled_from(cycle_vars))
        body.append(Atom(draw(st.sampled_from(predicates)), (left, right)))
    return _head_from_body(draw, body, name)


@st.composite
def self_join_queries(
    draw, predicate: str = "R", max_atoms: int = 3, name: str = "Q"
):
    """Bodies that repeat one predicate (the self-join regression shape)."""
    atom_count = draw(st.integers(min_value=2, max_value=max_atoms))
    body = []
    for _ in range(atom_count):
        terms = []
        for _position in range(2):
            if draw(st.booleans()):
                terms.append(Variable(draw(st.sampled_from(VARIABLES))))
            else:
                terms.append(Constant(draw(values())))
        body.append(Atom(predicate, tuple(terms)))
    return _head_from_body(draw, body, name)


@st.composite
def parameterized_queries(draw, name: str = "Q"):
    """A λ-parameterized query together with a full parameter valuation."""
    query = draw(
        st.one_of(
            random_queries(name=name),
            acyclic_queries(name=name),
            cyclic_queries(name=name),
        )
    )
    head_vars = [t for t in query.head_terms if isinstance(t, Variable)]
    parameters = tuple(
        dict.fromkeys(draw(st.lists(st.sampled_from(head_vars), min_size=1, max_size=2)))
    )
    parameterized = ConjunctiveQuery(
        query.head, query.body, query.equalities, parameters
    )
    valuation = {param.name: draw(values()) for param in parameters}
    return parameterized, valuation


@st.composite
def small_databases(draw, max_rows: int = 8):
    """Small instances of the R/S schema (no view)."""
    database = Database(RS_SCHEMA)
    for relation in ("R", "S"):
        database.insert_many(relation, draw(rows(max_rows)))
    return database


@st.composite
def random_instances(draw, max_rows: int = 8):
    """A small R/S database plus a view-like extra relation V."""
    database = draw(small_databases(max_rows))
    view = Relation(VIEW_SCHEMA, draw(rows(max_rows)))
    return database, {"V": view}


@st.composite
def drift_sequences(
    draw,
    relations: tuple[str, ...] = ("R", "S", "V"),
    max_ops: int = 5,
):
    """Interleaved insert/delete operations against the R/S/V world.

    Each op is ``(kind, relation, row)`` with ``kind`` in
    ``{"insert", "delete"}``; deletes of absent rows are legal no-ops, so
    sequences compose freely.  Apply with :func:`apply_drift`.
    """
    return [
        (
            draw(st.sampled_from(["insert", "delete"])),
            draw(st.sampled_from(relations)),
            (draw(values()), draw(values())),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=max_ops)))
    ]


def apply_drift(database, extra, ops) -> None:
    """Apply a :func:`drift_sequences` op list to one instance.

    Database relations mutate through the :class:`Database` update path
    (bumping its generation); extra relations mutate directly on the
    :class:`Relation` (bumping only its version) — the two invalidation
    channels version-stamped caches must both notice.
    """
    extra = extra or {}
    for kind, name, row in ops:
        if name in extra:
            target = extra[name]
            target.insert(row) if kind == "insert" else target.delete(row)
        elif kind == "insert":
            database.insert(name, row)
        else:
            database.delete(name, row)


def brute_force_bindings(
    query: ConjunctiveQuery, database, extra=None
) -> dict[tuple, set[frozenset]]:
    """Reference bindings: every consistent valuation of the cartesian
    product of the body relations, grouped by the output row it produces.

    Each binding is a frozenset of ``(variable, value)`` pairs covering the
    body and equality variables — compare an evaluator's
    ``evaluate_with_bindings`` through :func:`binding_sets`.
    """
    extra = extra or {}

    def relation_rows(predicate):
        if predicate in extra:
            return list(extra[predicate])
        return list(database.relation(predicate))

    bindings: dict[tuple, set[frozenset]] = {}
    pools = [relation_rows(atom.predicate) for atom in query.body]
    seed = {eq.variable: eq.constant.value for eq in query.equalities}
    for combination in itertools.product(*pools):
        binding = dict(seed)
        consistent = True
        for atom, row in zip(query.body, combination):
            for term, value in zip(atom.terms, row):
                if isinstance(term, Constant):
                    if term.value != value:
                        consistent = False
                elif term in binding:
                    if binding[term] != value:
                        consistent = False
                else:
                    binding[term] = value
            if not consistent:
                break
        if consistent:
            row = tuple(
                term.value if isinstance(term, Constant) else binding[term]
                for term in query.head_terms
            )
            bindings.setdefault(row, set()).add(frozenset(binding.items()))
    return bindings


def brute_force(query: ConjunctiveQuery, database, extra=None) -> set[tuple]:
    """Reference semantics: filter the cartesian product of the body relations."""
    return set(brute_force_bindings(query, database, extra))


def binding_sets(bindings_by_row) -> dict[tuple, set[frozenset]]:
    """An ``evaluate_with_bindings`` result in :func:`brute_force_bindings` form."""
    return {
        row: {frozenset(binding.items()) for binding in bindings}
        for row, bindings in bindings_by_row.items()
    }
