"""Compile-time query rules: satisfiability, minimality, shape, schema.

:func:`analyze_query` runs every query rule over one conjunctive query and
returns a :class:`QueryAnalysis`: the original query, its *minimized core*
(the unique-up-to-isomorphism minimal equivalent the paper's citation
semantics are defined over) and the diagnostics.  The citation engine calls
this from :meth:`~repro.core.engine.CitationEngine.compile_plan`, so the
core — not the submitted redundant variant — is what gets fingerprinted,
rewritten and cached.

Codes
-----
``Q001`` error    variable equated to two different constants
``Q002`` error    contradictory constants at a key-joined position
``Q003`` info     redundant body atoms (removed by core minimization)
``Q004`` warning  cartesian product: body joins across no shared variable
``Q005`` info     singleton existential variable (projection wildcard)
``Q006`` error    unknown relation
``Q007`` error    atom arity differs from the relation schema
``Q008`` warning  constant incompatible with the declared attribute type
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
    diagnostic,
    rule,
)
from repro.query.ast import Atom, ConjunctiveQuery, Constant, Term, Variable
from repro.query.minimization import minimize
from repro.relational.schema import DatabaseSchema

__all__ = ["QueryAnalysis", "analyze_query"]


@dataclass(frozen=True)
class QueryAnalysis:
    """Outcome of analysing one query: the minimized core plus diagnostics.

    ``core`` is answer-equivalent to ``query`` (identical head, a subset of
    the body atoms); when the query is already minimal — or unsatisfiable,
    where minimization is meaningless — it is ``query`` itself.
    """

    query: ConjunctiveQuery
    core: ConjunctiveQuery
    diagnostics: tuple[Diagnostic, ...]
    _report: AnalysisReport | None = field(default=None, compare=False, repr=False)
    #: Set by :meth:`~repro.core.engine.CitationEngine.shape`.
    _shape: object = field(default=None, compare=False, repr=False)

    @property
    def minimized(self) -> bool:
        """``True`` when redundant atoms were dropped."""
        return len(self.core.body) < len(self.query.body)

    @property
    def atoms_dropped(self) -> int:
        return len(self.query.body) - len(self.core.body)

    @property
    def report(self) -> AnalysisReport:
        report = self._report
        if report is None:
            report = AnalysisReport(self.diagnostics)
            object.__setattr__(self, "_report", report)
        return report

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)


def analyze_query(
    query: ConjunctiveQuery,
    schema: DatabaseSchema | None = None,
    known_predicates: Collection[str] = (),
    run_minimization: bool = True,
) -> QueryAnalysis:
    """Run every query rule over *query* and minimize it to its core.

    *schema* enables the relation-level checks (Q002, Q006–Q008);
    *known_predicates* names additional legal predicates (e.g. citation-view
    heads) that are not in the schema.  ``run_minimization=False`` skips the
    core computation (the shape rules still run) — the engine's
    ``analysis="off"`` knob bypasses this function entirely instead.
    """
    report = AnalysisReport()
    location = f"query {query.name!r}"

    satisfiable = _check_constant_conflicts(query, report, location)
    if satisfiable and schema is not None:
        _check_key_contradictions(query, schema, report, location)
    if schema is not None:
        _check_schema(query, schema, known_predicates, report, location)
    _check_cartesian_product(query, report, location)
    _check_singleton_variables(query, report, location)

    core = query
    if run_minimization and satisfiable and len(query.body) > 1:
        core = minimize(query)
        if len(core.body) < len(query.body):
            dropped = _dropped_atoms(query, core)
            report.add(
                diagnostic(
                    "Q003",
                    f"body is not minimal: {len(dropped)} redundant atom(s) "
                    f"removed by core minimization ({', '.join(dropped)})",
                    location,
                    hint="the minimized core is what gets compiled and cached",
                )
            )
    return QueryAnalysis(query, core, report.diagnostics)


# ---------------------------------------------------------------------------
# Q001 / Q002: satisfiability
# ---------------------------------------------------------------------------
@rule(
    "Q001",
    "query",
    Severity.ERROR,
    "a variable is equated to two different constants; the query can never "
    "return any tuple",
)
def _check_constant_conflicts(
    query: ConjunctiveQuery, report: AnalysisReport, location: str
) -> bool:
    """Detect ``X = c1, X = c2`` conflicts; return ``False`` when unsatisfiable."""
    bound: dict[Variable, Constant] = {}
    satisfiable = True
    for equality in query.equalities:
        previous = bound.get(equality.variable)
        if previous is not None and previous.value != equality.constant.value:
            report.add(
                diagnostic(
                    "Q001",
                    f"variable {equality.variable.name!r} is equated to both "
                    f"{previous} and {equality.constant}: the query is "
                    "unsatisfiable",
                    location,
                )
            )
            satisfiable = False
        else:
            bound[equality.variable] = equality.constant
    return satisfiable


@rule(
    "Q002",
    "query",
    Severity.ERROR,
    "two atoms of a keyed relation agree on the key but carry different "
    "constants at another position; the join is empty under the key constraint",
)
def _check_key_contradictions(
    query: ConjunctiveQuery,
    schema: DatabaseSchema,
    report: AnalysisReport,
    location: str,
) -> None:
    bindings = query.constant_bindings()

    def resolved(atom: Atom, position: int) -> Term:
        term = atom.terms[position]
        if isinstance(term, Variable):
            return bindings.get(term, term)
        return term

    def agree(left: Term, right: Term) -> bool:
        if isinstance(left, Constant) and isinstance(right, Constant):
            return left.value == right.value
        return left == right  # the same variable at both positions

    by_predicate: dict[str, list[Atom]] = {}
    for atom in query.body:
        by_predicate.setdefault(atom.predicate, []).append(atom)
    for predicate, atoms in by_predicate.items():
        if len(atoms) < 2 or not schema.has_relation(predicate):
            continue
        relation = schema.relation(predicate)
        key_positions = relation.key_positions()
        if not key_positions or relation.arity != atoms[0].arity:
            continue
        for index, left in enumerate(atoms):
            for right in atoms[index + 1 :]:
                if not all(
                    agree(resolved(left, p), resolved(right, p))
                    for p in key_positions
                ):
                    continue
                for position in range(relation.arity):
                    if position in key_positions:
                        continue
                    lv, rv = resolved(left, position), resolved(right, position)
                    if (
                        isinstance(lv, Constant)
                        and isinstance(rv, Constant)
                        and lv.value != rv.value
                    ):
                        attribute = relation.attributes[position].name
                        report.add(
                            diagnostic(
                                "Q002",
                                f"atoms {left} and {right} agree on the key of "
                                f"{predicate!r} but require "
                                f"{attribute} = {lv} and {attribute} = {rv}: "
                                "the join is empty under the key constraint",
                                location,
                            )
                        )


# ---------------------------------------------------------------------------
# Q004 / Q005: shape warnings
# ---------------------------------------------------------------------------
@rule(
    "Q004",
    "query",
    Severity.WARNING,
    "the body falls into join-disconnected components: the result is their "
    "cartesian product",
)
def _check_cartesian_product(
    query: ConjunctiveQuery, report: AnalysisReport, location: str
) -> None:
    if len(query.body) < 2:
        return
    # Equality-bound variables act as constants, not join edges.
    bound = set(query.constant_bindings())
    parent = list(range(len(query.body)))

    def find(index: int) -> int:
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    seen: dict[Variable, int] = {}
    for index, atom in enumerate(query.body):
        for variable in atom.variables():
            if variable in bound:
                continue
            if variable in seen:
                parent[find(index)] = find(seen[variable])
            else:
                seen[variable] = index
    components = len({find(index) for index in range(len(query.body))})
    if components > 1:
        report.add(
            diagnostic(
                "Q004",
                f"body atoms form {components} join-disconnected components: "
                "the result is their cartesian product",
                location,
                hint="add a join variable, or split the query",
            )
        )


@rule(
    "Q005",
    "query",
    Severity.INFO,
    "an existential variable occurs exactly once: it only asserts existence "
    "(possibly a typo for a join variable)",
)
def _check_singleton_variables(
    query: ConjunctiveQuery, report: AnalysisReport, location: str
) -> None:
    counts: dict[Variable, int] = {}
    for atom in query.body:
        for variable in atom.variables():
            counts[variable] = counts.get(variable, 0) + 1
    head = query.head_variables()
    bound = set(query.constant_bindings())
    singletons = sorted(
        variable.name
        for variable, count in counts.items()
        if count == 1 and variable not in head and variable not in bound
    )
    if singletons:
        report.add(
            diagnostic(
                "Q005",
                f"existential variable(s) {', '.join(singletons)} occur exactly "
                "once: they only assert existence",
                location,
            )
        )


# ---------------------------------------------------------------------------
# Q006 / Q007 / Q008: schema checks
# ---------------------------------------------------------------------------
@rule("Q006", "query", Severity.ERROR, "the query mentions an unknown relation")
@rule(
    "Q007",
    "query",
    Severity.ERROR,
    "an atom's arity differs from its relation's schema",
)
@rule(
    "Q008",
    "query",
    Severity.WARNING,
    "a constant is incompatible with the declared type of its column",
)
def _check_schema(
    query: ConjunctiveQuery,
    schema: DatabaseSchema,
    known_predicates: Collection[str],
    report: AnalysisReport,
    location: str,
) -> None:
    bindings = query.constant_bindings()
    for atom in query.body:
        if not schema.has_relation(atom.predicate):
            if atom.predicate not in known_predicates:
                report.add(
                    diagnostic(
                        "Q006",
                        f"atom {atom} mentions unknown relation {atom.predicate!r}",
                        location,
                        hint=f"known relations: {', '.join(schema.relation_names)}",
                    )
                )
            continue
        relation = schema.relation(atom.predicate)
        if atom.arity != relation.arity:
            report.add(
                diagnostic(
                    "Q007",
                    f"atom {atom} has arity {atom.arity} but relation "
                    f"{atom.predicate!r} has arity {relation.arity}",
                    location,
                )
            )
            continue
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                constant = bindings.get(term)
                if constant is None:
                    continue
                value = constant.value
            else:
                assert isinstance(term, Constant)
                value = term.value
            attribute = relation.attributes[position]
            if not attribute.accepts(value):
                report.add(
                    diagnostic(
                        "Q008",
                        f"constant {value!r} at {atom.predicate}.{attribute.name} "
                        f"is not a {attribute.dtype.__name__}: the comparison "
                        "can never match",
                        location,
                    )
                )


# Q003 is emitted by analyze_query itself (it owns the minimization); the
# registration here only records the code for the rule table.
@rule(
    "Q003",
    "query",
    Severity.INFO,
    "the body contains redundant atoms; core minimization removed them",
)
def _q003_registration() -> None:  # pragma: no cover - registry stub
    raise NotImplementedError("Q003 is raised by analyze_query")


def _dropped_atoms(query: ConjunctiveQuery, core: ConjunctiveQuery) -> list[str]:
    """Render the atoms of *query* that are not in *core* (multiset-aware)."""
    remaining = list(core.body)
    dropped: list[str] = []
    for atom in query.body:
        if atom in remaining:
            remaining.remove(atom)
        else:
            dropped.append(str(atom))
    return dropped
