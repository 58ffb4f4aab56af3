"""Evaluation of conjunctive queries over a relational database.

Three entry points matter for the citation model:

* :func:`evaluate` — the ordinary set-semantics answer of a query, returned
  as a :class:`~repro.relational.relation.Relation`;
* :meth:`QueryEvaluator.frames_by_row` — for every output tuple, *all* the
  join frames (valuations of the query's variables, one value per slot of
  the program that ran) that produce it.  Definition 2.2 of the paper
  combines one citation per binding with the alternative-use operator
  ``+``, so the engine needs the full binding set; it reads the citation
  keys straight from the frames;
* :func:`evaluate_with_bindings` — the dict adapter over the same grouping:
  each frame as a ``{variable: value}`` binding, for callers that hold no
  compiled program.

Evaluation runs a compiled join program (:mod:`repro.query.compiler`): the
atom order, variable→slot assignment and per-atom bound-position accessors
are fixed once at compile time; per evaluation the program's prepared plan
resolves every step's row source, with bound-position probes served by hash
indexes — over database relations *and* over ``extra_relations`` such as
materialised views, via an :class:`~repro.relational.index.IndexManager` —
and one join loop (:meth:`~repro.query.compiler.JoinProgram.run_plan`) runs
that plan in the calling thread.  The evaluator caches nothing per query: a
call compiles its program afresh, unless the caller hands in a compiled
:class:`~repro.query.compiler.JoinProgram` (``program=``).  The citation
engine compiles one per rewriting into each
:class:`~repro.core.engine.CitationPlan` and passes it in, which is how
serving traffic pays for compilation once per query shape.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Mapping, Sized
from functools import partial
from operator import itemgetter
from typing import TypeVar

from repro.errors import QueryError, UnknownRelationError
from repro.observability import NULL_SPAN, current_fingerprint, get_tracer
from repro.resilience.deadline import current_deadline
from repro.query.ast import ConjunctiveQuery, Constant, Term, Variable
from repro.query.compiler import JoinProfile, JoinProgram, compile_query
from repro.query.stats import EvaluationMetrics
from repro.relational.database import Database
from repro.relational.index import IndexManager
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema

Binding = dict[Variable, object]

_Out = TypeVar("_Out", bound=Sized)


class QueryEvaluator:
    """Evaluates conjunctive queries against a :class:`Database`.

    The evaluator may also be given *extra relations* (e.g. materialised
    views) that are not part of the database schema; atoms whose predicate
    matches an extra relation are evaluated against it.  An external
    :class:`~repro.relational.index.IndexManager` may be supplied to share
    view indexes across evaluator instances (the citation engine does this);
    otherwise the evaluator owns a private one.  With *metrics*, every
    evaluation is counted and timed there (the engine threads one
    :class:`~repro.query.stats.EvaluationMetrics` through every evaluator
    it builds).
    """

    def __init__(
        self,
        database: Database,
        extra_relations: Mapping[str, Relation] | None = None,
        index_manager: IndexManager | None = None,
        metrics: EvaluationMetrics | None = None,
    ) -> None:
        self.database = database
        self.extra_relations = dict(extra_relations or {})
        # Not `or`: an IndexManager with no entries yet is len() == 0, falsy.
        self.index_manager = (
            index_manager if index_manager is not None else IndexManager(database)
        )
        self.metrics = metrics

    # -- relation resolution ------------------------------------------------
    def _relation_for(self, predicate: str) -> Relation:
        if predicate in self.extra_relations:
            return self.extra_relations[predicate]
        if predicate in self.database:
            return self.database.relation(predicate)
        raise UnknownRelationError(predicate)

    def _resolve_relations(self, query: ConjunctiveQuery) -> dict[str, Relation]:
        """Resolve every body predicate exactly once, checking arities."""
        relations: dict[str, Relation] = {}
        for atom in query.body:
            relation = relations.get(atom.predicate)
            if relation is None:
                relation = self._relation_for(atom.predicate)
                relations[atom.predicate] = relation
            if relation.schema.arity != atom.arity:
                raise QueryError(
                    f"atom {atom} has arity {atom.arity} but relation "
                    f"{atom.predicate!r} has arity {relation.schema.arity}"
                )
        return relations

    # -- compilation --------------------------------------------------------
    def compile(self, query: ConjunctiveQuery) -> JoinProgram:
        """Compile *query*'s join program against the current relations."""
        return compile_query(query, self._resolve_relations(query))

    # Read by perfbench/layers.py::HOOKS, which resolves both with getattr.
    reduction_of = prelude_for = compile

    # -- tracing ---------------------------------------------------------------
    @staticmethod
    def _evaluation_span(query: ConjunctiveQuery, program: JoinProgram):
        """An open ``query.evaluate`` span plus the profile to fill (or no-ops).

        Returns ``(span, profile)``; callers gate every further attribute
        write on ``profile is not None``, so the disabled path pays exactly
        one ``get_tracer()`` call, one branch, and a no-op context manager.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return NULL_SPAN, None
        return tracer.span("query.evaluate", query=query.name), JoinProfile(len(program.steps))

    @staticmethod
    def _annotate_span(span, program: JoinProgram, profile: JoinProfile) -> None:
        """Copy one profiled run's counters onto its evaluation span."""
        span.set_attribute("results", profile.results)
        for position, step in enumerate(program.steps):
            span.child(
                "join.step",
                step=position,
                predicate=step.predicate,
                relation_rows=profile.relation_rows[position],
                rows_scanned=profile.rows_scanned[position],
                frames_out=profile.frames_out[position],
            )

    def bindings(
        self, query: ConjunctiveQuery, program: JoinProgram | None = None
    ) -> list[Binding]:
        """Every satisfying assignment of the query's variables, one per frame."""
        return self._join(
            query, program,
            lambda program, frames: [
                dict(zip(program.variables, frame)) for frame in frames
            ],
        )

    # -- public API -------------------------------------------------------------
    def output_tuple(self, query: ConjunctiveQuery, binding: Binding) -> tuple:
        """Project a binding onto the query's head terms."""
        out = []
        for term in query.head_terms:
            if isinstance(term, Constant):
                out.append(term.value)
            else:
                assert isinstance(term, Variable)
                if term not in binding:
                    raise QueryError(
                        f"binding does not cover head variable {term.name!r} of {query.name!r}"
                    )
                out.append(binding[term])
        return tuple(out)

    def evaluate(self, query: ConjunctiveQuery) -> Relation:
        """Evaluate *query* and return its answer relation (set semantics)."""
        answers = self._join(
            query, None, lambda program, frames: set(map(program.output_row, frames))
        )
        return Relation.of_valid_rows(result_schema(query), answers)

    def frames_by_row(
        self, query: ConjunctiveQuery, program: JoinProgram | None = None
    ) -> dict[tuple, list[tuple]]:
        """Map every output tuple to the join frames producing it.

        A frame holds one value per slot of the program that ran: *program*
        (compiled from *query*) when given, so the frames are laid out as
        ``program.variables``, else a fresh compile.
        """
        return self._join(query, program, _grouped)

    def evaluate_with_bindings(
        self, query: ConjunctiveQuery, program: JoinProgram | None = None
    ) -> dict[tuple, list[Binding]]:
        """Map every output tuple to the list of bindings producing it: the
        dict adapter over :meth:`frames_by_row`."""

        def as_bindings(program: JoinProgram, frames) -> dict[tuple, list[Binding]]:
            variables = program.variables
            return {
                row: [dict(zip(variables, frame)) for frame in group]
                for row, group in _grouped(program, frames).items()
            }

        return self._join(query, program, as_bindings)

    def _join(
        self,
        query: ConjunctiveQuery,
        program: JoinProgram | None,
        collect: Callable[[JoinProgram, Iterable[tuple]], _Out],
    ) -> _Out:
        """One traced, metered evaluation of *query*: run *program* (or a
        fresh compile) and return ``collect(program, frames)``."""
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("evaluate.start")
        relations = self._resolve_relations(query)
        if program is None:
            program = compile_query(query, relations)
        span, profile = self._evaluation_span(query, program)
        timed = self.metrics is not None or profile is not None
        with span:
            started = time.perf_counter() if timed else 0.0
            cancel = partial(deadline.check, "join") if deadline is not None else None
            frames = program.run_frames(relations, self.index_manager, profile, cancel)
            out = collect(program, frames)
            elapsed = time.perf_counter() - started if timed else 0.0
            if profile is not None:
                span.set_attribute("answers", len(out))
                self._annotate_span(span, program, profile)
        if self.metrics is not None:
            self.metrics.record_evaluation(elapsed, current_fingerprint())
        return out

    def evaluate_parameterized(
        self,
        query: ConjunctiveQuery,
        parameter_values: Mapping[str | Variable, object],
    ) -> Relation:
        """Evaluate a parameterized query with its parameters instantiated.

        ``parameter_values`` maps parameter names (or variables) to constants;
        every parameter of the query must be covered.  The substituted
        constants become probe-key constants of the compiled program.
        """
        substitution: dict[Variable, Term] = {}
        for param in query.parameters:
            if param in parameter_values:
                value = parameter_values[param]
            elif param.name in parameter_values:
                value = parameter_values[param.name]
            else:
                raise QueryError(
                    f"missing value for parameter {param.name!r} of query {query.name!r}"
                )
            substitution[param] = Constant(value)
        return self.evaluate(query.substitute(substitution))


def _grouped(program: JoinProgram, frames: Iterable[tuple]) -> dict[tuple, list[tuple]]:
    """*frames* grouped by the output row each projects to."""
    slots = program.head_slots
    row_of: Callable[[tuple], tuple] = (
        itemgetter(*slots) if len(slots) > 1 and None not in slots else program.output_row
    )
    out: dict[tuple, list[tuple]] = {}
    for frame in frames:
        out.setdefault(row_of(frame), []).append(frame)
    return out


def result_schema(query: ConjunctiveQuery) -> RelationSchema:
    """Build a relation schema for a query's answer.

    Attribute names follow the head terms; constants get positional names.
    """
    names: list[str] = []
    seen: set[str] = set()
    for position, term in enumerate(query.head_terms):
        if isinstance(term, Variable):
            base = term.name
        else:
            base = f"const_{position}"
        name = base
        counter = 1
        while name in seen:
            counter += 1
            name = f"{base}_{counter}"
        seen.add(name)
        names.append(name)
    return RelationSchema(query.name, [Attribute(n, object) for n in names], key=None)


def evaluate(query: ConjunctiveQuery, database: Database, **kwargs: object) -> Relation:
    """Module-level convenience wrapper around :class:`QueryEvaluator`."""
    return QueryEvaluator(database, **kwargs).evaluate(query)


def evaluate_with_bindings(
    query: ConjunctiveQuery, database: Database, **kwargs: object
) -> dict[tuple, list[Binding]]:
    """Module-level convenience wrapper returning all bindings per tuple."""
    return QueryEvaluator(database, **kwargs).evaluate_with_bindings(query)
