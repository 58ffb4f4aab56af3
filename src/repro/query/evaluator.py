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
and one join loop runs that plan for plain and reduced programs alike.  The evaluator caches nothing
per query: a call compiles its program and reduction afresh, unless the
caller hands in a :class:`~repro.query.compiler.PreludeCache`, which carries
the reduced program (``prelude.reduced``), the plain one
(``prelude.reduced.program``) and the warm semi-join state.  The citation
engine compiles one per rewriting into each
:class:`~repro.core.engine.CitationPlan` and passes it in, which is how
serving traffic pays for compilation once per query shape.

The evaluator has a **strategy knob** for how a program is executed:

* ``"program"`` — the plain nested-loop join program;
* ``"reduced"`` — the program behind its semi-join reduction prelude
  (:func:`~repro.query.compiler.reduce_program`): a Yannakakis bottom-up /
  top-down pass over the join tree for acyclic queries, plus sideways
  information passing for every query;
* ``"auto"`` (the default) — for α-acyclic multi-atom queries, ask the
  statistics-driven :class:`~repro.query.stats.CostModel` whether the
  prelude's expected dangling-tuple savings beat its linear passes; run
  whatever it picks.

Every evaluation runs the one join loop
(:meth:`~repro.query.compiler.JoinProgram.run_plan`) in the calling thread.

Under ``"auto"`` a query whose handed-in prelude is warm for the current
relations always runs reduced — the prelude costs nothing, so the cost
model is only consulted cold.

All strategies produce identical answers and binding sets — the reduction
only removes rows that cannot contribute — which the differential property
suites (``tests/property/test_strategy_equivalence.py`` and
``tests/property/test_prelude_equivalence.py``) lock down.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator, Mapping, Sized
from functools import partial
from operator import itemgetter
from typing import Literal, TypeVar

from repro.errors import QueryError, UnknownRelationError
from repro.observability import NULL_SPAN, current_fingerprint, get_tracer
from repro.resilience.deadline import current_deadline
from repro.query.ast import ConjunctiveQuery, Constant, Term, Variable
from repro.query.compiler import (
    JoinProfile,
    JoinProgram,
    PreludeCache,
    ReducedProgram,
    compile_query,
    reduce_program,
)
from repro.query.stats import CostEstimate, CostModel, EvaluationMetrics, StatisticsCatalog
from repro.relational.database import Database
from repro.relational.index import IndexManager
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema

Binding = dict[Variable, object]

_Out = TypeVar("_Out", bound=Sized)

Strategy = Literal["auto", "program", "reduced"]

STRATEGIES: tuple[Strategy, ...] = ("auto", "program", "reduced")


class QueryEvaluator:
    """Evaluates conjunctive queries against a :class:`Database`.

    The evaluator may also be given *extra relations* (e.g. materialised
    views) that are not part of the database schema; atoms whose predicate
    matches an extra relation are evaluated against it.  An external
    :class:`~repro.relational.index.IndexManager` may be supplied to share
    view indexes across evaluator instances (the citation engine does this);
    otherwise the evaluator owns a private one.  Likewise *statistics* /
    *cost_model* / *metrics* default to private instances but can be shared
    (the engine threads one :class:`~repro.query.stats.StatisticsCatalog`
    and one :class:`~repro.query.stats.EvaluationMetrics` through every
    evaluator it builds).
    """

    def __init__(
        self,
        database: Database,
        extra_relations: Mapping[str, Relation] | None = None,
        index_manager: IndexManager | None = None,
        strategy: Strategy = "auto",
        statistics: StatisticsCatalog | None = None,
        cost_model: CostModel | None = None,
        metrics: EvaluationMetrics | None = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown evaluation strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.database = database
        self.extra_relations = dict(extra_relations or {})
        self.strategy: Strategy = strategy
        # Not `or`: an IndexManager with no entries yet is len() == 0, falsy.
        self.index_manager = (
            index_manager if index_manager is not None else IndexManager(database)
        )
        self.statistics = (
            statistics if statistics is not None else StatisticsCatalog(self.index_manager)
        )
        self.cost_model = cost_model if cost_model is not None else CostModel(self.statistics)
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

    def reduce(self, query: ConjunctiveQuery) -> ReducedProgram:
        """Compile *query* and build its semi-join reduction."""
        return self.reduction_of(query, self.compile(query))

    def reduction_of(
        self, query: ConjunctiveQuery, program: JoinProgram
    ) -> ReducedProgram:
        """The semi-join reduction of *program*, compiled from *query*."""
        return reduce_program(program)

    def prelude_for(
        self, query: ConjunctiveQuery, reduced: ReducedProgram
    ) -> PreludeCache:
        """A new, empty :class:`PreludeCache` over *query*'s reduction
        *reduced*, reporting hits and misses to :attr:`metrics`."""
        return PreludeCache(reduced, metrics=self.metrics)

    # -- strategy selection --------------------------------------------------
    def select_strategy(
        self, query: ConjunctiveQuery
    ) -> Literal["program", "reduced"]:
        """The executor this evaluator would run *query* with right now.

        ``"program"`` and ``"reduced"`` are themselves; ``"auto"`` resolves
        through the cost model, so the answer can change as the data drifts.
        """
        relations = self._resolve_relations(query)
        # Pure introspection: resolve without recording picks or estimates,
        # so polling this for monitoring never skews the serving metrics.
        executor, _reason, _estimate = self._executor(
            relations, compile_query(query, relations), None, None, record=False
        )
        return "reduced" if isinstance(executor, ReducedProgram) else "program"

    def _executor(
        self,
        relations: Mapping[str, Relation],
        program: JoinProgram,
        reduced: ReducedProgram | None,
        strategy: Strategy | None,
        prelude: PreludeCache | None = None,
        record: bool = True,
    ) -> tuple[JoinProgram | ReducedProgram, str, CostEstimate | None]:
        """Resolve the strategy for one evaluation to a runnable program.

        *reduced* is *program*'s reduction when the caller holds one (it is
        built here otherwise, and only if the pick needs it).  Returns
        ``(executor, pick reason, cost estimate or None)`` — the reason and
        estimate feed the evaluation span's attributes, so an EXPLAIN trace
        shows not just what ran but why the resolver picked it.  With
        ``record=False`` the resolution leaves no trace in :attr:`metrics`
        (introspection via :meth:`select_strategy`).
        """
        strategy = strategy or self.strategy
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown evaluation strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if strategy == "program":
            return self._picked(program, "forced", record)
        if strategy != "reduced" and len(program.steps) < 2:
            # Single-atom queries never pay for the analysis.  Multi-atom
            # ones run join_forest + a cost estimate per resolution; both are
            # O(atoms²)/O(atoms) over the tiny compiled description, and the
            # estimate's statistics are version-cached in the catalog.
            return self._picked(program, "single_atom", record)
        if reduced is None:
            reduced = reduce_program(program)
        if strategy == "reduced":
            return self._picked(reduced, "forced", record)
        if not reduced.acyclic:
            return self._picked(program, "cyclic", record)
        # Warm state makes the prelude free: always run reduced on a hit.
        if prelude is not None and prelude.is_warm(relations):
            return self._picked(reduced, "warm_prelude", record)
        estimate = self.cost_model.estimate(reduced, relations)
        if record and self.metrics is not None:
            self.metrics.record_estimate(estimate)
        if estimate.prefers_reduction:
            return self._picked(reduced, "cost_model", record, estimate)
        return self._picked(program, "cost_model", record, estimate)

    def _picked(
        self,
        executor: JoinProgram | ReducedProgram,
        reason: str,
        record: bool = True,
        estimate: CostEstimate | None = None,
    ) -> tuple[JoinProgram | ReducedProgram, str, CostEstimate | None]:
        if record and self.metrics is not None:
            kind = "reduced" if isinstance(executor, ReducedProgram) else "program"
            self.metrics.record_pick(kind, reason)
        return executor, reason, estimate

    # -- core join ------------------------------------------------------------
    def _frames_for(
        self,
        executor: JoinProgram | ReducedProgram,
        relations: Mapping[str, Relation],
        prelude: PreludeCache | None,
        profile: JoinProfile | None = None,
        cancel=None,
    ) -> Iterator[tuple]:
        """Run *executor*, threading warm-prelude state into reduced runs.

        *cancel* (a zero-arg checkpoint callable) flows through to the
        prelude passes and the per-row join loop.
        """
        if isinstance(executor, ReducedProgram):
            return executor.run_frames(
                relations, self.index_manager, prelude, profile, cancel
            )
        return executor.run_frames(relations, self.index_manager, profile, cancel)

    def _compiled(
        self,
        query: ConjunctiveQuery,
        relations: Mapping[str, Relation],
        prelude: PreludeCache | None,
    ) -> tuple[JoinProgram, ReducedProgram | None]:
        """*query*'s program and, when the caller holds one, its reduction."""
        if prelude is not None:
            return prelude.reduced.program, prelude.reduced
        return compile_query(query, relations), None

    # -- tracing ---------------------------------------------------------------
    def _evaluation_span(
        self,
        query: ConjunctiveQuery,
        executor: JoinProgram | ReducedProgram,
        kind: str,
        reason: str,
        strategy: Strategy | None,
        estimate: CostEstimate | None,
    ):
        """An open ``query.evaluate`` span plus the profile to fill (or no-ops).

        Returns ``(span, profile)``; callers gate every further attribute
        write on ``profile is not None``, so the disabled path pays exactly
        one ``get_tracer()`` call, one branch, and a no-op context manager.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return NULL_SPAN, None
        span = tracer.span(
            "query.evaluate",
            query=query.name,
            strategy=strategy or self.strategy,
            executor=kind,
            reason=reason,
        )
        if estimate is not None:
            span.set_attribute("cost_estimate", estimate.as_dict())
        steps = (
            executor.program.steps
            if isinstance(executor, ReducedProgram)
            else executor.steps
        )
        return span, JoinProfile(len(steps))

    @staticmethod
    def _annotate_span(
        span,
        executor: JoinProgram | ReducedProgram,
        profile: JoinProfile,
        estimate: CostEstimate | None,
    ) -> None:
        """Copy one profiled run's counters onto its evaluation span."""
        if profile.prelude is not None:
            span.set_attribute("prelude", profile.prelude)
        if profile.empty:
            span.set_attribute("empty", True)
        span.set_attribute("results", profile.results)
        steps = (
            executor.program.steps
            if isinstance(executor, ReducedProgram)
            else executor.steps
        )
        est_survival = estimate.survival if estimate is not None else None
        for position, step in enumerate(steps):
            child = span.child(
                "join.step",
                step=position,
                predicate=step.predicate,
                relation_rows=profile.relation_rows[position],
                rows_in=profile.rows_in[position],
                rows_scanned=profile.rows_scanned[position],
                frames_out=profile.frames_out[position],
                survival=round(profile.survival(position), 4),
            )
            if est_survival is not None and position < len(est_survival):
                child.set_attribute("est_survival", round(est_survival[position], 4))

    def bindings(
        self,
        query: ConjunctiveQuery,
        strategy: Strategy | None = None,
        prelude: PreludeCache | None = None,
    ) -> list[Binding]:
        """Every satisfying assignment of the query's variables, one per frame."""
        return self._join(
            query, strategy, prelude,
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

    def evaluate(
        self, query: ConjunctiveQuery, strategy: Strategy | None = None
    ) -> Relation:
        """Evaluate *query* and return its answer relation (set semantics)."""
        answers = self._join(
            query, strategy, None,
            lambda program, frames: set(map(program.output_row, frames)),
        )
        return Relation.of_valid_rows(result_schema(query), answers)

    def frames_by_row(
        self,
        query: ConjunctiveQuery,
        strategy: Strategy | None = None,
        prelude: PreludeCache | None = None,
    ) -> dict[tuple, list[tuple]]:
        """Map every output tuple to the join frames producing it.

        A frame holds one value per slot of the program that ran.  With
        *prelude* (a :class:`~repro.query.compiler.PreludeCache` for
        *query*), its reduced program and the plain program under it run
        instead of a fresh compile, its warm state serves reduced runs, and
        the frames are laid out as ``prelude.reduced.program.variables``.
        """
        return self._join(query, strategy, prelude, _grouped)

    def evaluate_with_bindings(
        self,
        query: ConjunctiveQuery,
        strategy: Strategy | None = None,
        prelude: PreludeCache | None = None,
    ) -> dict[tuple, list[Binding]]:
        """Map every output tuple to the list of bindings producing it: the
        dict adapter over :meth:`frames_by_row`."""

        def as_bindings(program: JoinProgram, frames) -> dict[tuple, list[Binding]]:
            variables = program.variables
            return {
                row: [dict(zip(variables, frame)) for frame in group]
                for row, group in _grouped(program, frames).items()
            }

        return self._join(query, strategy, prelude, as_bindings)

    def _join(
        self,
        query: ConjunctiveQuery,
        strategy: Strategy | None,
        prelude: PreludeCache | None,
        collect: Callable[[JoinProgram, Iterable[tuple]], _Out],
    ) -> _Out:
        """One traced, metered evaluation of *query*: resolve the executor,
        run the join, and return ``collect(program, frames)``."""
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("evaluate.start")
        relations = self._resolve_relations(query)
        program, reduced = self._compiled(query, relations, prelude)
        executor, reason, estimate = self._executor(
            relations, program, reduced, strategy, prelude
        )
        kind = "reduced" if isinstance(executor, ReducedProgram) else "program"
        span, profile = self._evaluation_span(
            query, executor, kind, reason, strategy, estimate
        )
        timed = self.metrics is not None or profile is not None
        with span:
            started = time.perf_counter() if timed else 0.0
            cancel = partial(deadline.check, "join") if deadline is not None else None
            frames = self._frames_for(
                executor, relations, prelude, profile=profile, cancel=cancel
            )
            out = collect(program, frames)
            elapsed = time.perf_counter() - started if timed else 0.0
            if profile is not None:
                span.set_attribute("answers", len(out))
                self._annotate_span(span, executor, profile, estimate)
        if self.metrics is not None:
            self.metrics.record_actual(kind, elapsed)
            fingerprint = current_fingerprint()
            if fingerprint is not None:
                self.metrics.record_evaluation(fingerprint, kind, elapsed, estimate)
        return out

    def evaluate_parameterized(
        self,
        query: ConjunctiveQuery,
        parameter_values: Mapping[str | Variable, object],
        strategy: Strategy | None = None,
    ) -> Relation:
        """Evaluate a parameterized query with its parameters instantiated.

        ``parameter_values`` maps parameter names (or variables) to constants;
        every parameter of the query must be covered.  The substituted
        constants become reduction pre-filters, so parameterized citation
        queries are where the ``"reduced"`` strategy shines.
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
        return self.evaluate(query.substitute(substitution), strategy=strategy)


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
