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
  whatever it picks;
* ``"parallel"`` — resolve the executor like ``"auto"``, then force
  **sharded execution**: the driving step's resolved row source is
  partitioned by join-key hash into one slice per worker
  (:func:`~repro.query.compiler.partition_driving_rows`), the join loop runs
  the same prepared plan once per shard with the ``driving_rows`` override,
  and the per-shard frame sets are merged (exact — each frame descends from
  exactly one driving row).  The plan — semi-join prelude and probe indexes
  included — is prepared **once** in the calling thread and read by every
  shard copy-on-write.

Under ``"auto"`` the evaluator also *considers* sharding after resolving the
executor: :meth:`~repro.query.stats.CostModel.parallel_estimate` prices the
divided join work against per-worker setup, the partition pass and the
frames the shards ship back.  Workers default to a bounded CPU-derived count
(:func:`repro.concurrency.default_worker_count`).  Each shard runs in a
forked child, which the GIL cannot serialise and which takes no lock; where
``os.fork`` is missing every evaluation runs serial (reason ``"no_fork"``).

Under ``"auto"`` a query whose handed-in prelude is warm for the current
relations always runs reduced — the prelude costs nothing, so the cost
model is only consulted cold.

All strategies produce identical answers and binding sets — the reduction
only removes rows that cannot contribute — which the differential property
suites (``tests/property/test_strategy_equivalence.py`` and
``tests/property/test_prelude_equivalence.py``) lock down.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Mapping, Sized
from functools import partial
from operator import itemgetter
from typing import Literal, TypeVar

from repro.concurrency import default_worker_count, fork_map_outcomes, shared_state
from repro.errors import QueryError, UnknownRelationError, WorkerCrashError
from repro.observability import NULL_SPAN, current_fingerprint, get_tracer
from repro.resilience import faults
from repro.resilience.deadline import Deadline, current_deadline
from repro.query.ast import ConjunctiveQuery, Constant, Term, Variable
from repro.query.compiler import (
    JoinProfile,
    JoinProgram,
    PreludeCache,
    ReducedProgram,
    compile_query,
    partition_driving_rows,
    reduce_program,
    shard_key_positions,
)
from repro.query.stats import (
    CostEstimate,
    CostModel,
    EvaluationMetrics,
    ParallelEstimate,
    StatisticsCatalog,
)
from repro.relational.database import Database
from repro.relational.index import IndexManager
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema

Binding = dict[Variable, object]

_Out = TypeVar("_Out", bound=Sized)

Strategy = Literal["auto", "program", "reduced", "parallel"]

STRATEGIES: tuple[Strategy, ...] = ("auto", "program", "reduced", "parallel")

#: Soft cap on cached shard partitions; beyond it the oldest are evicted
#: FIFO and simply recompute on next use.
_SHARD_PARTS_LIMIT = 512


@shared_state("_shard_parts", lock="_cache_lock")
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
        workers: int | None = None,
        verify_partitions: bool = False,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown evaluation strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
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
        #: Shard count of a sharded evaluation.  Defaults to the same
        #: bounded CPU-derived count the service request pool uses, so forked
        #: shards and request threads scale together.
        self.workers = workers if workers is not None else default_worker_count()
        #: When set, every freshly computed shard partition is checked against
        #: the I008 rule (exact multiset cover, hash-correct routing) and a
        #: violation raises :class:`~repro.errors.PlanVerificationError` — the
        #: runtime leg of ``verify_plans="strict"`` for sharded execution.
        self.verify_partitions = verify_partitions
        # The engine shares one evaluator across the service's worker
        # threads, so the partition cache is guarded: its FIFO eviction
        # (iterate + pop) races destructively without the lock.
        self._cache_lock = threading.Lock()
        # query -> (row source, version, key positions, shard count, parts):
        # the cached hash-partition of the driving rows, stamped by the
        # prepared plan's depth-0 row source and the driving relation's
        # version, so warm sharded traffic skips the per-row partition pass
        # entirely.
        self._shard_parts: dict[ConjunctiveQuery, tuple] = {}

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

    # -- cache control -------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop cached shard partitions and statistics.

        This exists for forced invalidation
        (:meth:`~repro.core.engine.CitationEngine.invalidate_caches`) and for
        benchmarks that want a guaranteed cold run.
        """
        with self._cache_lock:
            self._shard_parts.clear()
        self.statistics.invalidate()

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
        # "auto", or "parallel", which forces *sharding* (see
        # _shard_decision), not a particular executor.
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

    # -- shard decision --------------------------------------------------------
    def _shard_decision(
        self,
        relations: Mapping[str, Relation],
        program: JoinProgram,
        reduced: ReducedProgram | None,
        executor: JoinProgram | ReducedProgram,
        strategy: Strategy | None,
        reason: str,
        estimate: CostEstimate | None,
    ) -> tuple[int, str, ParallelEstimate | None]:
        """Decide how many shards this evaluation runs on (1 = serial).

        Runs *after* executor resolution: ``"program"``/``"reduced"`` stay
        serial (they are the differential baselines the property suite
        compares sharded runs against), every strategy stays serial where
        ``os.fork`` is missing, ``"parallel"`` forces one shard per worker,
        and ``"auto"`` asks :meth:`CostModel.parallel_estimate` whether
        dividing the serial cost across workers beats the shard setup,
        partition and frame-shipping overhead — below that crossover
        ``auto`` keeps picking serial.  *reduced* is the reduction the
        caller handed in, if any.
        """
        strategy = strategy or self.strategy
        if self.workers < 2:
            return self._shards_picked(1, "no_workers", None)
        if len(program.steps) < 2:
            # A single-atom program is one scan: sharding it ships every row
            # through a worker boundary for zero join work saved.
            return self._shards_picked(1, "single_atom", None)
        if strategy in ("program", "reduced"):
            return self._shards_picked(1, "forced_serial", None)
        if not hasattr(os, "fork"):
            return self._shards_picked(1, "no_fork", None)
        if strategy == "parallel":
            return self._shards_picked(self.workers, "forced", None)
        if estimate is None:
            # The executor resolver skipped the serial estimate (warm prelude,
            # cyclic); price it now with the reduction it resolved against —
            # statistics are version-cached, so this costs a few catalog
            # lookups.
            if isinstance(executor, ReducedProgram):
                reduced = executor
            elif reduced is None:
                reduced = reduce_program(program)
            estimate = self.cost_model.estimate(reduced, relations)
        if isinstance(executor, ReducedProgram):
            serial_cost = estimate.reduced_cost
            if reason == "warm_prelude":
                # A warm prelude is free; only the join itself divides.
                serial_cost = max(0.0, serial_cost - estimate.prelude_cost)
        else:
            serial_cost = estimate.program_cost
        driving = len(relations[program.steps[0].predicate])
        parallel = self.cost_model.parallel_estimate(
            serial_cost, driving, self.workers, estimate.frames
        )
        shards = self.workers if parallel.prefers_parallel else 1
        return self._shards_picked(shards, "cost_model", parallel)

    def _shards_picked(
        self,
        shards: int,
        reason: str,
        estimate: ParallelEstimate | None,
    ) -> tuple[int, str, ParallelEstimate | None]:
        if self.metrics is not None:
            self.metrics.record_shards(shards, reason)
        return shards, reason, estimate

    # -- sharded execution -----------------------------------------------------
    def _partition_for(
        self,
        query: ConjunctiveQuery,
        program: JoinProgram,
        plan: list[tuple],
        version: int,
        key_positions: tuple[int, ...],
        shards: int,
    ) -> list[list[tuple]]:
        """The cached hash-partition of *plan*'s driving rows (recomputed on drift).

        A partition is stamped by the plan's depth-0 row source (the driving
        relation, its shared index, or the prelude's surviving rows, which a
        warm prelude hands back unchanged) and the driving relation's
        *version*.  On a stamp hit the per-row partition pass is skipped
        entirely — the warm sharded path then costs only the fan-out itself.
        Under :attr:`verify_partitions` every fresh partition must pass the
        I008 verifier before it is cached or run.
        """
        source = plan[0][2]
        with self._cache_lock:
            entry = self._shard_parts.get(query)
        if entry is not None:
            held_source, held_version, held_positions, held_shards, parts = entry
            if (
                held_source is source
                and held_version == version
                and held_positions == key_positions
                and held_shards == shards
            ):
                return parts
        rows = program.driving_rows_from_plan(plan)
        parts = partition_driving_rows(rows, key_positions, shards)
        if self.verify_partitions:
            # Lazy import: repro.analysis pulls in rule modules that import
            # the query layer, so a module-level import here would cycle.
            from repro.analysis.ir import verify_shard_partition
            from repro.errors import PlanVerificationError

            report = verify_shard_partition(program, key_positions, parts, rows)
            if report.has_errors:
                raise PlanVerificationError(
                    f"shard partition for {query.name!r} failed verification: "
                    + "; ".join(str(d) for d in report.errors),
                    report.errors,
                )
        with self._cache_lock:
            self._shard_parts[query] = (source, version, key_positions, shards, parts)
            while len(self._shard_parts) > _SHARD_PARTS_LIMIT:
                self._shard_parts.pop(next(iter(self._shard_parts)))
        return parts

    def _run_sharded(
        self,
        executor: JoinProgram | ReducedProgram,
        relations: Mapping[str, Relation],
        query: ConjunctiveQuery,
        prelude: PreludeCache | None,
        shards: int,
        profile: JoinProfile | None = None,
        span=NULL_SPAN,
        deadline: Deadline | None = None,
    ) -> list[tuple]:
        """Run one evaluation sharded; return the merged frame list.

        The calling thread prepares *executor*'s plan before forking — a
        reduced executor's prelude runs (or is served from *prelude*), and
        every probe index is resolved — so each child runs the one join loop
        over it copy-on-write with its slice of the driving rows and takes no
        lock.  Per-shard timings and row counts land on *span* as ``shard``
        children; per-shard profiles are merged into *profile* so the span's
        per-step counters equal the serial run's.

        With a *deadline*, the prelude and every shard poll it at their
        cancellation checkpoints, and the parent waits for the children only
        until it expires.  A shard child that **crashes** (rather than
        raises) is retried serially in-process on its intact row slice —
        degradation, counted in :attr:`metrics` and on *span*, instead of a
        failed evaluation.
        """
        parent_cancel = partial(deadline.check, "prelude") if deadline is not None else None
        if isinstance(executor, ReducedProgram):
            program = executor.program
            plan = executor.prepared_plan(
                relations, self.index_manager, prelude, profile, parent_cancel
            )
            if plan is None:  # prelude proved emptiness; nothing to fan out
                return []
        else:
            program = executor
            plan = program.prepared_plan(relations, self.index_manager, profile)
        key_positions = shard_key_positions(program)
        version = relations[program.steps[0].predicate].version
        parts = self._partition_for(query, program, plan, version, key_positions, shards)

        profiled = profile is not None

        def run_shard(task: tuple[int, list[tuple]]):
            shard_index, part = task
            faults.fire("shard.execute", key=shard_index)
            cancel = partial(deadline.check, "shard") if deadline is not None else None
            started = time.perf_counter()
            shard_profile = JoinProfile(len(program.steps)) if profiled else None
            frames = list(program.run_plan(plan, part, cancel, shard_profile))
            return frames, time.perf_counter() - started, shard_profile

        tasks = [(index, part) for index, part in enumerate(parts) if part]
        if not tasks:
            return []
        retried_serially = 0
        if len(tasks) == 1:
            outcomes = [run_shard(tasks[0])]
        else:

            def run_shard_forked(task: tuple[int, list[tuple]]):
                # Runs in the forked child: the fault registry was inherited
                # copy-on-write, so a "fork.child" spec armed in the parent
                # (e.g. os._exit) trips here and kills this child only.
                faults.fire("fork.child", key=task[0])
                return run_shard(task)

            outcomes = []
            for task, (value, error) in zip(
                tasks, fork_map_outcomes(run_shard_forked, tasks, deadline)
            ):
                if error is None:
                    outcomes.append(value)
                    continue
                if not isinstance(error, WorkerCrashError):
                    # A real exception from the child (DeadlineExceeded,
                    # QueryError, ...) is the evaluation's answer — re-raise.
                    raise error
                # The child died without reporting; its row slice is intact
                # in this process, so degrade: re-run the shard serially.
                retried_serially += 1
                if profiled:
                    span.child(
                        "shard.retry", index=task[0], pid=error.pid,
                        status=error.status,
                    )
                outcomes.append(run_shard(task))
            if retried_serially and self.metrics is not None:
                self.metrics.record_degraded_retry(retried_serially)

        frames: list[tuple] = []
        for (shard_index, part), (shard_frames, elapsed, shard_profile) in zip(
            tasks, outcomes
        ):
            frames.extend(shard_frames)
            if profiled:
                span.child(
                    "shard",
                    index=shard_index,
                    rows=len(part),
                    frames=len(shard_frames),
                    elapsed_ms=round(elapsed * 1000.0, 3),
                )
                self._merge_shard_profile(profile, shard_profile)
        if profiled:
            span.set_attribute("shards", len(tasks))
            if retried_serially:
                span.set_attribute("degraded_retries", retried_serially)
        return frames

    @staticmethod
    def _merge_shard_profile(profile: JoinProfile, shard_profile: JoinProfile) -> None:
        """Fold one shard's join counters into the evaluation's profile.

        Scanned rows, surviving frames and results are additive across the
        disjoint shards; the per-step input sizes were recorded once, when
        the plan was prepared.
        """
        for position in range(profile.step_count):
            profile.rows_scanned[position] += shard_profile.rows_scanned[position]
            profile.frames_out[position] += shard_profile.frames_out[position]
        profile.results += shard_profile.results

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
    def _annotate_shard_decision(
        span, shard_reason: str, parallel: ParallelEstimate | None
    ) -> None:
        """Record why this evaluation sharded (or stayed serial) on its span."""
        span.set_attribute("shard_decision", shard_reason)
        if parallel is not None:
            span.set_attribute("parallel_estimate", parallel.as_dict())

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
        """One traced, metered evaluation of *query*: resolve the executor
        and the shard count, run the join, and return ``collect(program,
        frames)``."""
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("evaluate.start")
        relations = self._resolve_relations(query)
        program, reduced = self._compiled(query, relations, prelude)
        executor, reason, estimate = self._executor(
            relations, program, reduced, strategy, prelude
        )
        shards, shard_reason, parallel = self._shard_decision(
            relations, program, reduced, executor, strategy, reason, estimate
        )
        kind = "reduced" if isinstance(executor, ReducedProgram) else "program"
        span, profile = self._evaluation_span(
            query, executor, kind, reason, strategy, estimate
        )
        timed = self.metrics is not None or profile is not None
        with span:
            if profile is not None:
                self._annotate_shard_decision(span, shard_reason, parallel)
            started = time.perf_counter() if timed else 0.0
            if shards > 1:
                frames: Iterator[tuple] | list[tuple] = self._run_sharded(
                    executor, relations, query, prelude, shards,
                    profile=profile, span=span, deadline=deadline,
                )
            else:
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
