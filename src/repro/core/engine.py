"""The citation engine: rewrite a general query and construct its citation.

This module implements the paper's approach end to end:

1. the query is rewritten into (minimal) equivalent queries over the citation
   views, ignoring λ-parameters (Section 2);
2. for every rewriting and every output tuple, the set of bindings is
   enumerated by joining the rewriting's expansion (each view atom unfolded
   into the view's body) over the base relations; each binding yields the
   joint (``·``) citation of the view atoms it instantiates, with the views'
   parameters valued by the binding (Definition 2.1);
3. multiple bindings are combined with ``+`` (Definition 2.2), multiple
   rewritings with ``+R`` and the result tuples with ``Agg``;
4. the resulting expression is evaluated under the owner's
   :class:`~repro.core.policy.CitationPolicy` into concrete citation records.

Two operating modes address the paper's "Calculating citations" challenge:

* ``mode="formal"`` follows the formal semantics: every rewriting contributes
  to the per-tuple ``+R`` expression;
* ``mode="economical"`` uses the :class:`~repro.core.rewriting_selector.RewritingSelector`
  to pick the cheapest rewriting(s) up front — the cost-based pruning the
  paper advocates — and only evaluates those.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Literal

from repro.core.citation import Citation
from repro.core.citation_view import CitationView, views_of
from repro.core.expression import (
    Aggregate,
    Alternative,
    CitationAtom,
    CitationExpression,
    Joint,
    RewriteAlternative,
    joint,
)
from repro.core.policy import CitationPolicy
from repro.core.record import CitationRecord, CitationSet
from repro.resilience.deadline import CHECK_STRIDE, current_deadline
from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.ir import verify_citation_plan
from repro.analysis.query_rules import QueryAnalysis, analyze_query
from repro.concurrency import shared_state
from repro.core.rewriting_selector import RewritingSelector
from repro.errors import (
    CitationError,
    NoRewritingError,
    PlanVerificationError,
    StaticAnalysisError,
)
from repro.observability import NULL_SPAN, get_tracer
from repro.query.ast import ConjunctiveQuery, Constant, Variable
from repro.query.compiler import JoinProgram
from repro.query.evaluator import Binding, QueryEvaluator, result_schema
from repro.query.stats import EvaluationMetrics
from repro.query.parser import parse_query
from repro.query.ucq import UnionQuery
from repro.relational.database import Change, Database
from repro.relational.relation import Relation
from repro.rewriting.bucket import BucketRewriter
from repro.rewriting.minicon import MiniConRewriter
from repro.rewriting.rewriting import Rewriting, expand_rewriting
from repro.rewriting.view import materialize_views, views_by_name

if TYPE_CHECKING:
    from repro.service.fingerprint import Shape

Mode = Literal["formal", "economical"]

#: How the engine treats static analysis at compile time:
#: ``"warn"`` (default) analyses every query, minimizes it to its core and
#: attaches the diagnostics to the plan; ``"strict"`` additionally raises
#: :class:`~repro.errors.StaticAnalysisError` on error-severity diagnostics;
#: ``"off"`` skips analysis entirely (queries compile as submitted).
AnalysisMode = Literal["strict", "warn", "off"]

#: How the engine treats the compiled-plan IR verifier (:mod:`repro.analysis.ir`)
#: at compile time: ``"warn"`` verifies every compiled plan's join IR and
#: attaches the diagnostics as trace annotations; ``"strict"`` additionally
#: raises :class:`~repro.errors.PlanVerificationError` on error-severity
#: diagnostics; ``"off"`` (the production default) skips verification.  The
#: test suite flips the class default to ``"strict"`` via conftest, so every
#: engine-compiled plan in CI is verifier-clean.
VerifyMode = Literal["strict", "warn", "off"]

#: Bound on the per-engine analysis cache (analyses are per query object
#: shape; serving traffic funnels through a fingerprint-keyed plan cache
#: upstream, so this only needs to absorb the working set).
_ANALYSIS_CACHE_LIMIT = 1024

#: A cache-validity stamp: ``(database generation, engine cache epoch)``.
#: Anything compiled from the engine (plans, citation records, cached
#: results) is valid as long as the engine's current token equals the token
#: it was stamped with; a cited result can also be brought forward to the
#: current token (:meth:`CitationEngine.refresh_result`).
PlanToken = tuple[int, int]

#: A cited view atom: ``(view, name-ordered parameter items)``, as in ``CitationAtom``.
CitationKey = tuple[str, tuple]

#: relation → view → the positions of the view's λ-parameters (name order)
#: in each atom over the relation in its citation queries, or ``None`` when
#: a changed row can reach any of the view's records.
RecordReach = dict[str, dict[str, set[tuple[int, ...]] | None]]


def record_reach(citation_views: Iterable[CitationView]) -> RecordReach:
    """Which records a changed row of each relation can reach.

    An atom that holds every λ-parameter of its view as a variable the
    citation query takes as a parameter only matches rows carrying a
    record's own values there, so a changed row reaches the one record keyed
    by those values.  Any other atom reaches the whole view.  A record
    depends only on its citation function's inputs, the parameters and the
    citation queries' answers; a citation function that reads other state
    needs :meth:`CitationEngine.invalidate_caches`.
    """
    reach: RecordReach = {}
    for citation_view in citation_views:
        parameters = [Variable(name) for name in sorted(citation_view.parameter_names())]
        for citation_query in citation_view.citation_queries:
            for atom in citation_query.body:
                views = reach.setdefault(atom.predicate, {})
                keyed = views.get(citation_view.name, set())
                if keyed is not None and all(
                    p in atom.terms and p in citation_query.parameters for p in parameters
                ):
                    keyed.add(tuple(atom.terms.index(p) for p in parameters))
                    views[citation_view.name] = keyed
                else:
                    views[citation_view.name] = None
    return reach


def holds_reached(expression: CitationExpression, keys: set[CitationKey], whole: set[str]) -> bool:
    """Whether *expression* holds a record that logged changes reach: an atom
    of a *whole* view or one whose key is in *keys* (see ``CitationEngine._reach``)."""
    return any(
        atom.view_name in whole or (atom.view_name, atom.parameter_items) in keys
        for atom in expression.atoms()
    )


def _with_atoms_from(expression: CitationExpression, cache: AtomCache) -> CitationExpression:
    """*expression* with every atom replaced by the cache's atom for its key."""
    if isinstance(expression, CitationAtom):
        return cache[(expression.view_name, expression.parameter_items)][0]
    return type(expression)([_with_atoms_from(child, cache) for child in expression.children()])


class CitationProgram:
    """Definitions 2.1/2.2 for one rewriting, read from frames of one value
    per variable of :attr:`variables`: the slots of the join program
    compiled from the rewriting's expansion, where each rewriting term
    stands for the term it resolves to (:meth:`Rewriting.resolve`); by
    default the rewriting's own variables in name order, which
    :meth:`frame` fills from a dict.

    Per view atom: ``(view, sources, key)``, one source per λ-parameter in
    name order — ``(name, slot)``, or ``((name, value), None)`` for a
    constant — and the atom's :data:`CitationKey` when no source is a slot;
    :attr:`fixed` holds every atom's key when all do.  Frames are ordered by
    the ``repr`` of the rewriting's variables' values, in name order
    (:attr:`order`): a view that projects columns away gives several
    expansion frames per rewriting binding, and those tie.
    """

    __slots__ = ("variables", "atoms", "order", "fixed")

    def __init__(
        self,
        rewriting: Rewriting,
        citation_views: Mapping[str, CitationView],
        variables: Sequence[Variable] | None = None,
    ) -> None:
        own = sorted(rewriting.query.variables(), key=lambda v: v.name)
        resolve = rewriting.resolve if variables is not None else lambda term: term
        self.variables = tuple(own if variables is None else variables)
        slots = {variable: slot for slot, variable in enumerate(self.variables)}
        atoms: list[tuple[str, tuple, CitationKey | None]] = []
        for view_atom in rewriting.query.body:
            citation_view = citation_views.get(view_atom.predicate)
            if citation_view is None:
                raise CitationError(
                    f"rewriting uses view {view_atom.predicate!r} with no citation view"
                )
            positions = citation_view.view.parameter_positions()
            sources: list[tuple] = []
            for name in sorted(positions):
                term = resolve(view_atom.terms[positions[name]])
                constant = isinstance(term, Constant)
                sources.append(((name, term.value), None) if constant else (name, slots[term]))
            fixed = all(slot is None for _, slot in sources)
            key = (view_atom.predicate, tuple(item for item, _ in sources)) if fixed else None
            atoms.append((view_atom.predicate, tuple(sources), key))
        self.atoms = tuple(atoms)
        self.order = tuple(
            slots[term] for term in map(resolve, own) if isinstance(term, Variable)
        )
        keys = tuple(key for _, _, key in atoms)
        self.fixed = keys if all(key is not None for key in keys) else None

    def frame(self, binding: Binding) -> tuple:
        """The frame of a binding dict: the adapter for callers holding
        bindings rather than join frames."""
        for view, sources, _ in self.atoms:
            for name, slot in sources:
                if slot is not None and self.variables[slot] not in binding:
                    raise CitationError(
                        f"binding does not determine parameter {name!r} of view {view!r}"
                    )
        return tuple([binding.get(variable) for variable in self.variables])

    def keys(self, frame: Sequence) -> tuple[CitationKey, ...]:
        """Definition 2.1: the :data:`CitationKey` of each view atom under *frame*."""
        return tuple([
            key if key is not None else (
                view, tuple([item if s is None else (item, frame[s]) for item, s in sources])
            )
            for view, sources, key in self.atoms
        ])

    def alternative(self, frames: Sequence[tuple]) -> tuple[tuple[CitationKey, ...], ...]:
        """Definition 2.2: the distinct :meth:`keys` of *frames*, in ``+`` order.

        The order only matters between distinct keys, so it is skipped when
        every atom's key is fixed or the frames all give one key.
        """
        if self.fixed is not None:
            return (self.fixed,)
        if len(frames) == 1:
            return (self.keys(frames[0]),)
        keys = list(map(self.keys, frames))
        distinct = dict.fromkeys(keys)
        if len(distinct) > 1:
            order = self.order
            ranked = sorted(
                range(len(frames)), key=lambda i: [repr(frames[i][slot]) for slot in order]
            )
            distinct = dict.fromkeys([keys[i] for i in ranked])
        return tuple(distinct)


class AtomCache(dict):
    """Cited view atoms: :data:`CitationKey` → ``(atom, {record})``.  A
    missing key fetches ``FV(CV(p̄))``.

    Never mutated but by the fetch: a database change makes the engine copy
    it minus the keys the change can reach (see :func:`record_reach`).
    """

    def __init__(self, database: Database, citation_views: Mapping[str, CitationView]) -> None:
        super().__init__()
        self.database = database
        self.citation_views = citation_views

    def __missing__(self, key: CitationKey) -> tuple[CitationAtom, CitationSet]:
        view_name, items = key
        citation_view = self.citation_views.get(view_name)
        if citation_view is None:
            raise CitationError(f"unknown citation view {view_name!r}")
        values = dict(items)
        atom = CitationAtom(view_name, values, citation_view.citation_for(self.database, values))
        return self.setdefault(key, (atom, atom.evaluated_records()))


@dataclass(frozen=True)
class CitationPlan:
    """A compiled citation plan: the reusable, data-dependent-free part of
    :meth:`CitationEngine.cite`.

    Compiling a plan runs the expensive view-rewriting search (Bucket /
    MiniCon) and, in economical mode, the cost-based rewriting selection,
    then compiles each rewriting (:attr:`compiled`).  Executing a plan only
    evaluates the chosen rewritings and assembles the citation expressions,
    so a cached plan lets structurally identical queries skip the search and
    the compile entirely (the serving layer in :mod:`repro.service` builds
    on this split).
    """

    query: ConjunctiveQuery
    rewritings: tuple[Rewriting, ...]
    mode: Mode
    token: PlanToken
    uses_fallback: bool = False
    #: The minimized core the rewriting search actually ran on (``None`` when
    #: analysis was off — the plan was compiled from the query as submitted).
    #: The head is identical to ``query``'s, so results and citations are
    #: unaffected; only redundant body atoms were dropped.
    core: ConjunctiveQuery | None = field(default=None, compare=False)
    #: Static-analysis findings from compile time (empty when analysis off).
    diagnostics: tuple[Diagnostic, ...] = field(default=(), compare=False)
    #: Per rewriting, in order: its :class:`CitationProgram` and the
    #: :class:`~repro.query.compiler.JoinProgram` compiled from its
    #: expansion, whose frames it reads, so the two are paired by
    #: construction.  Both are pure description and
    #: stay valid across database changes.  This is the only copy of a
    #: plan's compiled state.
    compiled: tuple[tuple[CitationProgram, JoinProgram], ...] = field(
        default=(), compare=False, repr=False
    )
    #: Its core's lifted constants (:meth:`CitationEngine.shape`), if recorded.
    constants: tuple = field(default=(), compare=False)

    @property
    def data_dependent(self) -> bool:
        """Whether the plan's content depends on the database *instance*.

        The rewriting search itself (Bucket/MiniCon) reads only the query and
        the view definitions; the economical mode's cost-based selection also
        reads the data.  So only a data-dependent plan goes stale: a write or
        an epoch bump leaves any other plan correct, and whoever holds one
        (the incremental maintainer, a caller of :meth:`~CitationEngine.execute_plan`)
        executes it again as it is (caches: :meth:`CitationEngine.plan_stamp`).
        """
        return self.mode == "economical"


@dataclass(frozen=True)
class TupleCitation:
    """The citation of a single output tuple."""

    row: tuple
    expression: CitationExpression
    records: CitationSet

    def citation(self) -> Citation:
        """Wrap the records as a :class:`Citation` object."""
        return Citation(self.records, expression=self.expression)

    def size(self) -> int:
        """Total snippet count of the tuple's citation."""
        return sum(record.size() for record in self.records)


def aggregate_citation(
    tuple_citations: Sequence[TupleCitation],
    policy: CitationPolicy,
    query: ConjunctiveQuery | UnionQuery,
) -> Citation:
    """The citation of a whole result: ``Agg`` over its tuples' expressions,
    with their records folded by ``policy.aggregate``."""
    return Citation(
        policy.aggregate([tc.records for tc in tuple_citations]),
        expression=Aggregate([tc.expression for tc in tuple_citations]),
        query_text=str(query),
    )


@dataclass
class CitedResult:
    """A query answer together with per-tuple and aggregate citations."""

    query: ConjunctiveQuery
    rewritings: list[Rewriting]
    tuple_citations: list[TupleCitation]
    citation: Citation
    policy: CitationPolicy
    mode: Mode
    result: Relation
    used_fallback: bool = False
    _by_row: dict[tuple, TupleCitation] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_row = {tc.row: tc for tc in self.tuple_citations}

    def rows(self) -> list[tuple]:
        """The answer tuples in deterministic order."""
        return self.result.sorted_rows()

    def citation_for(self, row: tuple) -> TupleCitation:
        """The citation of one output tuple."""
        try:
            return self._by_row[tuple(row)]
        except KeyError:
            raise CitationError(f"tuple {row!r} is not in the result of {self.query.name!r}") from None

    def total_citation_size(self) -> int:
        """Size of the aggregate citation."""
        return self.citation.size()

    def __len__(self) -> int:
        return len(self.result)


@shared_state("_analysis_cache", "_analysis_stats", lock="_analysis_lock")
@shared_state("_atom_cache", "_cache_generation", "_refresh_stats", lock="_refresh_lock")
class CitationEngine:
    """Constructs citations for general queries over a cited database."""

    #: Class-level default for the ``verify_plans`` knob.  Production keeps
    #: ``"off"``; the test suite sets ``"strict"`` at conftest import so every
    #: compiled plan is IR-verified without threading the knob through every
    #: engine construction.
    DEFAULT_VERIFY_PLANS: VerifyMode = "off"

    def __init__(
        self,
        database: Database,
        citation_views: Sequence[CitationView],
        policy: CitationPolicy | None = None,
        rewriter: Literal["minicon", "bucket"] | object = "minicon",
        mode: Mode = "formal",
        selector: RewritingSelector | None = None,
        on_no_rewriting: Literal["error", "fallback"] = "error",
        fallback_citation: CitationRecord | None = None,
        analysis: AnalysisMode = "warn",
        verify_plans: VerifyMode | None = None,
    ) -> None:
        self.database = database
        self.analysis: AnalysisMode = analysis
        if verify_plans is None:
            verify_plans = type(self).DEFAULT_VERIFY_PLANS
        if verify_plans not in ("strict", "warn", "off"):
            raise CitationError(
                f"verify_plans must be 'strict', 'warn' or 'off', got {verify_plans!r}"
            )
        self.verify_plans: VerifyMode = verify_plans
        self.citation_views = list(citation_views)
        if not self.citation_views:
            raise CitationError("a citation engine needs at least one citation view")
        self.policy = policy or CitationPolicy.default()
        self.mode: Mode = mode
        self.on_no_rewriting = on_no_rewriting
        self.fallback_citation = fallback_citation
        self._views = views_of(self.citation_views)
        self._citation_view_by_name = {cv.name: cv for cv in self.citation_views}
        if len(self._citation_view_by_name) != len(self.citation_views):
            raise CitationError("citation view names must be unique")
        if rewriter == "minicon":
            self.rewriter = MiniConRewriter(self._views)
        elif rewriter == "bucket":
            self.rewriter = BucketRewriter(self._views)
        else:
            self.rewriter = rewriter
        self.selector = selector or RewritingSelector(
            database, strategy="min_citation_size", keep=1
        )
        # The atom cache is brought to the database's generation under the
        # refresh lock, from its change log: it is replaced by a copy minus
        # the keys the changes reach, so an execution keeps the cache it
        # started with.
        self._refresh_lock = threading.Lock()
        self._atom_cache = AtomCache(database, self._citation_view_by_name)
        self._cache_generation = database.generation
        self._cache_epoch = 0
        self._record_reach = record_reach(self.citation_views)
        self._parameter_names = {
            cv.name: tuple(sorted(cv.parameter_names())) for cv in self.citation_views
        }
        self._view_reads = {
            view.name: {atom.predicate for atom in view.query.body} for view in self._views
        }
        # A query constant equal to one of these keeps its value in the plan key.
        self._view_constants = {t.value for v in self._views for a in (v.query.head, *v.query.body)
                                for t in a.terms if isinstance(t, Constant)}
        self._view_constants |= {e.constant.value for v in self._views for e in v.query.equalities}
        self._refresh_stats = {"records_kept": 0, "records_evicted": 0, "full_drops": 0}
        # Counts and times every evaluation; the serving layer exposes it
        # through CitationService.stats().
        self.evaluation_metrics = EvaluationMetrics()
        # One persistent evaluator per engine, shared by compile_plan and
        # every execution (see _execution_evaluator).
        self._evaluator = QueryEvaluator(database, metrics=self.evaluation_metrics)
        # Static analysis is pure query-shape work (schema + containment, no
        # instance data), so one bounded cache serves every compile and every
        # fingerprint computation of the same query object.  submit_batch fans
        # requests out over a thread pool, so lookup/evict/insert and the
        # counter bumps must be atomic (the analysis itself runs unlocked —
        # it is pure, so concurrent duplicate work races benignly).
        self._analysis_lock = threading.Lock()
        self._analysis_cache: dict[ConjunctiveQuery, QueryAnalysis] = {}
        self._analysis_stats = {
            "analyzed": 0,
            "cache_hits": 0,
            "minimized": 0,
            "errors": 0,
            "warnings": 0,
            "plans_verified": 0,
            "verify_violations": 0,
        }

    # -- caches ------------------------------------------------------------------
    @property
    def cache_epoch(self) -> int:
        """Counter bumped by every forced :meth:`invalidate_caches` call."""
        return self._cache_epoch

    def plan_token(self) -> PlanToken:
        """The current cache-validity stamp for compiled plans.

        A plan (or any derived cache entry) stamped with an older token must
        not be served: either the database content changed (generation) or the
        caches were invalidated explicitly (epoch).
        """
        return (self.database.generation, self._cache_epoch)

    def plan_stamp(self, mode: str) -> Hashable:
        """The validity stamp a cache holds a plan of *mode* under: the whole
        :meth:`plan_token` for a :attr:`~CitationPlan.data_dependent`
        (economical) plan; otherwise only the epoch, so that
        :meth:`invalidate_caches` empties the caches holding it."""
        generation, epoch = self.plan_token()
        return (generation, epoch) if mode == "economical" else ("any", epoch)

    def is_current(self, plan: CitationPlan) -> bool:
        """``True`` when *plan* was compiled against the current database state."""
        return plan.token == self.plan_token()

    def invalidate_caches(self) -> None:
        """Force-drop every derived cache.

        Ordinary data updates do **not** require calling this: the caches
        follow :attr:`Database.generation` and evict what each change can
        reach.  That assumes a record depends only on its citation function's
        inputs (the parameters and the citation queries' answers), so this
        remains for changes outside the database's view (e.g. a citation
        function whose output depends on external state).  It bumps the
        cache epoch, which empties the caches stamped with it (the service's
        plan and result caches, see :meth:`plan_stamp`); a plan held outside
        a cache stays correct unless it is
        :attr:`~CitationPlan.data_dependent`.
        """
        with self._refresh_lock:
            self._drop_caches_locked()
            self._cache_generation = self.database.generation
        self._cache_epoch += 1

    def refresh_stats(self) -> dict[str, int]:
        """How precisely database changes invalidated the record cache:
        records kept and evicted over all refreshes, and wholesale drops
        (log overrun or :meth:`invalidate_caches`)."""
        with self._refresh_lock:
            return dict(self._refresh_stats)

    def _drop_caches_locked(self) -> None:
        self._refresh_stats["full_drops"] += 1
        self._refresh_stats["records_evicted"] += len(self._atom_cache)
        self._atom_cache = AtomCache(self.database, self._citation_view_by_name)

    def _refresh_generation(self) -> None:
        """Evict what the database's changes since the caches' generation reach."""
        if self.database.generation != self._cache_generation:
            with self._refresh_lock:
                self._refresh_locked()

    def _reach(self, entries: Iterable[Change]) -> tuple[set[CitationKey], set[str], set[str]]:
        """What logged changes reach: record keys, whole views (a drift entry
        or an atom that does not key the view's records) and the changed
        relations."""
        keys: set[CitationKey] = set()
        whole: set[str] = set()
        changed: set[str] = set()
        for relation, row in entries:
            changed.add(relation)
            for view, positions in self._record_reach.get(relation, {}).items():
                if row is None or positions is None:
                    whole.add(view)
                else:
                    names = self._parameter_names[view]
                    keys.update(
                        (view, tuple(zip(names, [row[i] for i in at]))) for at in positions
                    )
        return keys, whole, changed

    def _refresh_locked(self) -> None:
        if self.database.generation == self._cache_generation:
            return
        changes = self.database.changes_since(self._cache_generation)
        if changes is None:
            self._drop_caches_locked()
            self._cache_generation = self.database.generation
            return
        self._cache_generation, entries = changes
        keys, whole, _ = self._reach(entries)
        reached = whole | {view for view, _ in keys}
        if reached:
            # One C-level copy: readers may be filling the old cache meanwhile.
            snapshot = dict.copy(self._atom_cache)
            cache = AtomCache(self.database, self._citation_view_by_name)
            cache.update(
                (key, entry)
                for key, entry in snapshot.items()
                if key[0] not in reached
                or not (
                    key[0] in whole
                    or key in keys
                    # A key naming other parameters than the view's own.
                    or tuple([name for name, _ in key[1]]) != self._parameter_names[key[0]]
                )
            )
            self._refresh_stats["records_evicted"] += len(snapshot) - len(cache)
            self._atom_cache = cache
        self._refresh_stats["records_kept"] += len(self._atom_cache)

    def view_relations(self) -> dict[str, Relation]:
        """Materialisations of all citation views, evaluated afresh per call.

        No execution reads them: a rewriting runs as its expansion over the
        base relations.  Schema-level estimates read view extents here.
        """
        return materialize_views(self._views, self.database)

    # -- static analysis ---------------------------------------------------------
    def analyze(self, query: ConjunctiveQuery | str) -> QueryAnalysis:
        """Statically analyse *query*: minimized core plus diagnostics (cached).

        With ``analysis="off"`` this returns a trivial analysis (the query is
        its own core, no diagnostics) without running any rule.  Analyses
        depend only on the query shape and the schema, never on the data, so
        they are cached unboundedly by query identity up to a size cap.
        """
        query = self._as_query(query)
        if self.analysis == "off":
            return QueryAnalysis(query, query, ())
        with self._analysis_lock:
            cached = self._analysis_cache.get(query)
            if cached is not None:
                self._analysis_stats["cache_hits"] += 1
                return cached
        # Analysis is pure, so it runs outside the lock: concurrent misses on
        # the same query compute equivalent results and the first insert wins.
        result = analyze_query(query, self.database.schema)
        with self._analysis_lock:
            existing = self._analysis_cache.get(query)
            if existing is not None:
                self._analysis_stats["cache_hits"] += 1
                return existing
            self._analysis_stats["analyzed"] += 1
            if result.minimized:
                self._analysis_stats["minimized"] += 1
            if result.has_errors:
                self._analysis_stats["errors"] += 1
            if any(d.severity.value == "warning" for d in result.diagnostics):
                self._analysis_stats["warnings"] += 1
            if len(self._analysis_cache) >= _ANALYSIS_CACHE_LIMIT:
                self._analysis_cache.pop(next(iter(self._analysis_cache)))
            self._analysis_cache[query] = result
        return result

    def shape(self, query: ConjunctiveQuery | str) -> Shape:
        """The keys and lifted constants of *query*'s core, kept with its
        cached analysis (:func:`repro.service.fingerprint.shape`)."""
        analysis = self.analyze(query)
        if analysis._shape is None:
            from repro.service.fingerprint import shape  # the service imports this module
            object.__setattr__(analysis, "_shape", shape(analysis.core, self._view_constants))
        return analysis._shape  # type: ignore[return-value]

    def analysis_stats(self) -> dict[str, object]:
        """Counters of the static-analysis pass (exposed by the service)."""
        with self._analysis_lock:
            return {"mode": self.analysis, **self._analysis_stats}

    # -- rewriting ----------------------------------------------------------------
    def rewritings(self, query: ConjunctiveQuery | str) -> list[Rewriting]:
        """All minimal equivalent rewritings of *query* over the citation views."""
        query = self._as_query(query)
        return self.rewriter.rewrite(query.without_parameters())

    # -- citation records -----------------------------------------------------------
    def citation_record(
        self, view_name: str, parameter_values: Mapping[str, object] | None = None
    ) -> CitationRecord:
        """``FV(CV(p̄))`` for one view and one parameter valuation (cached
        until a database change reaches it)."""
        self._refresh_generation()
        key = (view_name, tuple(sorted((parameter_values or {}).items())))
        record = self._atom_cache[key][0].record
        assert record is not None
        return record

    # -- Definitions 2.1 / 2.2 ---------------------------------------------------------
    def citation_for_binding(
        self, rewriting: Rewriting, binding: Binding
    ) -> CitationExpression:
        """Definition 2.1: the joint citation of one binding of one rewriting."""
        self._refresh_generation()
        program = CitationProgram(rewriting, self._citation_view_by_name)
        keys = program.keys(program.frame(binding))
        return joint([self._atom_cache[key][0] for key in keys])

    def cite_row(
        self, row: tuple, alternatives: Sequence[tuple[Rewriting, Sequence[Binding]]]
    ) -> TupleCitation:
        """The citation of *row*, given the bindings producing it per rewriting."""
        self._refresh_generation()
        programs = []
        for rewriting, bindings in alternatives:
            program = CitationProgram(rewriting, self._citation_view_by_name)
            programs.append((program, [program.frame(binding) for binding in bindings]))
        return self._cite_row(row, programs, self._atom_cache, self.policy)

    def _cite_row(
        self,
        row: tuple,
        alternatives: Sequence[tuple[CitationProgram, Sequence[tuple]]],
        cache: AtomCache,
        policy: CitationPolicy,
    ) -> TupleCitation:
        """Definitions 2.1/2.2 for one row, folded under *policy* in one pass.

        Duplicates are dropped as ``+`` and ``+R`` drop them; the fold then
        makes the combinator calls ``policy.evaluate`` would make on the
        expression, in the same order and with equal operands.
        """
        kept: dict[tuple, None] = {}
        for program, frames in alternatives:
            kept[program.alternative(frames)] = None
        expressions: list[CitationExpression] = []
        folded: list[CitationSet] = []
        for alternative in kept:
            terms: list[CitationExpression] = []
            operands: list[CitationSet] = []
            for keys in alternative:
                entries = [cache[key] for key in keys]
                if len(entries) == 1:
                    term, records = entries[0]
                else:
                    atoms, sets = zip(*entries)
                    term, records = Joint(atoms), policy.joint(list(sets))
                terms.append(term)
                operands.append(records)
            if len(terms) == 1:
                expression, records = terms[0], operands[0]
            else:
                expression, records = Alternative(terms), policy.alternative(operands)
            expressions.append(expression)
            folded.append(records)
        if len(expressions) == 1:
            return TupleCitation(row, expressions[0], folded[0])
        return TupleCitation(
            row, RewriteAlternative(expressions), policy.rewrite_alternative(folded)
        )

    # -- main entry point -----------------------------------------------------------------
    def compile_plan(
        self,
        query: ConjunctiveQuery | str,
        mode: Mode | None = None,
    ) -> CitationPlan:
        """Run the rewriting search (and economical selection) for *query*.

        The returned :class:`CitationPlan` can be executed any number of times
        with :meth:`execute_plan` — the expensive part of citing a query is
        done exactly once.  Raises :class:`NoRewritingError` when no rewriting
        exists and the engine is configured with ``on_no_rewriting="error"``;
        with ``"fallback"`` a fallback plan is returned instead.

        Unless ``analysis="off"``, the query is statically analysed first and
        the rewriting search runs on its *minimized core* — the plan records
        both (``plan.query`` keeps the query as submitted; the heads are
        identical, so results and citations are unchanged) and carries the
        diagnostics.  Under ``analysis="strict"``, error-severity diagnostics
        abort compilation with :class:`~repro.errors.StaticAnalysisError`.
        """
        query = self._as_query(query)
        mode = mode or self.mode
        tracer = get_tracer()
        span = (
            tracer.span("engine.compile_plan", query=query.name, mode=mode)
            if tracer.enabled
            else NULL_SPAN
        )
        with span:
            analysis = self.analyze(query)
            for diag in analysis.diagnostics:
                span.child(
                    "analysis.diagnostic",
                    code=diag.code,
                    severity=diag.severity.value,
                    message=diag.message,
                )
            if analysis.minimized:
                span.set_attribute("atoms_dropped", analysis.atoms_dropped)
            if self.analysis == "strict" and analysis.has_errors:
                raise StaticAnalysisError(
                    f"query {query.name!r} failed static analysis: "
                    + "; ".join(str(d) for d in analysis.report.errors),
                    analysis.report.errors,
                )
            token = self.plan_token()
            rewritings = self.rewritings(analysis.core)
            span.set_attribute("rewritings_found", len(rewritings))
            if not rewritings:
                if self.on_no_rewriting == "error":
                    raise NoRewritingError(query.name)
                span.set_attribute("fallback", True)
                return CitationPlan(
                    query,
                    (),
                    mode,
                    token,
                    uses_fallback=True,
                    core=analysis.core,
                    diagnostics=analysis.diagnostics,
                )
            if mode == "economical":
                rewritings = self.selector.select(rewritings)
                span.set_attribute("rewritings_selected", len(rewritings))
            plan = CitationPlan(
                query,
                tuple(rewritings),
                mode,
                token,
                core=analysis.core,
                diagnostics=analysis.diagnostics,
                compiled=self._compile_rewritings(rewritings),
            )
            self._verify_compiled_plan(plan, span)
            return plan

    def _compile_rewritings(self, rewritings: Iterable[Rewriting]) -> tuple:
        """:attr:`CitationPlan.compiled` for *rewritings*: each one's
        expansion compiled over the base relations."""
        evaluator = self._execution_evaluator()
        compiled = []
        for rewriting in rewritings:
            program = evaluator.compile(rewriting.expansion)
            citation = CitationProgram(rewriting, self._citation_view_by_name, program.variables)
            compiled.append((citation, program))
        return tuple(compiled)

    def instantiate_plan(self, plan: CitationPlan, constants: tuple) -> CitationPlan:
        """*plan* with *constants* in place of ``plan.constants`` (matched by
        type and value) in its rewritings and their expansions, so no search
        runs; the programs, whose probe keys hold the constants, are built
        anew and verified as :meth:`compile_plan` does.
        *plan* itself when the constants are its own."""
        if plan.constants == constants:
            return plan
        values = {(type(o), o): Constant(n) for o, n in zip(plan.constants, constants, strict=True)}
        rewritings = tuple(r.with_constants(values) for r in plan.rewritings)
        instantiated = replace(
            plan,
            query=plan.query.with_constants(values),
            rewritings=rewritings,
            core=None if plan.core is None else plan.core.with_constants(values),
            compiled=self._compile_rewritings(rewritings),
            constants=constants,
        )
        self._verify_compiled_plan(instantiated, NULL_SPAN)
        return instantiated

    def _verify_compiled_plan(self, plan: CitationPlan, span) -> None:
        """Run the IR verifier over *plan*'s compiled join IR (see
        ``verify_plans``).

        Verification runs once per plan compile, over the programs
        :meth:`compile_plan` just built, so warm traffic through
        the serving layer's plan cache never pays again.
        """
        if self.verify_plans == "off" or not plan.rewritings:
            return
        report = verify_citation_plan(plan)
        with self._analysis_lock:
            self._analysis_stats["plans_verified"] += 1
            if report.has_errors:
                self._analysis_stats["verify_violations"] += 1
        for diag in report:
            span.child(
                "ir.diagnostic",
                code=diag.code,
                severity=diag.severity.value,
                message=diag.message,
            )
        if self.verify_plans == "strict" and report.has_errors:
            raise PlanVerificationError(
                f"compiled plan for {plan.query.name!r} failed IR verification: "
                + "; ".join(str(d) for d in report.errors),
                report.errors,
            )

    def verify_plan(self, plan: CitationPlan) -> AnalysisReport:
        """IR-verify everything compiled onto *plan* (join and citation
        programs), regardless of the ``verify_plans`` knob.

        Tests and the race harness use it to assert plans stay
        verifier-clean *after* being executed and cached.
        """
        return verify_citation_plan(plan)

    def cite(
        self,
        query: ConjunctiveQuery | str,
        mode: Mode | None = None,
    ) -> CitedResult:
        """Answer *query* and construct per-tuple and aggregate citations.

        Compiles a new plan on every call: to reuse compiled programs,
        hold the plan (:meth:`compile_plan`,
        :meth:`execute_plan`) or serve through the service's plan cache.
        """
        return self.execute_plan(self.compile_plan(query, mode))

    def execute_plan(
        self,
        plan: CitationPlan,
        query: ConjunctiveQuery | str | None = None,
        policy: CitationPolicy | None = None,
    ) -> CitedResult:
        """Evaluate a compiled plan and assemble the cited result.

        *query* may override the plan's stored query with a structurally
        identical (alpha-renamed / atom-reordered) variant: the answer rows
        and citations are the same, only the result schema and the reported
        query text differ.  This is what lets the plan cache serve every
        member of an isomorphism class from one compilation.  *policy*
        overrides the engine's citation policy for this execution only —
        plans are policy-independent, so the same compiled plan serves every
        policy.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._execute_plan(plan, query, policy)
        with tracer.span(
            "engine.execute_plan",
            query=plan.query.name,
            mode=plan.mode,
            rewritings=len(plan.rewritings),
            fallback=plan.uses_fallback,
        ) as span:
            result = self._execute_plan(plan, query, policy)
            span.set_attribute("rows", len(result))
            return result

    def _execute_plan(
        self,
        plan: CitationPlan,
        query: ConjunctiveQuery | str | None = None,
        policy: CitationPolicy | None = None,
    ) -> CitedResult:
        policy = policy or self.policy
        query = plan.query if query is None else self._as_query(query)
        if plan.uses_fallback:
            return self._handle_no_rewriting(query, plan.mode, policy)

        tracer = get_tracer()
        evaluator = self._execution_evaluator()
        self._refresh_generation()
        cache = self._atom_cache
        alternatives_by_row: dict[tuple, list[tuple[CitationProgram, list[tuple]]]] = {}
        for position, (rewriting, (citation, program)) in enumerate(
            zip(plan.rewritings, plan.compiled, strict=True)
        ):
            rewriting_span = (
                tracer.span(
                    "engine.rewriting",
                    index=position,
                    rewriting=str(rewriting.query),
                )
                if tracer.enabled
                else NULL_SPAN
            )
            with rewriting_span:
                # Frames of the expansion, in the layout of the program the
                # citation program was resolved against.
                frames_by_row = evaluator.frames_by_row(rewriting.expansion, program)
                rewriting_span.set_attribute("rows", len(frames_by_row))
            for row, frames in frames_by_row.items():
                alternatives_by_row.setdefault(row, []).append((citation, frames))

        assemble_span = (
            tracer.span("engine.assemble_citations", rows=len(alternatives_by_row))
            if tracer.enabled
            else NULL_SPAN
        )
        # The clock is read every CHECK_STRIDE rows and after a row that
        # fetched a record (the cache grew), which can outweigh the stride.
        deadline = current_deadline()
        ticks, fetched = 0, len(cache)
        tuple_citations: list[TupleCitation] = []
        with assemble_span:
            for row in sorted(alternatives_by_row, key=repr):
                if deadline is not None:
                    ticks += 1
                    if ticks == CHECK_STRIDE or len(cache) != fetched:
                        deadline.check("assembly")
                        ticks, fetched = 0, len(cache)
                tuple_citations.append(
                    self._cite_row(row, alternatives_by_row[row], cache, policy)
                )

        return CitedResult(
            query=query,
            rewritings=list(plan.rewritings),
            tuple_citations=tuple_citations,
            citation=aggregate_citation(tuple_citations, policy, query),
            policy=policy,
            mode=plan.mode,
            # Keyless and all-object: the join's answers need no validation.
            result=Relation.of_valid_rows(result_schema(query), set(alternatives_by_row)),
        )

    def refresh_result(
        self, result: CitedResult, token: PlanToken
    ) -> tuple[CitedResult, PlanToken] | None:
        """Bring *result*, stamped *token*, forward to the current token.

        ``None`` when only a new execution can: the cache epoch moved, the
        change log no longer reaches back to *token*, the result is
        economical (its rewriting selection read the data), or a change
        touches a relation that the body of one of its views reads (for a
        fallback result, its query's body, or the body of a view it names).
        Otherwise the answer stands and only citation records can have
        changed: a result whose records no change reaches comes back as it
        is; else a copy rebuilds the citations of just the rows whose
        expression holds a reached atom, with the atoms the refreshed cache
        holds now, folded under the result's policy.  The answer relation is
        shared, not copied.
        """
        generation, epoch = token
        if epoch != self._cache_epoch or result.mode == "economical":
            return None
        changes = self.database.changes_since(generation)
        if changes is None:
            return None
        current, entries = changes
        keys, whole, changed = self._reach(entries)
        views = {
            atom.predicate for rewriting in result.rewritings for atom in rewriting.query.body
        }
        if result.used_fallback:  # an atom over a view reads what the view reads
            body = result.query.body
            reads = set().union(*[self._view_reads.get(a.predicate, {a.predicate}) for a in body])
        else:
            reads = {relation for view in views for relation in self._view_reads[view]}
        if changed & reads:
            return None
        fresh = (current, epoch)
        reached = (whole | {view for view, _ in keys}) & views
        if not reached:
            return result, fresh
        self._refresh_generation()
        cache = self._atom_cache
        policy = result.policy
        deadline = current_deadline()
        patched = False
        tuple_citations: list[TupleCitation] = []
        for tc in result.tuple_citations:
            if holds_reached(tc.expression, keys, whole):
                if deadline is not None:
                    deadline.check("assembly")
                expression = _with_atoms_from(tc.expression, cache)
                tc = TupleCitation(tc.row, expression, policy.evaluate(expression))
                patched = True
            tuple_citations.append(tc)
        if not patched:
            return result, fresh
        citation = aggregate_citation(tuple_citations, policy, result.query)
        return replace(result, tuple_citations=tuple_citations, citation=citation), fresh

    # -- helpers -------------------------------------------------------------------------
    def _execution_evaluator(self) -> QueryEvaluator:
        """The engine's one persistent evaluator, shared by every compile and
        execution.  It reads the database's relations and their indexes and
        caches nothing per query, since compiled state lives on the plans.
        Mutations must not race in-flight executions — the usual
        reader/writer discipline of the in-memory store.
        """
        return self._evaluator

    def evaluate_uncovered(self, query: ConjunctiveQuery) -> Relation:
        """The answer of *query*, which no rewriting covers, from the engine's
        evaluator; an atom over a view is expanded into the view's body."""
        query = query.without_parameters()
        if any(atom.predicate in self._view_reads for atom in query.body):
            query = expand_rewriting(query, views_by_name(self._views))
        return self._evaluator.evaluate(query)

    def _handle_no_rewriting(
        self,
        query: ConjunctiveQuery,
        mode: Mode,
        policy: CitationPolicy | None = None,
    ) -> CitedResult:
        policy = policy or self.policy
        if self.on_no_rewriting == "error":
            raise NoRewritingError(query.name)
        fallback = self.fallback_citation or CitationRecord(
            {"title": "Cited database", "note": "no citation view covers this query"}
        )
        result_relation = self.evaluate_uncovered(query)
        rows = result_relation.rows
        atom = CitationAtom("__database__", {}, fallback)
        tuple_citations = [
            TupleCitation(row, atom, frozenset({fallback})) for row in sorted(rows, key=repr)
        ]
        citation = Citation(
            frozenset({fallback}),
            expression=Aggregate([atom]) if tuple_citations else Aggregate([]),
            query_text=str(query),
        )
        return CitedResult(
            query=query,
            rewritings=[],
            tuple_citations=tuple_citations,
            citation=citation,
            policy=policy,
            mode=mode,
            result=result_relation,
            used_fallback=True,
        )

    @staticmethod
    def _as_query(query: ConjunctiveQuery | str) -> ConjunctiveQuery:
        if isinstance(query, str):
            return parse_query(query)
        return query
