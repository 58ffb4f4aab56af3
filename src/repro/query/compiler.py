"""Compilation of conjunctive queries into static join programs.

The interpreted evaluator re-derived everything per recursion level: it
re-picked the next atom, re-resolved the atom's relation, and copied the
binding dict once per candidate row.  :func:`compile_query` hoists all of
that decision-making into a one-time compile step that produces a
:class:`JoinProgram`:

* a **fixed atom order**, chosen once by the same boundness×cardinality
  greedy the interpreter applied per level (constants and variables bound by
  earlier atoms or equality atoms count as bound; ties break towards smaller
  relations, then towards the original body order for determinism);
* a **variable→slot assignment**, so a binding during execution is a flat
  mutable frame (a list indexed by slot) instead of a per-row dict copy;
* **per-atom bound-position accessors**: for every atom, which positions are
  bound at that point in the order (and from which slot or constant the probe
  key is read), which positions write a slot for the first time, and which
  within-atom repeats must be checked against a just-written slot.

A program is pure description — it holds no relation data — so it stays valid
across database mutations (the answer set of a conjunctive query does not
depend on the join order) and can be cached on a
:class:`~repro.core.engine.CitationPlan` and reused across requests by the
serving layer.  Executing a program first resolves a **prepared plan**
(:meth:`JoinProgram.prepared_plan`) against a predicate→relation mapping and
an :class:`~repro.relational.index.IndexManager`: one row source per step,
with every bound-position probe served by a hash index — including probes
into materialised views and other ``extra_relations``, which the interpreted
evaluator always scanned.  One nested-loop join (:meth:`JoinProgram.run_plan`)
then runs any prepared plan, counting per-step work only when handed a
:class:`JoinProfile`.

On top of the plain program, :func:`reduce_program` performs a join-tree /
GYO analysis and produces a :class:`ReducedProgram` — a Yannakakis-style
reduction prelude plus sideways information passing:

* when the query is **α-acyclic** (GYO ear removal succeeds), the prelude
  runs a bottom-up and a top-down semi-join pass over the join tree before
  the nested-loop join, so every atom's extension is pruned to the rows that
  participate in at least one answer (the dangling tuples that make the
  plain program enumerate doomed partial bindings never enter the join);
* independently of acyclicity, each step **exports the bound-value sets** of
  the variables it writes, and every downstream step whose probe key reads
  one of those variables pre-filters its relation by them (sideways
  information passing, magic-sets style) — sound for cyclic queries too.
  Value sets only flow from steps an earlier pass has already shrunk
  (constants, equality seeds, semi-joins or an upstream SIP filter): an
  untouched step's sets are full columns, which prune nothing and cost a
  scan, so a constant-free cyclic query deliberately degenerates to the
  plain program (plus the cheap analysis).

Both passes are pure semi-joins: they only ever *remove* rows that cannot
contribute to any satisfying frame, so a reduced program yields exactly the
frames of its plain program (possibly in a different order).  The prelude's
surviving rows become the row sources of the plain program's prepared plan,
which the same join loop runs.

The prelude's per-step candidate lists are pure functions of ``(relation
version, prefilters, join tree)``, so repeated evaluations against unchanged
data redo identical work.  :class:`PreludeCache` memoizes them: a snapshot of
the candidates (plus the prepared execution plan with its ephemeral buckets)
is stamped with every participating relation's identity and
:attr:`~repro.relational.relation.Relation.version`, so a warm evaluation
skips the reduction entirely, and a drifted one recomputes **only** the
prefilters of the drifted steps and the bottom-up projections of subtrees
containing them — untouched subtrees' semi-joined key sets are reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Set as AbstractSet, Callable, Iterator, Mapping, Sequence

from repro.errors import QueryError
from repro.query.ast import Atom, ConjunctiveQuery, Constant, Variable
from repro.resilience import faults
from repro.resilience.deadline import CHECK_STRIDE
from repro.relational.index import IndexManager
from repro.relational.relation import Relation

__all__ = [
    "JoinStep",
    "JoinProfile",
    "JoinProgram",
    "SemiJoinEdge",
    "StepReduction",
    "ReducedProgram",
    "PreludeCache",
    "compile_query",
    "reduce_program",
    "join_forest",
    "is_acyclic",
]


@dataclass(frozen=True)
class JoinStep:
    """One atom of a compiled join, with its accessors precomputed.

    ``key_positions`` are the atom's bound positions (ascending); the probe
    key is assembled from ``key_slots`` / ``key_values`` (a ``None`` slot
    means the aligned constant value is used).  ``writes`` are the positions
    whose row value binds a slot for the first time, and ``post_checks`` are
    within-atom repeats of a variable first written by this very step.
    """

    predicate: str
    key_positions: tuple[int, ...]
    key_slots: tuple[int | None, ...]
    key_values: tuple[object, ...]
    writes: tuple[tuple[int, int], ...]
    post_checks: tuple[tuple[int, int], ...]


class JoinProfile:
    """Per-step counters filled by one profiled run of a join program.

    Preparing a plan with a profile records, per step (= per depth of the
    join order):

    * ``relation_rows`` — the step's full extension size;
    * ``rows_in`` — rows its row source could supply after the reduction
      prelude (equals ``relation_rows`` for untouched steps and for the
      plain program), so ``rows_in / relation_rows`` is the step's measured
      semi-join survival fraction.

    Running the plan with the profile (:meth:`JoinProgram.run_plan`) adds:

    * ``rows_scanned`` — rows iterated at that depth, summed over every
      entry into the depth (index probes touch only matching rows);
    * ``frames_out`` — partial frames that survived the step's checks, i.e.
      entries into the next depth.

    ``prelude`` records how the reduction prelude was served (``"hit"`` /
    ``"miss"`` from a :class:`PreludeCache`, ``"cold"`` without one, ``None``
    for the plain program); ``empty`` is set when the prelude proved the
    query has no answers (the join never ran); ``results`` counts yielded
    frames.  The join loop counts once per entry into a depth, never per
    scanned row, so an unprofiled run pays only a ``None`` test or two per
    entry.
    """

    __slots__ = (
        "step_count",
        "relation_rows",
        "rows_in",
        "rows_scanned",
        "frames_out",
        "prelude",
        "empty",
        "results",
    )

    def __init__(self, step_count: int) -> None:
        self.step_count = step_count
        self.relation_rows = [0] * step_count
        self.rows_in = [0] * step_count
        self.rows_scanned = [0] * step_count
        self.frames_out = [0] * step_count
        self.prelude: str | None = None
        self.empty = False
        self.results = 0

    def record_inputs(
        self,
        steps: Sequence[JoinStep],
        relations: Mapping[str, Relation],
        candidates: Sequence[list[tuple] | None] | None = None,
    ) -> None:
        """Record per-step relation sizes and the rows each source supplies."""
        for position, step in enumerate(steps):
            size = len(relations[step.predicate])
            self.relation_rows[position] = size
            rows = candidates[position] if candidates is not None else None
            self.rows_in[position] = size if rows is None else len(rows)

    def survival(self, position: int) -> float:
        """Measured surviving fraction of step *position*'s extension."""
        total = self.relation_rows[position]
        return self.rows_in[position] / total if total else 1.0

    def as_dict(self) -> dict[str, object]:
        return {
            "prelude": self.prelude,
            "empty": self.empty,
            "results": self.results,
            "steps": [
                {
                    "relation_rows": self.relation_rows[i],
                    "rows_in": self.rows_in[i],
                    "rows_scanned": self.rows_scanned[i],
                    "frames_out": self.frames_out[i],
                    "survival": round(self.survival(i), 4),
                }
                for i in range(self.step_count)
            ],
        }


@dataclass(frozen=True)
class JoinProgram:
    """A conjunctive query compiled to a fixed join order over variable slots."""

    query: ConjunctiveQuery
    variables: tuple[Variable, ...]
    seed: tuple[tuple[int, object], ...]
    steps: tuple[JoinStep, ...]
    head_slots: tuple[int | None, ...]
    head_values: tuple[object, ...]

    @property
    def slot_count(self) -> int:
        """Number of variable slots in an execution frame."""
        return len(self.variables)

    def prepared_plan(
        self,
        relations: Mapping[str, Relation],
        index_manager: IndexManager,
        profile: JoinProfile | None = None,
        candidates: Sequence[list[tuple] | None] | None = None,
    ) -> list[tuple]:
        """Resolve every step's row source for :meth:`run_plan`.

        One ``(step, kind, source, key_pairs)`` entry per step: ``"all"``
        iterates *source* directly, ``"map"`` probes it with the key read
        through ``key_pairs`` — the shared hash index of a step whose
        extension is whole, or an ephemeral dict over a reduced step's rows.
        *candidates* are a reduction prelude's per-step surviving rows
        (``None`` entries keep a step whole; see
        :meth:`ReducedProgram.reduce_relations`).

        Every index is resolved here, so running the plan touches neither
        the index manager nor the relations.  With a *profile*, records the
        per-step input sizes.
        """
        if profile is not None:
            profile.record_inputs(self.steps, relations, candidates)
        plan = []
        for position, step in enumerate(self.steps):
            rows = candidates[position] if candidates is not None else None
            relation = relations[step.predicate]
            key_pairs = tuple(zip(step.key_slots, step.key_values))
            if not step.key_positions:
                plan.append((step, "all", relation if rows is None else rows, key_pairs))
            elif rows is None:
                index = index_manager.index_for(
                    step.predicate, relation, step.key_positions
                )
                plan.append((step, "map", index, key_pairs))
            else:
                buckets: dict[tuple, list[tuple]] = {}
                key_positions = step.key_positions
                for row in rows:
                    buckets.setdefault(
                        tuple(row[p] for p in key_positions), []
                    ).append(row)
                plan.append((step, "map", buckets, key_pairs))
        return plan

    def run_plan(
        self,
        plan: Sequence[tuple],
        cancel: Callable[[], None] | None = None,
        profile: JoinProfile | None = None,
    ) -> Iterator[tuple]:
        """Run the nested-loop join over a prepared *plan*; yield every
        satisfying frame (tuple of slot values, aligned with :attr:`variables`).

        This is the join loop of both executors: the plan comes from
        :meth:`prepared_plan`, or from :meth:`ReducedProgram.prepared_plan`
        over the reduction prelude's surviving rows.

        With *cancel* (a zero-arg callable that reads the clock, typically
        ``partial(deadline.check, "join")``), every
        :data:`~repro.resilience.deadline.CHECK_STRIDE`-th scanned row is a
        cancellation checkpoint: the callable raises
        :class:`~repro.errors.DeadlineExceeded` to abandon the join
        mid-descent.  The stride is counted inline, so a row costs an
        increment; ``None`` costs one predicate test per row.

        With a *profile*, each entry into a depth adds its row count to
        ``rows_scanned``, each surviving row counts one entry into the next
        depth in ``frames_out``, and each yielded frame counts in
        ``results`` (see :class:`JoinProfile`).
        """
        frame: list = [None] * len(self.variables)
        for slot, value in self.seed:
            frame[slot] = value
        depth_count = len(plan)
        ticks = 0

        def descend(depth: int) -> Iterator[tuple]:
            nonlocal ticks
            if depth == depth_count:
                if profile is not None:
                    profile.results += 1
                yield tuple(frame)
                return
            step, kind, source, key_pairs = plan[depth]
            if kind == "all":
                rows = source
            else:
                key = tuple(
                    value if slot is None else frame[slot]
                    for slot, value in key_pairs
                )
                rows = source.get(key, ())
            if profile is not None:
                profile.rows_scanned[depth] += len(rows)
            writes = step.writes
            post_checks = step.post_checks
            for row in rows:
                if cancel is not None:
                    ticks += 1
                    if ticks % CHECK_STRIDE == 0:
                        cancel()
                for position, slot in writes:
                    frame[slot] = row[position]
                for position, slot in post_checks:
                    if row[position] != frame[slot]:
                        break
                else:
                    if profile is not None:
                        profile.frames_out[depth] += 1
                    yield from descend(depth + 1)

        yield from descend(0)

    def run_frames(
        self,
        relations: Mapping[str, Relation],
        index_manager: IndexManager,
        profile: JoinProfile | None = None,
        cancel: Callable[[], None] | None = None,
    ) -> Iterator[tuple]:
        """Prepare this program's plan and run it: every satisfying frame.

        *profile* and *cancel* are those of :meth:`run_plan`.
        """
        plan = self.prepared_plan(relations, index_manager, profile)
        return self.run_plan(plan, cancel=cancel, profile=profile)

    def output_row(self, frame: tuple) -> tuple:
        """Project one frame onto the query's head terms."""
        return tuple(
            value if slot is None else frame[slot]
            for slot, value in zip(self.head_slots, self.head_values)
        )


def compile_query(
    query: ConjunctiveQuery, relations: Mapping[str, Relation]
) -> JoinProgram:
    """Compile *query* into a :class:`JoinProgram`.

    *relations* supplies the relation instances backing the query's
    predicates; only their **cardinalities** are read (to order the atoms),
    so the program remains correct — if not always optimally ordered — when
    executed against the same schema with different data.
    """
    slots: dict[Variable, int] = {}
    seed: list[tuple[int, object]] = []
    for equality in query.equalities:
        slot = slots.setdefault(equality.variable, len(slots))
        seed.append((slot, equality.constant.value))

    # Greedy atom order: most bound positions first, then smallest relation,
    # then original body position (for determinism).
    remaining = list(enumerate(query.body))
    ordered: list[Atom] = []
    bound: set[Variable] = set(slots)

    def rank(item: tuple[int, Atom]) -> tuple[int, int, int]:
        position, atom = item
        boundness = sum(
            1
            for term in atom.terms
            if isinstance(term, Constant)
            or (isinstance(term, Variable) and term in bound)
        )
        return (-boundness, len(relations[atom.predicate]), position)

    while remaining:
        best = min(remaining, key=rank)
        remaining.remove(best)
        ordered.append(best[1])
        bound.update(best[1].variables())

    steps: list[JoinStep] = []
    for atom in ordered:
        key_positions: list[int] = []
        key_slots: list[int | None] = []
        key_values: list[object] = []
        writes: list[tuple[int, int]] = []
        post_checks: list[tuple[int, int]] = []
        written_here: set[Variable] = set()
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                key_positions.append(position)
                key_slots.append(None)
                key_values.append(term.value)
                continue
            assert isinstance(term, Variable)
            if term in written_here:
                post_checks.append((position, slots[term]))
            elif term in slots:
                key_positions.append(position)
                key_slots.append(slots[term])
                key_values.append(None)
            else:
                slot = len(slots)
                slots[term] = slot
                writes.append((position, slot))
                written_here.add(term)
        steps.append(
            JoinStep(
                predicate=atom.predicate,
                key_positions=tuple(key_positions),
                key_slots=tuple(key_slots),
                key_values=tuple(key_values),
                writes=tuple(writes),
                post_checks=tuple(post_checks),
            )
        )

    head_slots: list[int | None] = []
    head_values: list[object] = []
    for term in query.head_terms:
        if isinstance(term, Constant):
            head_slots.append(None)
            head_values.append(term.value)
        else:
            assert isinstance(term, Variable)
            if term not in slots:  # unreachable for safe queries
                raise QueryError(
                    f"head variable {term.name!r} of {query.name!r} is unbound"
                )
            head_slots.append(slots[term])
            head_values.append(None)

    by_slot = sorted(slots.items(), key=lambda item: item[1])
    return JoinProgram(
        query=query,
        variables=tuple(variable for variable, _slot in by_slot),
        seed=tuple(seed),
        steps=tuple(steps),
        head_slots=tuple(head_slots),
        head_values=tuple(head_values),
    )


# ---------------------------------------------------------------------------
# Acyclicity analysis (GYO ear removal) and the Yannakakis-style reduction
# ---------------------------------------------------------------------------
def join_forest(
    varsets: Sequence[set],
) -> list[tuple[int, int]] | None:
    """GYO ear removal over a hypergraph given as per-edge vertex sets.

    Returns the ``(ear, witness)`` pairs in removal order when the hypergraph
    is α-acyclic, and ``None`` when it is cyclic.  An ear is an edge whose
    vertices shared with any *other* remaining edge are all contained in one
    witness edge; edges sharing no vertex with the rest (disconnected
    components, cartesian products) are ears with an arbitrary witness, so an
    acyclic hypergraph always reduces to a single root and the pairs form a
    tree.  Ears and witnesses are picked lowest-index-first, so the tree is
    deterministic.
    """
    alive = list(range(len(varsets)))
    edges: list[tuple[int, int]] = []
    while len(alive) > 1:
        ear = None
        for i in alive:
            others = [j for j in alive if j != i]
            shared = varsets[i] & set().union(*(varsets[j] for j in others))
            witness = next((j for j in others if shared <= varsets[j]), None)
            if witness is not None:
                ear = (i, witness)
                break
        if ear is None:
            return None
        edges.append(ear)
        alive.remove(ear[0])
    return edges


def is_acyclic(query: ConjunctiveQuery) -> bool:
    """Whether *query*'s body hypergraph is α-acyclic (GYO-reducible).

    Variables bound to a constant by an equality atom are effectively
    constants and do not connect atoms, so they are excluded — the same
    structure :func:`reduce_program` builds its join tree over.
    """
    bound = {eq.variable for eq in query.equalities}
    varsets = [
        {v for v in atom.variables() if v not in bound} for atom in query.body
    ]
    return join_forest(varsets) is not None


@dataclass(frozen=True)
class SemiJoinEdge:
    """One join-tree edge, with the shared variables' positions in each atom.

    ``child`` and ``parent`` are step indices; the aligned position tuples
    project both atoms onto the same (sorted) shared-variable sequence.  The
    bottom-up pass filters the parent by the child's key projection; the
    top-down pass (the edges reversed) filters the child by the parent's.
    """

    child: int
    parent: int
    child_positions: tuple[int, ...]
    parent_positions: tuple[int, ...]


@dataclass(frozen=True)
class StepReduction:
    """Per-step pre-filters feeding the reduction prelude.

    ``prefilters`` are positions that must equal a compile-time constant (atom
    constants and equality-seeded variables); ``repeat_pairs`` are within-atom
    variable repeats (both positions must agree); ``sip_filters`` are
    positions whose variable is written by an earlier step — the row value
    must be in that variable's exported bound-value set; ``exports`` are the
    writes whose bound-value sets some later step consumes.
    """

    prefilters: tuple[tuple[int, object], ...]
    repeat_pairs: tuple[tuple[int, int], ...]
    sip_filters: tuple[tuple[int, int], ...]
    exports: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ReducedProgram:
    """A join program plus its semi-join reduction prelude.

    Execution runs up to three pruning passes over the per-step extensions
    before the nested-loop join of the underlying :class:`JoinProgram`:
    constant pre-filters (served by hash indexes), the
    Yannakakis bottom-up/top-down semi-joins over the join tree (acyclic
    programs only), and the sideways-information-passing forward pass.  A
    step left untouched by every pass joins exactly like the plain program —
    including probing the shared, persistently cached hash indexes — so the
    reduction never rebuilds an index it did not shrink.
    """

    program: JoinProgram
    acyclic: bool
    semi_joins: tuple[SemiJoinEdge, ...]
    reductions: tuple[StepReduction, ...]
    #: Aligned with :attr:`semi_joins`: for each edge, the (sorted) step
    #: indices of the child-side subtree.  The bottom-up key projection of an
    #: edge is a pure function of the candidates of exactly these steps, which
    #: is what lets :class:`PreludeCache` reuse an untouched subtree's
    #: semi-joined key set when only other relations drifted.
    subtrees: tuple[tuple[int, ...], ...] = ()

    # -- the reduction prelude ---------------------------------------------
    def _prefilter_step(
        self,
        position: int,
        relation: Relation,
        index_manager: IndexManager,
    ) -> list[tuple] | None:
        """Constant pre-filter + within-atom repeat filter for one step.

        Returns the surviving rows, or ``None`` when the step's full extension
        survives untouched (no prefilters or repeats).  A pure function of the
        step's relation content — the unit :class:`PreludeCache` memoizes per
        relation version.
        """
        reduction = self.reductions[position]
        rows: list[tuple] | None = None
        if reduction.prefilters:
            positions = tuple(p for p, _ in reduction.prefilters)
            index = index_manager.index_for(
                self.program.steps[position].predicate, relation, positions
            )
            rows = list(index.get(tuple(v for _, v in reduction.prefilters)))
        if reduction.repeat_pairs:
            base: Iterator[tuple] | list[tuple] = (
                rows if rows is not None else iter(relation)
            )
            rows = [
                row
                for row in base
                if all(row[a] == row[b] for a, b in reduction.repeat_pairs)
            ]
        return rows

    def reduce_relations(
        self,
        relations: Mapping[str, Relation],
        index_manager: IndexManager,
        _step_rows: Sequence[list[tuple] | None] | None = None,
        _edge_keys: dict[int, AbstractSet[tuple]] | None = None,
        cancel: Callable[[], None] | None = None,
    ) -> list[list[tuple] | None] | None:
        """Run every pruning pass; return per-step surviving rows.

        A ``None`` entry means the step's full extension survived untouched.
        Returns ``None`` (no list at all) as soon as any step's extension is
        empty — the query has no answers.

        The underscore parameters are the :class:`PreludeCache` seam:
        *_step_rows* supplies already-memoized prefilter results (one entry
        per step, same convention as the return value), and *_edge_keys* maps
        semi-join edge indices to memoized bottom-up key projections — edges
        found in the dict skip their projection, edges absent from it have
        their freshly computed projection stored back into it.  Neither the
        supplied row lists nor the key sets are ever mutated.

        *cancel* adds a cancellation checkpoint between passes — before each
        step prefilter, each semi-join edge, and each SIP step — so an
        expired deadline abandons the prelude between its O(rows) passes.
        """
        faults.fire("prelude.build")
        steps = self.program.steps
        candidates: list[list[tuple] | None] = []
        for position, step in enumerate(steps):
            if cancel is not None:
                cancel()
            relation = relations[step.predicate]
            if _step_rows is not None:
                rows = _step_rows[position]
            else:
                rows = self._prefilter_step(position, relation, index_manager)
            if (rows is not None and not rows) or (rows is None and not len(relation)):
                return None
            candidates.append(rows)

        if self.semi_joins:
            for index, edge in enumerate(self.semi_joins):
                # Bottom-up: children filter parents.
                if cancel is not None:
                    cancel()
                keys = _edge_keys.get(index) if _edge_keys is not None else None
                if keys is None:
                    keys = self._projection(
                        edge.child, edge.child_positions, candidates, relations,
                        index_manager,
                    )
                    if _edge_keys is not None:
                        _edge_keys[index] = keys
                if not self._restrict(
                    edge.parent, edge.parent_positions, keys, candidates, relations
                ):
                    return None
            for edge in reversed(self.semi_joins):  # top-down: parents filter children
                if cancel is not None:
                    cancel()
                keys = self._projection(
                    edge.parent, edge.parent_positions, candidates, relations,
                    index_manager,
                )
                if not self._restrict(
                    edge.child, edge.child_positions, keys, candidates, relations
                ):
                    return None

        # Sideways information passing: steps export the value sets of the
        # variables they write (once shrunk below their full extension), and
        # downstream steps drop rows probing values outside those sets.
        value_sets: dict[int, set] = {}
        for position, (step, reduction) in enumerate(zip(steps, self.reductions)):
            if cancel is not None:
                cancel()
            filters = [
                (p, value_sets[s])
                for p, s in reduction.sip_filters
                if s in value_sets
            ]
            if filters:
                rows = candidates[position]
                source = rows if rows is not None else relations[step.predicate]
                rows = [
                    row
                    for row in source
                    if all(row[p] in values for p, values in filters)
                ]
                if not rows:
                    return None
                candidates[position] = rows
            surviving = candidates[position]
            if reduction.exports and surviving is not None:
                for p, slot in reduction.exports:
                    value_sets[slot] = {row[p] for row in surviving}
        return candidates

    def _projection(
        self,
        position: int,
        positions: tuple[int, ...],
        candidates: list[list[tuple] | None],
        relations: Mapping[str, Relation],
        index_manager: IndexManager,
    ) -> AbstractSet[tuple]:
        """The distinct key projection of a step's surviving rows."""
        rows = candidates[position]
        if rows is not None:
            return {tuple(row[p] for p in positions) for row in rows}
        relation = relations[self.program.steps[position].predicate]
        if not positions:
            return {()} if len(relation) else set()
        # An untouched step's projection is exactly the key set of a hash
        # index on those positions — served from (and cached in) the shared
        # manager instead of re-scanning the relation.
        return index_manager.index_for(
            self.program.steps[position].predicate, relation, positions
        ).key_set()

    def _restrict(
        self,
        position: int,
        positions: tuple[int, ...],
        keys,
        candidates: list[list[tuple] | None],
        relations: Mapping[str, Relation],
    ) -> bool:
        """Semi-join one step's rows by *keys*; return whether any survive."""
        rows = candidates[position]
        source = (
            rows
            if rows is not None
            else relations[self.program.steps[position].predicate]
        )
        surviving = [
            row for row in source if tuple(row[p] for p in positions) in keys
        ]
        candidates[position] = surviving
        return bool(surviving)

    # -- execution ----------------------------------------------------------
    def prepared_plan(
        self,
        relations: Mapping[str, Relation],
        index_manager: IndexManager,
        prelude: "PreludeCache | None" = None,
        profile: JoinProfile | None = None,
        cancel: Callable[[], None] | None = None,
    ) -> list[tuple] | None:
        """Run (or serve from *prelude*) the reduction and prepare row sources.

        Returns the plain program's prepared plan over the prelude's
        surviving rows (see :meth:`JoinProgram.prepared_plan`), for
        :meth:`JoinProgram.run_plan`, or ``None`` when the prelude proved the
        query has no answers.  A *prelude* cache built for this very program
        also memoizes the plan, so a warm evaluation skips the bucket builds
        too: the plan references only the candidates, the relations and their
        version-checked indexes, so every source stays valid while no
        participating relation drifts.  With a *profile*, fills its prelude outcome, emptiness and
        per-step input counters.  *cancel* checkpoints the prelude passes
        (see :meth:`reduce_relations`).
        """
        if prelude is not None and prelude.reduced is self:
            hits_before = prelude.hits
            snapshot = prelude.refresh(relations, index_manager, cancel)
            if profile is not None:
                profile.prelude = "hit" if prelude.hits > hits_before else "miss"
            candidates = snapshot.candidates
            if candidates is not None and snapshot.plan is None:
                snapshot.plan = self.program.prepared_plan(
                    relations, index_manager, candidates=candidates
                )
            plan = snapshot.plan
        else:
            if profile is not None:
                profile.prelude = "cold"
            candidates = self.reduce_relations(relations, index_manager, cancel=cancel)
            plan = (
                None
                if candidates is None
                else self.program.prepared_plan(
                    relations, index_manager, candidates=candidates
                )
            )
        if plan is None:
            if profile is not None:
                profile.empty = True
            return None
        if profile is not None:
            profile.record_inputs(self.program.steps, relations, candidates)
        return plan

    def run_frames(
        self,
        relations: Mapping[str, Relation],
        index_manager: IndexManager,
        prelude: "PreludeCache | None" = None,
        profile: JoinProfile | None = None,
        cancel: Callable[[], None] | None = None,
    ) -> Iterator[tuple]:
        """Yield every satisfying frame (same frames as the plain program).

        With a *prelude* cache (built for this very reduced program), the
        reduction prelude is served from — and memoized into — the cache: a
        warm evaluation against unchanged relations skips the passes *and*
        the bucket builds entirely, and a drifted one recomputes only what
        the drift invalidated.  With a *profile*, also records the prelude
        outcome (``hit``/``miss`` under a cache, ``cold`` without one).
        *cancel* checkpoints the prelude passes and every scanned row.
        """
        plan = self.prepared_plan(relations, index_manager, prelude, profile, cancel)
        if plan is None:
            return iter(())
        return self.program.run_plan(plan, cancel=cancel, profile=profile)


def reduce_program(program: JoinProgram) -> ReducedProgram:
    """Analyse *program* and attach its semi-join reduction prelude.

    Pure description, like the program itself: the analysis reads only the
    compiled steps (never the data), so a reduced program stays valid across
    database mutations and rides along with cached plans.  The join tree is
    built over variable slots, with equality-seeded slots treated as
    constants — they pre-filter extensions instead of connecting atoms.
    """
    seed_values = dict(program.seed)
    prefilters_per_step: list[tuple[tuple[int, object], ...]] = []
    sip_per_step: list[tuple[tuple[int, int], ...]] = []
    repeats_per_step: list[tuple[tuple[int, int], ...]] = []
    varsets: list[set[int]] = []
    slot_positions: list[dict[int, int]] = []
    for step in program.steps:
        prefilters: list[tuple[int, object]] = []
        sip_filters: list[tuple[int, int]] = []
        positions: dict[int, int] = {}
        for position, slot, value in zip(
            step.key_positions, step.key_slots, step.key_values
        ):
            if slot is None:
                prefilters.append((position, value))
            elif slot in seed_values:
                prefilters.append((position, seed_values[slot]))
            else:
                sip_filters.append((position, slot))
                positions.setdefault(slot, position)
        write_positions: dict[int, int] = {}
        for position, slot in step.writes:
            write_positions[slot] = position
            positions.setdefault(slot, position)
        repeats = tuple(
            (write_positions[slot], position) for position, slot in step.post_checks
        )
        prefilters_per_step.append(tuple(prefilters))
        sip_per_step.append(tuple(sip_filters))
        repeats_per_step.append(repeats)
        varsets.append(set(positions))
        slot_positions.append(positions)

    consumed = {slot for sip in sip_per_step for _position, slot in sip}
    reductions = tuple(
        StepReduction(
            prefilters=prefilters_per_step[i],
            repeat_pairs=repeats_per_step[i],
            sip_filters=sip_per_step[i],
            exports=tuple(
                (position, slot)
                for position, slot in step.writes
                if slot in consumed
            ),
        )
        for i, step in enumerate(program.steps)
    )

    forest = join_forest(varsets)
    semi_joins: tuple[SemiJoinEdge, ...] = ()
    subtrees: tuple[tuple[int, ...], ...] = ()
    if forest:
        edges = []
        edge_subtrees: list[tuple[int, ...]] = []
        # Removal order visits every child after its whole subtree, so
        # accumulating each ear into its witness yields, per edge, exactly
        # the step set whose candidates the bottom-up projection reads.
        accumulated = {i: {i} for i in range(len(varsets))}
        for child, parent in forest:
            shared = sorted(varsets[child] & varsets[parent])
            # Edges linking disconnected components share no variables: a
            # semi-join over them keeps every row (emptiness already
            # short-circuits in the prelude) while forcing full-relation
            # copies and ephemeral bucket builds — skip them.
            if shared:
                edges.append(
                    SemiJoinEdge(
                        child=child,
                        parent=parent,
                        child_positions=tuple(slot_positions[child][s] for s in shared),
                        parent_positions=tuple(slot_positions[parent][s] for s in shared),
                    )
                )
                edge_subtrees.append(tuple(sorted(accumulated[child])))
            accumulated[parent] |= accumulated[child]
        semi_joins = tuple(edges)
        subtrees = tuple(edge_subtrees)
    return ReducedProgram(
        program=program,
        acyclic=forest is not None,
        semi_joins=semi_joins,
        reductions=reductions,
        subtrees=subtrees,
    )


# ---------------------------------------------------------------------------
# Warm-prelude caching across evaluations
# ---------------------------------------------------------------------------
class _PreludeSnapshot:
    """One materialised prelude outcome, valid for one version vector.

    ``stamps`` pairs every step's relation object with the version it had
    when the candidates were computed; ``candidates`` is the
    :meth:`ReducedProgram.reduce_relations` result (``None`` = no answers).
    ``plan`` caches the prepared execution plan (including the ephemeral
    buckets over reduced rows) lazily, so warm traffic skips the bucket
    builds too.
    """

    __slots__ = ("stamps", "candidates", "plan")

    def __init__(
        self,
        stamps: tuple[tuple[Relation, int], ...],
        candidates: list[list[tuple] | None] | None,
    ) -> None:
        self.stamps = stamps
        self.candidates = candidates
        self.plan: list[tuple] | None = None

    @property
    def empty(self) -> bool:
        """Whether the prelude proved the query has no answers."""
        return self.candidates is None


class PreludeCache:
    """Version-keyed warm state for one :class:`ReducedProgram`.

    The prelude's candidate lists are pure functions of ``(relation
    versions, prefilters, join tree)``, so the cache stamps its snapshot
    with every participating relation's **identity and version** — identity
    because serving-layer relations (materialised views) are replaced
    wholesale on refresh, version because in-place mutations bump
    :attr:`~repro.relational.relation.Relation.version`.  A lookup whose
    stamps all match is a **hit**: the evaluation reuses the candidates and
    the prepared execution plan, paying nothing for the reduction.  A
    drifted lookup is a **miss**, but refreshes precisely:

    * per-step prefilter results are memoized per ``(relation, version)``
      — only steps whose relation drifted recompute their scan;
    * per-edge bottom-up key projections are memoized per child-subtree
      version vector (:attr:`ReducedProgram.subtrees`) — a subtree with no
      drifted relation contributes its previous semi-joined key set.

    The cache holds its reduced program (``reduced``, and the plain program
    as ``reduced.program``) and is owned by whoever compiled it: one per
    rewriting of a :class:`~repro.core.engine.CitationPlan`, so the serving
    layer's plan cache carries warmed state across requests, or one a
    caller builds with :meth:`~repro.query.evaluator.QueryEvaluator.prelude_for`
    and passes to ``evaluate_with_bindings``.  Concurrent refreshes race
    benignly (both compute equivalent snapshots; counters may undercount);
    the usual reader/writer discipline of the in-memory store applies to
    mutations.
    """

    __slots__ = (
        "reduced",
        "metrics",
        "hits",
        "misses",
        "steps_recomputed",
        "steps_reused",
        "_step_memo",
        "_edge_memo",
        "_snapshot",
    )

    def __init__(self, reduced: ReducedProgram, metrics=None) -> None:
        self.reduced = reduced
        #: Optional :class:`repro.query.stats.EvaluationMetrics` sink.
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.steps_recomputed = 0
        self.steps_reused = 0
        self._step_memo: list[tuple[Relation, int, list[tuple] | None] | None] = [
            None
        ] * len(reduced.program.steps)
        self._edge_memo: dict[
            int, tuple[tuple[tuple[Relation, int], ...], AbstractSet[tuple]]
        ] = {}
        self._snapshot: _PreludeSnapshot | None = None

    # -- stamping -----------------------------------------------------------
    def _stamps(
        self, relations: Mapping[str, Relation]
    ) -> tuple[tuple[Relation, int], ...]:
        return tuple(
            (relations[step.predicate], relations[step.predicate].version)
            for step in self.reduced.program.steps
        )

    @staticmethod
    def _current(
        recorded: tuple[tuple[Relation, int], ...],
        stamps: tuple[tuple[Relation, int], ...],
    ) -> bool:
        # Identity compare: tuple == would fall through to Relation.__eq__,
        # a full content comparison.
        return len(recorded) == len(stamps) and all(
            cached is current and cached_version == current_version
            for (cached, cached_version), (current, current_version) in zip(
                recorded, stamps
            )
        )

    def is_warm(self, relations: Mapping[str, Relation]) -> bool:
        """Whether a snapshot for exactly these relation versions is held."""
        snapshot = self._snapshot
        return snapshot is not None and self._current(
            snapshot.stamps, self._stamps(relations)
        )

    # -- the cached prelude -------------------------------------------------
    def refresh(
        self,
        relations: Mapping[str, Relation],
        index_manager: IndexManager,
        cancel: Callable[[], None] | None = None,
    ) -> _PreludeSnapshot:
        """Return a current snapshot, recomputing only what drift invalidated.

        Deliberately re-validates even when the caller just checked
        :meth:`is_warm` (the strategy resolver does): refresh must stay
        self-validating for callers that reach it directly, and the repeated
        stamp comparison is a handful of identity checks.

        *cancel* checkpoints each recomputed prefilter and the reduction
        passes; a warm hit never checks — it does no O(rows) work.
        """
        stamps = self._stamps(relations)
        snapshot = self._snapshot
        if snapshot is not None and self._current(snapshot.stamps, stamps):
            self.hits += 1
            if self.metrics is not None:
                self.metrics.record_prelude(hit=True)
            return snapshot
        self.misses += 1
        reduced = self.reduced

        step_rows: list[list[tuple] | None] = []
        recomputed = reused = 0
        for position, (relation, version) in enumerate(stamps):
            memo = self._step_memo[position]
            if memo is not None and memo[0] is relation and memo[1] == version:
                rows = memo[2]
                reused += 1
            else:
                if cancel is not None:
                    cancel()
                rows = reduced._prefilter_step(position, relation, index_manager)
                self._step_memo[position] = (relation, version, rows)
                recomputed += 1
            step_rows.append(rows)
        self.steps_recomputed += recomputed
        self.steps_reused += reused

        # Seed the bottom-up pass with every edge whose child subtree is
        # undrifted; reduce_relations fills the rest back into the dict.
        edge_keys: dict[int, AbstractSet[tuple]] = {}
        edge_stamps: list[tuple[tuple[Relation, int], ...]] = []
        subtrees = reduced.subtrees
        aligned = len(subtrees) == len(reduced.semi_joins)
        for index in range(len(reduced.semi_joins)):
            sub = (
                tuple(stamps[j] for j in subtrees[index]) if aligned else stamps
            )
            edge_stamps.append(sub)
            memo = self._edge_memo.get(index)
            if memo is not None and self._current(memo[0], sub):
                edge_keys[index] = memo[1]

        candidates = reduced.reduce_relations(
            relations,
            index_manager,
            _step_rows=step_rows,
            _edge_keys=edge_keys,
            cancel=cancel,
        )
        for index, keys in edge_keys.items():
            self._edge_memo[index] = (edge_stamps[index], keys)

        if self.metrics is not None:
            self.metrics.record_prelude(
                hit=False, steps_recomputed=recomputed, steps_reused=reused
            )
        snapshot = _PreludeSnapshot(stamps, candidates)
        self._snapshot = snapshot
        return snapshot

    def invalidate(self) -> None:
        """Drop every memo and snapshot (the next evaluation runs cold)."""
        self._snapshot = None
        self._edge_memo.clear()
        for position in range(len(self._step_memo)):
            self._step_memo[position] = None

    def stats(self) -> dict[str, int | float]:
        """Counters as a plain dict (mirrors the shape of the service caches)."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "steps_recomputed": self.steps_recomputed,
            "steps_reused": self.steps_reused,
            "hit_rate": round(self.hits / lookups, 4) if lookups else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"PreludeCache({self.reduced.program.query.name!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )
