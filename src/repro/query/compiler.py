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
then runs the plan, counting per-step work only when handed a
:class:`JoinProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterator, Mapping, Sequence

from repro.errors import QueryError
from repro.query.ast import Atom, ConjunctiveQuery, Constant, Variable
from repro.resilience.deadline import CHECK_STRIDE
from repro.relational.index import IndexManager
from repro.relational.relation import Relation

__all__ = [
    "JoinStep",
    "JoinProfile",
    "JoinProgram",
    "compile_query",
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
    join order), ``relation_rows``: the step's full extension size.  Running
    the plan with the profile (:meth:`JoinProgram.run_plan`) adds:

    * ``rows_scanned`` — rows iterated at that depth, summed over every
      entry into the depth (index probes touch only matching rows);
    * ``frames_out`` — partial frames that survived the step's checks, i.e.
      entries into the next depth.

    ``results`` counts yielded frames.  The join loop counts once per entry
    into a depth, never per scanned row, so an unprofiled run pays only a
    ``None`` test or two per entry.
    """

    __slots__ = ("relation_rows", "rows_scanned", "frames_out", "results")

    def __init__(self, step_count: int) -> None:
        self.relation_rows = [0] * step_count
        self.rows_scanned = [0] * step_count
        self.frames_out = [0] * step_count
        self.results = 0


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
    ) -> list[tuple]:
        """Resolve every step's row source for :meth:`run_plan`.

        One ``(step, kind, source, key_pairs)`` entry per step: ``"all"``
        iterates the step's relation directly, ``"map"`` probes the shared
        hash index on the step's bound positions with the key read through
        ``key_pairs``.

        Every index is resolved here, so running the plan touches neither
        the index manager nor the relations.  With a *profile*, records the
        per-step input sizes.
        """
        plan = []
        for position, step in enumerate(self.steps):
            relation = relations[step.predicate]
            if profile is not None:
                profile.relation_rows[position] = len(relation)
            key_pairs = tuple(zip(step.key_slots, step.key_values))
            if step.key_positions:
                index = index_manager.index_for(
                    step.predicate, relation, step.key_positions
                )
                plan.append((step, "map", index, key_pairs))
            else:
                plan.append((step, "all", relation, key_pairs))
        return plan

    def run_plan(
        self,
        plan: Sequence[tuple],
        cancel: Callable[[], None] | None = None,
        profile: JoinProfile | None = None,
    ) -> Iterator[tuple]:
        """Run the nested-loop join over a prepared *plan*; yield every
        satisfying frame (tuple of slot values, aligned with :attr:`variables`).

        The plan comes from :meth:`prepared_plan`.

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
