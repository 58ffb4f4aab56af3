"""Per-relation statistics and the cost model behind ``strategy="auto"``.

A blunt cardinality gate for the Yannakakis reduction — reduce whenever
the body extensions total at least some fixed number of rows — is wrong in
both directions: a large, densely joining instance pays the prelude's linear
passes for nothing, and a small instance riddled with dangling tuples is
denied a reduction that would have paid for itself.  ``strategy="auto"``
instead prices the choice with statistics the system already maintains:

* :class:`StatisticsCatalog` — per-relation row counts, per-position
  distinct-key counts and bucket skew, and sampled key-overlap fractions
  between two relations' key projections.  Everything is read straight off
  the :class:`~repro.relational.index.IndexManager`'s hash indexes (the same
  indexes the join probes and the semi-join passes use, so nothing is built
  twice) and stamped with the source relation's identity and
  :attr:`~repro.relational.relation.Relation.version`, so entries refresh
  lazily exactly when the data drifts.  The cost model consumes the row,
  distinct and overlap statistics; bucket skew is computed lazily and today
  serves introspection only — folding it (and the measured actual-vs-
  estimated timings) into the model's constants is a recorded ROADMAP
  follow-on;
* :class:`CostModel` — prices one :class:`~repro.query.compiler.ReducedProgram`
  against its plain :class:`~repro.query.compiler.JoinProgram`.  The plain
  cost is a frontier model: partial bindings flow through the compiled step
  order, each bound-position probe costs one unit, and probe **hit rates**
  come from the key overlap along join-tree edges whose partner step runs
  earlier.  The reduced cost adds the prelude's linear passes and shrinks
  each step's extension by its **lookahead survival** — the overlap along
  edges whose partner runs *later*, which is exactly the dangling fraction
  the semi-joins prune before the join enumerates it.  Pruning aligned with
  the probe key (the partner that *feeds* the probe) is deliberately not
  counted as a saving: removing rows no probe would ever have touched makes
  the join no cheaper;
* :class:`EvaluationMetrics` — thread-safe counters for strategy picks,
  cost-model estimates vs. measured evaluation times, and prelude-cache
  hit/miss/recompute rates, surfaced through
  :meth:`~repro.service.service.CitationService.stats` and the CLI
  ``--stats`` output.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from dataclasses import dataclass
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

from repro.concurrency import shared_state
from repro.relational.relation import Relation

if TYPE_CHECKING:  # import cycle: compiler imports nothing from here, but keep lazy
    from repro.query.compiler import ReducedProgram
    from repro.relational.index import IndexManager

__all__ = [
    "RelationStatistics",
    "StatisticsCatalog",
    "CostEstimate",
    "CostModel",
    "EvaluationMetrics",
]


class RelationStatistics:
    """Statistics of one relation instance, valid for one version.

    ``row_count`` is read eagerly; distinct-key counts and bucket maxima are
    filled lazily per position tuple by the owning :class:`StatisticsCatalog`
    (they cost an index build or a scan the first time).  The catalog drops
    the whole object when the relation's identity or version changes.
    """

    __slots__ = ("name", "relation", "version", "row_count", "distinct", "max_bucket")

    def __init__(self, name: str, relation: Relation) -> None:
        self.name = name
        self.relation = relation
        self.version = relation.version
        self.row_count = len(relation)
        self.distinct: dict[tuple[int, ...], int] = {}
        self.max_bucket: dict[tuple[int, ...], int] = {}

    def skew(self, positions: tuple[int, ...]) -> float:
        """Largest bucket over mean bucket for *positions* (1.0 = uniform)."""
        d = self.distinct.get(positions)
        biggest = self.max_bucket.get(positions)
        if not d or not biggest or not self.row_count:
            return 1.0
        return biggest / (self.row_count / d)

    def __repr__(self) -> str:
        return (
            f"RelationStatistics({self.name}, rows={self.row_count}, "
            f"version={self.version})"
        )


#: One side of an overlap query: ``(name, relation, key positions)``.
KeySide = tuple[str, Relation, tuple[int, ...]]


class StatisticsCatalog:
    """Version-stamped statistics over the relations a query touches.

    Reads go through the shared :class:`~repro.relational.index.IndexManager`
    when one is supplied — distinct counts are the indexes' key counts, and
    overlap estimates probe one index's key set with a sample of the other's
    — so the statistics reuse (and warm) the very indexes the join executes
    with.  Without a manager the catalog falls back to projection scans.

    Entries are stamped ``(relation identity, relation version)`` and refresh
    lazily: a lookup that finds a drifted stamp recomputes, so the catalog
    never needs an explicit notification channel.  :meth:`invalidate` remains
    for forced cache invalidation (:meth:`CitationEngine.invalidate_caches`).

    The catalog may be shared by concurrent readers: entry replacement is a
    single dict store and racing builders produce equivalent entries.
    """

    #: How many keys of one side are probed against the other side to
    #: estimate overlap.  Samples are deterministic (first keys in index
    #: order), which keeps strategy decisions reproducible.
    SAMPLE_SIZE = 64

    def __init__(self, index_manager: "IndexManager | None" = None) -> None:
        self._index_manager = index_manager
        self._stats: dict[str, RelationStatistics] = {}
        self._overlaps: dict[
            tuple[str, tuple[int, ...], str, tuple[int, ...]],
            tuple[Relation, int, Relation, int, tuple[float, float]],
        ] = {}

    # -- per-relation statistics -------------------------------------------
    def statistics(self, name: str, relation: Relation) -> RelationStatistics:
        """The current statistics of *relation* (refreshed on version drift)."""
        stats = self._stats.get(name)
        if (
            stats is None
            or stats.relation is not relation
            or stats.version != relation.version
        ):
            stats = RelationStatistics(name, relation)
            self._stats[name] = stats
        return stats

    def _key_set(self, name: str, relation: Relation, positions: tuple[int, ...]):
        if self._index_manager is not None:
            return self._index_manager.index_for(name, relation, positions).key_set()
        return relation.project_positions(positions)

    def distinct_count(
        self, name: str, relation: Relation, positions: Iterable[int]
    ) -> int:
        """Distinct keys of *relation* projected onto *positions* (cached)."""
        positions = tuple(positions)
        stats = self.statistics(name, relation)
        count = stats.distinct.get(positions)
        if count is None:
            if self._index_manager is not None:
                index = self._index_manager.index_for(name, relation, positions)
                count = index.distinct_count()
            else:
                count = relation.distinct_count(positions)
            stats.distinct[positions] = count
        return count

    def max_bucket(
        self, name: str, relation: Relation, positions: Iterable[int]
    ) -> int:
        """Largest group of rows sharing one key on *positions* (cached)."""
        positions = tuple(positions)
        stats = self.statistics(name, relation)
        biggest = stats.max_bucket.get(positions)
        if biggest is None:
            if self._index_manager is not None:
                index = self._index_manager.index_for(name, relation, positions)
                stats.distinct[positions] = index.distinct_count()
                biggest = index.max_bucket_size()
            else:
                counts = Counter(
                    tuple(row[i] for i in positions) for row in relation
                )
                biggest = max(counts.values(), default=0)
            stats.max_bucket[positions] = biggest
        return biggest

    # -- cross-relation overlap --------------------------------------------
    def key_overlap(self, left: KeySide, right: KeySide) -> tuple[float, float]:
        """Sampled key-containment fractions between two key projections.

        Returns ``(fraction of left's distinct keys present in right's,
        fraction of right's distinct keys present in left's)``.  An empty
        side contributes 0.0 — its joins are empty anyway.  Cached per
        ``(names, positions)`` and stamped with both relations' versions.
        """
        name_l, rel_l, pos_l = left[0], left[1], tuple(left[2])
        name_r, rel_r, pos_r = right[0], right[1], tuple(right[2])
        cache_key = (name_l, pos_l, name_r, pos_r)
        entry = self._overlaps.get(cache_key)
        if entry is not None:
            s_l, v_l, s_r, v_r, fractions = entry
            if (
                s_l is rel_l
                and v_l == rel_l.version
                and s_r is rel_r
                and v_r == rel_r.version
            ):
                return fractions
        keys_l = self._key_set(name_l, rel_l, pos_l)
        keys_r = self._key_set(name_r, rel_r, pos_r)
        fractions = (
            self._containment(keys_l, keys_r),
            self._containment(keys_r, keys_l),
        )
        self._overlaps[cache_key] = (
            rel_l, rel_l.version, rel_r, rel_r.version, fractions,
        )
        return fractions

    @classmethod
    def _containment(cls, keys, other) -> float:
        """Estimated fraction of *keys* present in *other* (sampled)."""
        if not keys:
            return 0.0
        if not other:
            return 0.0
        sample = list(itertools.islice(iter(keys), cls.SAMPLE_SIZE))
        found = sum(1 for key in sample if key in other)
        return found / len(sample)

    # -- maintenance --------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached statistic (they rebuild lazily on next use)."""
        self._stats.clear()
        self._overlaps.clear()

    def __len__(self) -> int:
        return len(self._stats)


@dataclass(frozen=True)
class CostEstimate:
    """The cost model's verdict for one reduced program on one instance.

    Costs are unitless work estimates (probes + scanned rows); only their
    comparison matters.  ``survival`` is the per-step fraction of rows the
    full reduction is expected to keep (both semi-join directions applied).
    ``frames`` is the expected number of result frames: the plain
    traversal's final frontier (both executors emit the same frames).
    """

    program_cost: float
    reduced_cost: float
    prelude_cost: float
    survival: tuple[float, ...]
    frames: float

    @property
    def prefers_reduction(self) -> bool:
        """Whether the prelude's pruning is expected to pay for itself."""
        return self.reduced_cost < self.program_cost

    @property
    def strategy(self) -> str:
        return "reduced" if self.prefers_reduction else "program"

    def as_dict(self) -> dict[str, object]:
        return {
            "strategy": self.strategy,
            "program_cost": round(self.program_cost, 2),
            "reduced_cost": round(self.reduced_cost, 2),
            "prelude_cost": round(self.prelude_cost, 2),
            "survival": [round(s, 4) for s in self.survival],
            "frames": round(self.frames, 2),
        }


class CostModel:
    """Estimates whether a semi-join prelude beats the plain join program.

    The decision compares two frontier traversals of the compiled step order
    (see the module docstring for the model):

    * **plain**: each step multiplies the frontier by its expected matches
      per probe (``rows / distinct keys``) times the probe **hit rate** —
      the sampled overlap along join-tree edges whose partner step runs
      earlier;
    * **reduced**: the same traversal with every step's extension scaled by
      its **lookahead survival** (overlap along edges whose partner runs
      later), plus the prelude's linear passes over every edge-touched step
      and the ephemeral bucket build over its survivors.

    A fully joining instance has every overlap at 1.0, so the reduced cost
    is exactly the plain cost plus the prelude — the model never reduces
    densely joining data, at any size.  A dangling-heavy instance shrinks
    the lookahead factors and the reduction wins as soon as the avoided
    enumeration outweighs the linear passes — including far below a
    4096-row cardinality gate.
    """

    #: Work per input row of the bottom-up + top-down semi-join passes.
    PRELUDE_PASS_COST = 2.0
    #: Work per *surviving* row for the ephemeral per-step bucket build.
    BUCKET_BUILD_COST = 1.0

    def __init__(self, statistics: StatisticsCatalog) -> None:
        self.statistics = statistics

    def estimate(
        self, reduced: "ReducedProgram", relations: Mapping[str, Relation]
    ) -> CostEstimate:
        """Price *reduced* against its plain program on *relations*."""
        steps = reduced.program.steps
        counts = [len(relations[step.predicate]) for step in steps]
        hits = [1.0] * len(steps)       # probe hit rate, plain program
        lookahead = [1.0] * len(steps)  # pruning not aligned with the probe
        survival = [1.0] * len(steps)   # full two-directional pruning
        touched: set[int] = set()
        for edge in reduced.semi_joins:
            child_step, parent_step = steps[edge.child], steps[edge.parent]
            child_side: KeySide = (
                child_step.predicate,
                relations[child_step.predicate],
                edge.child_positions,
            )
            parent_side: KeySide = (
                parent_step.predicate,
                relations[parent_step.predicate],
                edge.parent_positions,
            )
            child_in_parent, parent_in_child = self.statistics.key_overlap(
                child_side, parent_side
            )
            survival[edge.child] *= child_in_parent
            survival[edge.parent] *= parent_in_child
            touched.add(edge.child)
            touched.add(edge.parent)
            if edge.child < edge.parent:  # step order == index order
                lookahead[edge.child] *= child_in_parent
                hits[edge.parent] *= child_in_parent
            else:
                lookahead[edge.parent] *= parent_in_child
                hits[edge.child] *= parent_in_child

        ones = [1.0] * len(steps)
        program_cost, frames = self._join_cost(reduced, relations, counts, ones, hits)
        prelude_cost = sum(
            counts[i] * self.PRELUDE_PASS_COST
            + counts[i] * survival[i] * self.BUCKET_BUILD_COST
            for i in touched
        )
        reduced_join_cost, _frames = self._join_cost(
            reduced, relations, counts, lookahead, hits
        )
        return CostEstimate(
            program_cost=program_cost,
            reduced_cost=prelude_cost + reduced_join_cost,
            prelude_cost=prelude_cost,
            survival=tuple(survival),
            frames=frames,
        )

    def _join_cost(
        self,
        reduced: "ReducedProgram",
        relations: Mapping[str, Relation],
        counts: list[int],
        scales: list[float],
        hits: list[float],
    ) -> tuple[float, float]:
        """Frontier traversal of the step order; returns the total probe/scan
        work and the final frontier (the frames the join yields)."""
        frontier = 1.0
        cost = 0.0
        for i, step in enumerate(reduced.program.steps):
            effective = counts[i] * scales[i]
            if step.key_positions:
                cost += frontier
                d = self.statistics.distinct_count(
                    step.predicate, relations[step.predicate], step.key_positions
                )
                frontier *= (effective / max(d, 1)) * hits[i]
            else:
                cost += frontier * effective
                frontier *= effective
        return cost, frontier


@shared_state(
    "_picks", "_reasons", "_estimates", "_estimated_cost",
    "_actuals", "_prelude", "_by_query",
    lock="_lock",
)
class EvaluationMetrics:
    """Thread-safe counters describing the evaluator's strategy machinery.

    Records three families of events: which executor ran and why
    (``picks`` / ``pick_reasons``), what the cost model predicted vs. what
    evaluation actually took (``cost_model``), and how the warm-prelude
    cache behaved (``prelude_cache``).  A :class:`~repro.core.engine.CitationEngine`
    owns one instance and threads it into every evaluator it builds; the
    serving layer registers :meth:`snapshot` as a gauge source so the whole
    block appears in :meth:`CitationService.stats` and the CLI ``--stats``.

    On top of the global aggregates, :meth:`record_evaluation` accumulates
    estimate-vs-actual pairs **per query fingerprint** (the serving layer
    scopes the fingerprint via
    :func:`repro.observability.context.fingerprint_scope`); the per-query
    measured costs are the data source the adaptive cost-model follow-on
    needs to recalibrate its constants against real timings.
    """

    #: FIFO bound on per-fingerprint estimate-vs-actual entries: the service
    #: outlives requests, so ad-hoc query traffic must not grow the map
    #: without bound.  Evicted fingerprints simply start a fresh entry if
    #: they reappear.
    MAX_TRACKED_QUERIES = 256

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reset_locked()

    def _reset_locked(self) -> None:
        self._picks = {"program": 0, "reduced": 0}
        self._reasons: dict[str, int] = {}
        self._estimates = 0
        self._estimated_cost = {"program": 0.0, "reduced": 0.0}
        # Per executor kind: [evaluation count, total seconds].
        self._actuals: dict[str, list[float]] = {
            "program": [0, 0.0],
            "reduced": [0, 0.0],
        }
        self._prelude = {
            "hits": 0,
            "misses": 0,
            "steps_recomputed": 0,
            "steps_reused": 0,
        }
        # fingerprint -> {"kinds": {kind: [count, total_s]},
        #                 "estimates": int,
        #                 "estimated_cost": {"program": total, "reduced": total}}
        self._by_query: dict[str, dict] = {}

    # -- recording -----------------------------------------------------------
    def record_pick(self, kind: str, reason: str) -> None:
        """Count one strategy resolution (*kind* executor, picked *reason*)."""
        with self._lock:
            self._picks[kind] = self._picks.get(kind, 0) + 1
            self._reasons[reason] = self._reasons.get(reason, 0) + 1

    def record_estimate(self, estimate: CostEstimate) -> None:
        """Fold one cost-model estimate into the running aggregates."""
        with self._lock:
            self._estimates += 1
            self._estimated_cost["program"] += estimate.program_cost
            self._estimated_cost["reduced"] += estimate.reduced_cost

    def record_actual(self, kind: str, seconds: float) -> None:
        """Record the measured duration of one evaluation by executor kind."""
        with self._lock:
            bucket = self._actuals.setdefault(kind, [0, 0.0])
            bucket[0] += 1
            bucket[1] += seconds

    def record_prelude(
        self, hit: bool, steps_recomputed: int = 0, steps_reused: int = 0
    ) -> None:
        """Count one prelude-cache lookup (and, on a miss, its refresh work)."""
        with self._lock:
            self._prelude["hits" if hit else "misses"] += 1
            self._prelude["steps_recomputed"] += steps_recomputed
            self._prelude["steps_reused"] += steps_reused

    def record_evaluation(
        self,
        fingerprint: str,
        kind: str,
        seconds: float,
        estimate: "CostEstimate | None" = None,
    ) -> None:
        """Attribute one measured evaluation (and its estimate) to a query.

        *fingerprint* is the request's structural fingerprint; repeated
        evaluations of structurally identical queries accumulate into one
        entry, so :meth:`query_profiles` exposes per-query mean estimated
        cost next to per-query mean measured milliseconds.
        """
        with self._lock:
            entry = self._by_query.get(fingerprint)
            if entry is None:
                entry = {
                    "kinds": {},
                    "estimates": 0,
                    "estimated_cost": {"program": 0.0, "reduced": 0.0},
                }
                self._by_query[fingerprint] = entry
                while len(self._by_query) > self.MAX_TRACKED_QUERIES:
                    self._by_query.pop(next(iter(self._by_query)))
            bucket = entry["kinds"].setdefault(kind, [0, 0.0])
            bucket[0] += 1
            bucket[1] += seconds
            if estimate is not None:
                entry["estimates"] += 1
                entry["estimated_cost"]["program"] += estimate.program_cost
                entry["estimated_cost"]["reduced"] += estimate.reduced_cost

    # -- reading -------------------------------------------------------------
    def query_profiles(self) -> dict[str, dict]:
        """Per-fingerprint estimate-vs-actual aggregates (JSON-friendly).

        Each entry carries the per-executor-kind measured mean milliseconds
        and, when estimates were recorded, the mean estimated cost — the raw
        material for calibrating the cost model against this deployment's
        actual timings.
        """
        with self._lock:
            tracked = {
                fingerprint: {
                    "kinds": {k: list(v) for k, v in entry["kinds"].items()},
                    "estimates": entry["estimates"],
                    "estimated_cost": dict(entry["estimated_cost"]),
                }
                for fingerprint, entry in self._by_query.items()
            }
        profiles: dict[str, dict] = {}
        for fingerprint, entry in tracked.items():
            estimates = entry["estimates"]
            profiles[fingerprint] = {
                "evaluations": sum(c for c, _ in entry["kinds"].values()),
                "actual_ms": {
                    kind: {
                        "count": int(count),
                        "mean_ms": round(total * 1000.0 / count, 4) if count else 0.0,
                    }
                    for kind, (count, total) in entry["kinds"].items()
                },
                "estimates": estimates,
                "mean_estimated_cost": {
                    kind: round(total / estimates, 2) if estimates else 0.0
                    for kind, total in entry["estimated_cost"].items()
                },
            }
        return profiles

    def snapshot(self) -> dict:
        """A JSON-friendly snapshot of every counter and aggregate."""
        with self._lock:
            picks = dict(self._picks)
            reasons = dict(sorted(self._reasons.items()))
            estimates = self._estimates
            estimated = dict(self._estimated_cost)
            actuals = {k: list(v) for k, v in self._actuals.items()}
            prelude = dict(self._prelude)
            tracked_queries = len(self._by_query)
        lookups = prelude["hits"] + prelude["misses"]
        prelude["hit_rate"] = round(prelude["hits"] / lookups, 4) if lookups else 0.0
        return {
            "picks": picks,
            "pick_reasons": reasons,
            "cost_model": {
                "estimates": estimates,
                "mean_estimated_cost": {
                    kind: round(total / estimates, 2) if estimates else 0.0
                    for kind, total in estimated.items()
                },
                "mean_actual_ms": {
                    kind: round(total * 1000.0 / count, 4) if count else 0.0
                    for kind, (count, total) in actuals.items()
                },
                "actual_ms": {
                    kind: {
                        "count": int(count),
                        "mean_ms": round(total * 1000.0 / count, 4) if count else 0.0,
                    }
                    for kind, (count, total) in actuals.items()
                },
                "tracked_queries": tracked_queries,
            },
            "prelude_cache": prelude,
            # Read by perfbench/run.py::counters; every evaluation is serial.
            "sharding": {"parallel": 0, "serial": sum(picks.values())},
        }

    def reset(self) -> None:
        """Zero every counter and aggregate."""
        with self._lock:
            self._reset_locked()
