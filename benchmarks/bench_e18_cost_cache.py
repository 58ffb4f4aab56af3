"""E18 — statistics-driven cost model + version-keyed prelude cache.

The semi-join reduction (E17) would tax the serving hot path twice if left
alone: every evaluation would re-run the full reduction prelude even when
nothing had changed, and a blunt 4096-row cardinality gate on the reduction
is wrong in both directions.  This experiment gates the two fixes:

1. **Warm traffic skips the reduction.**  On a wide acyclic citation view
   (four-atom chain, dangling tuples everywhere, ~8 reference keys carrying
   all the answers) a warm re-evaluation through a held
   :class:`PreludeCache` — snapshot current, candidates and prepared
   buckets reused — must be at least **5x** faster than a cold reduced
   evaluation that runs the bottom-up/top-down passes.  Drifting one
   relation refreshes partially: only the drifted step re-prefilters.

2. **The cost model out-decides a fixed 4096-row gate**, pinned in both
   directions: a dense fully joining instance *above* 4096 rows must run
   the plain program, and a sparse dangling-heavy instance *below* it must
   reduce — and each pick must win on the clock.

Smoke mode (``REPRO_BENCH_SMOKE=1``, set by CI) shrinks the instances so the
experiment stays a quick regression gate.  Machine-readable results land in
``BENCH_e18.json`` (see :func:`benchmarks.conftest.record_json`) and are
uploaded as a CI artifact to track the perf trajectory across PRs.
"""

from __future__ import annotations

import os
import random
import time

from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema
from benchmarks.conftest import record_json, report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROWS = 1500 if SMOKE else 4000
FANOUT = 2
SURVIVOR_KEYS = 8  # reference keys that actually join: answers stay small
ROUNDS = 3 if SMOKE else 5
WARM_SPEEDUP_GATE = 5.0

SCHEMA = DatabaseSchema(
    [
        RelationSchema("Family", [Attribute("FID", int), Attribute("FamKey", int)]),
        RelationSchema("Target", [Attribute("FamKey", int), Attribute("TargKey", int)]),
        RelationSchema(
            "Interaction", [Attribute("TargKey", int), Attribute("LigKey", int)]
        ),
        RelationSchema("LigandRef", [Attribute("LigKey", int), Attribute("Ref", int)]),
    ]
)

WIDE_VIEW = parse_query(
    "W(FID, FamKey, TargKey, LigKey, Ref) :- Family(FID, FamKey), "
    "Target(FamKey, TargKey), Interaction(TargKey, LigKey), LigandRef(LigKey, Ref)"
)

RELATIONS = ("Family", "Target", "Interaction", "LigandRef")


def _dangling_instance(rows: int = ROWS, seed: int = 17) -> Database:
    """Chain relations where only ~SURVIVOR_KEYS reference keys ever join.

    Join keys are drawn from a domain of ``rows // FANOUT`` values; ligand
    keys in ``LigandRef`` mostly come from a disjoint range, so the prelude
    prunes almost everything and the answer set stays small — exactly the
    shape where re-running the prelude per evaluation is pure tax.
    """
    rng = random.Random(seed)
    domain = rows // FANOUT
    database = Database(SCHEMA)
    database.insert_many("Family", ((i, rng.randrange(domain)) for i in range(rows)))
    database.insert_many(
        "Target", ((rng.randrange(domain), rng.randrange(domain)) for _ in range(rows))
    )
    database.insert_many(
        "Interaction",
        ((rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)),
    )
    database.insert_many(
        "LigandRef",
        (
            (
                rng.randrange(SURVIVOR_KEYS)
                if rng.random() < SURVIVOR_KEYS / domain
                else domain + rng.randrange(domain),
                i,
            )
            for i in range(rows)
        ),
    )
    return database


def _dense_instance(rows: int) -> Database:
    """Fully joining unique-key chain: nothing dangles, the prelude is pure
    overhead at any size."""
    database = Database(SCHEMA)
    for name in RELATIONS:
        database.insert_many(name, ((i, i) for i in range(rows)))
    return database


def _sparse_instance(rows: int, seed: int = 23, fanout: int = 8) -> Database:
    """A small dangling-heavy chain with high fan-out.

    Fan-out ~8 per join step and a last relation whose keys are ~99%
    disjoint: the plain program enumerates a large frontier of partial
    bindings that die at the final probe, so the prelude pays for itself
    even though the instance sits far below 4096 rows.
    """
    rng = random.Random(seed)
    domain = rows // fanout
    database = Database(SCHEMA)
    database.insert_many("Family", ((i, rng.randrange(domain)) for i in range(rows)))
    database.insert_many(
        "Target", ((rng.randrange(domain), rng.randrange(domain)) for _ in range(rows))
    )
    database.insert_many(
        "Interaction",
        ((rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)),
    )
    survivors = max(1, domain // 100)
    database.insert_many(
        "LigandRef",
        (
            (
                rng.randrange(survivors)
                if rng.random() < 0.01
                else domain + rng.randrange(domain),
                i,
            )
            for i in range(rows)
        ),
    )
    return database


def _best_of(callable_, rounds: int = ROUNDS):
    best = float("inf")
    value = None
    for _ in range(rounds):
        started = time.perf_counter()
        value = callable_()
        best = min(best, time.perf_counter() - started)
    return value, best


def test_e18_warm_prelude_skips_the_reduction():
    database = _dangling_instance()
    evaluator = QueryEvaluator(database, strategy="reduced")

    # Compile the program and its reduction once, and warm the shared hash
    # indexes — the comparison is prelude-cold vs. prelude-warm, not
    # compile-cold vs. everything-warm.
    reduced = evaluator.reduce(WIDE_VIEW)
    prelude = evaluator.prelude_for(WIDE_VIEW, reduced)
    reference = set(evaluator.evaluate_with_bindings(WIDE_VIEW, prelude=prelude))
    assert reference == QueryEvaluator(database, strategy="program").evaluate(
        WIDE_VIEW
    ).rows, "strategies diverged"

    def cold():
        fresh = evaluator.prelude_for(WIDE_VIEW, reduced)
        return set(evaluator.evaluate_with_bindings(WIDE_VIEW, prelude=fresh))

    def warm():
        return set(evaluator.evaluate_with_bindings(WIDE_VIEW, prelude=prelude))

    cold_rows, cold_time = _best_of(cold)
    warm_rows, warm_time = _best_of(warm)
    assert warm_rows == cold_rows == reference
    speedup = cold_time / warm_time if warm_time else float("inf")
    assert prelude.hits >= ROUNDS  # the warm rounds never re-reduced

    # Drift one relation: the refresh must reuse the three untouched steps.
    recomputed_before = prelude.steps_recomputed
    reused_before = prelude.steps_reused
    database.insert("Family", (10_000_000, 0))
    _rows, drift_time = _best_of(warm, 1)
    assert prelude.steps_recomputed == recomputed_before + 1
    assert prelude.steps_reused == reused_before + 3

    rows = [
        {
            "op": "warm_vs_cold_reduced",
            "relation_rows": ROWS,
            "answers": len(reference),
            "cold_ms": round(cold_time * 1000, 3),
            "warm_ms": round(warm_time * 1000, 3),
            "partial_refresh_ms": round(drift_time * 1000, 3),
            "speedup": round(speedup, 1),
        }
    ]
    report("E18: warm prelude vs cold reduction on the wide acyclic view", rows)
    record_json("e18", rows, warm_speedup_gate=WARM_SPEEDUP_GATE)
    assert speedup >= WARM_SPEEDUP_GATE, (
        f"expected warm re-evaluation to be >= {WARM_SPEEDUP_GATE}x faster than "
        f"cold reduced evaluation, got {speedup:.2f}x"
    )


def test_e18_cost_model_beats_the_fixed_threshold():
    dense_rows = 1200 if SMOKE else 2000
    sparse_rows = 500
    dense = _dense_instance(dense_rows)
    sparse = _sparse_instance(sparse_rows)
    # The two size classes a fixed 4096-row gate misjudges.
    assert dense.total_rows() >= 4096
    assert sparse.total_rows() < 4096

    picks = {
        "dense_cost": QueryEvaluator(dense).select_strategy(WIDE_VIEW),
        "sparse_cost": QueryEvaluator(sparse).select_strategy(WIDE_VIEW),
    }

    # Both pick-directions a fixed gate gets wrong, pinned:
    assert picks["dense_cost"] == "program", picks
    assert picks["sparse_cost"] == "reduced", picks

    # The picks must also be the right call on the clock.
    _r, dense_program = _best_of(
        lambda: QueryEvaluator(dense, strategy="program").evaluate(WIDE_VIEW), 1
    )
    _r, dense_reduced = _best_of(
        lambda: QueryEvaluator(dense, strategy="reduced").evaluate(WIDE_VIEW), 1
    )
    _r, sparse_program = _best_of(
        lambda: QueryEvaluator(sparse, strategy="program").evaluate(WIDE_VIEW), 1
    )
    _r, sparse_reduced = _best_of(
        lambda: QueryEvaluator(sparse, strategy="reduced").evaluate(WIDE_VIEW), 1
    )
    assert dense_program < dense_reduced, "program should win on dense data"

    rows = [
        {
            "op": "cost_model_pick",
            "instance": "dense_fully_joining",
            "total_rows": dense.total_rows(),
            "cost_pick": picks["dense_cost"],
            "program_ms": round(dense_program * 1000, 2),
            "reduced_ms": round(dense_reduced * 1000, 2),
        },
        {
            "op": "cost_model_pick",
            "instance": "sparse_dangling_heavy",
            "total_rows": sparse.total_rows(),
            "cost_pick": picks["sparse_cost"],
            "program_ms": round(sparse_program * 1000, 2),
            "reduced_ms": round(sparse_reduced * 1000, 2),
        },
    ]
    report("E18: cost-model picks on both sides of a 4096-row gate", rows)
    record_json("e18", rows)


def test_e18_service_traffic_rides_the_warm_prelude():
    """End to end: repeated serving traffic leaves hit-rate evidence."""
    from repro.core.spec import default_views_for_schema
    from repro import CitationEngine, CitationRequest, CitationService

    database = _dangling_instance(600 if SMOKE else 1500, seed=31)
    views = default_views_for_schema(SCHEMA)
    engine = CitationEngine(database, views, strategy="reduced")
    query = (
        "Q(FID, Ref) :- Family(FID, FamKey), Target(FamKey, TargKey), "
        "Interaction(TargKey, LigKey), LigandRef(LigKey, Ref)"
    )
    with CitationService(engine, cache_results=False) as service:
        for _ in range(4):
            service.submit(CitationRequest(query=query)).unwrap()
        snapshot = service.stats()["evaluation"]
    prelude = snapshot["prelude_cache"]
    assert prelude["hits"] >= 3, snapshot
    rows = [
        {
            "op": "service_prelude_hit_rate",
            "requests": 4,
            "prelude_hits": prelude["hits"],
            "prelude_misses": prelude["misses"],
            "hit_rate": prelude["hit_rate"],
        }
    ]
    report("E18: serving traffic prelude hit rate", rows)
    record_json("e18", rows)
