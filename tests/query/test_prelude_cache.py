"""Unit tests for the version-keyed warm-prelude cache.

Pins the precise-invalidation contract of
:class:`~repro.query.compiler.PreludeCache`: unchanged data is a full hit
(candidates *and* the prepared execution plan reused, no semi-join pass
runs), and after drift only the steps whose relation actually changed
recompute their prefilter, while bottom-up key projections of untouched
subtrees are reused by object identity.

The evaluator caches nothing per query, so every test holds its prelude
itself, as a compiled :class:`~repro.core.engine.CitationPlan` does, and
hands it to ``evaluate_with_bindings``.
"""

import pytest

from strategies import brute_force

from repro.query.compiler import PreludeCache
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

SCHEMA = DatabaseSchema(
    [
        RelationSchema("R", [Attribute("a", int), Attribute("b", int)]),
        RelationSchema("S", [Attribute("a", int), Attribute("b", int)]),
        RelationSchema("T", [Attribute("a", int), Attribute("b", int)]),
    ]
)

PATH = parse_query("Q(A, D) :- R(A, B), S(B, C), T(C, D)")
SELF_JOIN = parse_query("Q(X, Z) :- R(X, Y), R(Y, Z)")
VIEW_PATH = parse_query("Q(A, C) :- R(A, B), V(B, C)")

V_SCHEMA = RelationSchema("V", [Attribute("a", int), Attribute("b", int)])


@pytest.fixture
def db():
    database = Database(SCHEMA)
    for name in ("R", "S", "T"):
        database.insert_many(name, [(i % 4, (i + 1) % 4) for i in range(8)])
    database.insert("R", (7, 9))  # dangling
    return database


def _held(evaluator, query) -> PreludeCache:
    """A cold prelude over *query*'s reduction, held by the caller."""
    return evaluator.prelude_for(query, evaluator.reduce(query))


def _rows(evaluator, query, prelude) -> set[tuple]:
    return set(evaluator.evaluate_with_bindings(query, prelude=prelude))


class TestWarmHits:
    def test_second_evaluation_is_a_hit(self, db):
        evaluator = QueryEvaluator(db, strategy="reduced")
        prelude = _held(evaluator, PATH)
        first = _rows(evaluator, PATH, prelude)
        assert (prelude.hits, prelude.misses) == (0, 1)
        assert _rows(evaluator, PATH, prelude) == first
        assert (prelude.hits, prelude.misses) == (1, 1)
        assert prelude.is_warm({name: db.relation(name) for name in ("R", "S", "T")})

    def test_warm_hits_reuse_the_prepared_execution_plan(self, db):
        evaluator = QueryEvaluator(db, strategy="reduced")
        prelude = _held(evaluator, PATH)
        _rows(evaluator, PATH, prelude)
        snapshot = prelude._snapshot
        _rows(evaluator, PATH, prelude)
        assert prelude._snapshot.plan is not None and prelude._snapshot is snapshot

    def test_cold_cache_counts_every_step_once(self, db):
        evaluator = QueryEvaluator(db, strategy="reduced")
        prelude = _held(evaluator, PATH)
        _rows(evaluator, PATH, prelude)
        assert prelude.steps_recomputed == 3
        assert prelude.steps_reused == 0

    def test_stats_shape(self, db):
        evaluator = QueryEvaluator(db, strategy="reduced")
        prelude = _held(evaluator, PATH)
        _rows(evaluator, PATH, prelude)
        _rows(evaluator, PATH, prelude)
        stats = prelude.stats()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "steps_recomputed": 3,
            "steps_reused": 0,
            "hit_rate": 0.5,
        }


class TestPreciseInvalidation:
    def test_only_the_drifted_step_recomputes(self, db):
        evaluator = QueryEvaluator(db, strategy="reduced")
        prelude = _held(evaluator, PATH)
        _rows(evaluator, PATH, prelude)
        db.insert("S", (9, 9))
        assert _rows(evaluator, PATH, prelude) == brute_force(PATH, db)
        # One miss, and of the three steps only the S step re-prefiltered.
        assert prelude.misses == 2
        assert prelude.steps_recomputed == 3 + 1
        assert prelude.steps_reused == 2

    def test_untouched_subtree_projections_are_reused_by_identity(self, db):
        # The compiled step order for PATH on this instance is S, T, R
        # (smallest relations first), and GYO yields the edges T→S (subtree
        # {T}) and S→R (subtree {S, T}).  Drifting R — the tree root, in no
        # child subtree — invalidates neither bottom-up projection, so both
        # memoized key sets must survive as objects.
        evaluator = QueryEvaluator(db, strategy="reduced")
        prelude = _held(evaluator, PATH)
        _rows(evaluator, PATH, prelude)
        assert prelude.reduced.subtrees == ((1,), (0, 1))
        before = {index: keys for index, (_stamp, keys) in prelude._edge_memo.items()}
        assert before
        db.insert("R", (9, 0))
        _rows(evaluator, PATH, prelude)
        after = prelude._edge_memo
        assert all(after[index][1] is keys for index, keys in before.items())
        assert _rows(evaluator, PATH, prelude) == brute_force(PATH, db)

    def test_drifting_a_leaf_recomputes_every_containing_subtree(self, db):
        # T (the chain's far end) sits in both child subtrees: drifting it
        # must refresh both bottom-up projections.
        evaluator = QueryEvaluator(db, strategy="reduced")
        prelude = _held(evaluator, PATH)
        _rows(evaluator, PATH, prelude)
        before = {index: keys for index, (_stamp, keys) in prelude._edge_memo.items()}
        assert before
        db.insert("T", (9, 9))
        _rows(evaluator, PATH, prelude)
        assert all(
            prelude._edge_memo[index][1] is not keys
            for index, keys in before.items()
        )
        assert _rows(evaluator, PATH, prelude) == brute_force(PATH, db)

    def test_self_joins_drift_together(self, db):
        evaluator = QueryEvaluator(db, strategy="reduced")
        prelude = _held(evaluator, SELF_JOIN)
        _rows(evaluator, SELF_JOIN, prelude)
        db.insert("R", (5, 6))
        _rows(evaluator, SELF_JOIN, prelude)
        # Both steps read R: one drift invalidates both prefilters.
        assert prelude.steps_recomputed == 2 + 2
        assert prelude.steps_reused == 0
        assert _rows(evaluator, SELF_JOIN, prelude) == brute_force(SELF_JOIN, db)

    def test_extra_relation_version_drift_is_noticed(self, db):
        view = Relation(V_SCHEMA, [(1, 2), (2, 3)])
        evaluator = QueryEvaluator(
            db, extra_relations={"V": view}, strategy="reduced"
        )
        prelude = _held(evaluator, VIEW_PATH)
        _rows(evaluator, VIEW_PATH, prelude)
        view.insert((3, 0))  # direct mutation: only Relation.version moves
        assert _rows(evaluator, VIEW_PATH, prelude) == brute_force(
            VIEW_PATH, db, {"V": view}
        )
        assert prelude.misses == 2

    def test_replacing_an_extra_relation_object_is_noticed(self, db):
        view = Relation(V_SCHEMA, [(1, 2)])
        evaluator = QueryEvaluator(
            db, extra_relations={"V": view}, strategy="reduced"
        )
        prelude = _held(evaluator, VIEW_PATH)
        _rows(evaluator, VIEW_PATH, prelude)
        # Same content, new object — e.g. a re-materialised view.  The
        # version alone (both 1 after one insert each) cannot distinguish
        # them; the identity stamp must.
        replacement = Relation(V_SCHEMA, [(4, 5)])
        assert replacement.version == view.version
        evaluator.extra_relations["V"] = replacement
        assert _rows(evaluator, VIEW_PATH, prelude) == brute_force(
            VIEW_PATH, db, {"V": replacement}
        )

    def test_invalidate_forces_a_cold_run(self, db):
        evaluator = QueryEvaluator(db, strategy="reduced")
        prelude = _held(evaluator, PATH)
        _rows(evaluator, PATH, prelude)
        prelude.invalidate()
        _rows(evaluator, PATH, prelude)
        assert prelude.misses == 2
        assert prelude.steps_recomputed == 6  # no memo survived


class TestEmptyResults:
    def test_empty_preludes_are_cached_too(self):
        database = Database(SCHEMA)
        database.insert_many("R", [(1, 2)])  # S and T stay empty
        evaluator = QueryEvaluator(database, strategy="reduced")
        prelude = _held(evaluator, PATH)
        assert _rows(evaluator, PATH, prelude) == set()
        assert prelude._snapshot.empty
        assert _rows(evaluator, PATH, prelude) == set()
        assert prelude.hits == 1

    def test_drift_out_of_emptiness_recomputes(self):
        database = Database(SCHEMA)
        database.insert_many("R", [(1, 2)])
        evaluator = QueryEvaluator(database, strategy="reduced")
        prelude = _held(evaluator, PATH)
        assert _rows(evaluator, PATH, prelude) == set()
        database.insert_many("S", [(2, 3)])
        database.insert_many("T", [(3, 4)])
        assert _rows(evaluator, PATH, prelude) == {(1, 4)}


class TestCacheScoping:
    def test_invalidate_caches_drops_everything(self, db):
        evaluator = QueryEvaluator(db, strategy="reduced")
        evaluator.evaluate(PATH)
        evaluator.invalidate_caches()
        assert len(evaluator.statistics) == 0
        assert evaluator.evaluate(PATH).rows == brute_force(PATH, db)
