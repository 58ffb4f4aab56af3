"""Property: sharded parallel evaluation is indistinguishable from serial.

For every generated conjunctive query — acyclic, cyclic, self-joining, with
view extras — and every generated instance, the differential harness checks

    parallel (sharded) == program == reduced == brute-force reference

for answers *and* per-tuple binding sets, through parameterized evaluation,
and again after the database drifts between evaluations of one long-lived
evaluator (exercising the cached shard partitions against changed data).
Every evaluator here runs with ``verify_partitions=True``, so each fresh
partition also passes the I008 verifier (exact multiset cover, hash-correct
routing) as a side effect of the property run.
"""

from hypothesis import given, settings, strategies as st

from strategies import (
    acyclic_queries,
    brute_force,
    cyclic_queries,
    drift_sequences,
    apply_drift,
    parameterized_queries,
    random_instances,
    random_queries,
    self_join_queries,
)

from repro.query.ast import Constant
from repro.query.evaluator import QueryEvaluator

#: The serial baselines sharded runs are compared against.
SERIAL_KNOBS = ("program", "reduced")

#: Worker count for the sharded side: more than one shard, small enough that
#: tiny generated instances still exercise the empty-shard paths.
WORKERS = 3


def _evaluator(database, extra, strategy, use_indexes=True):
    return QueryEvaluator(
        database,
        extra_relations=extra,
        use_indexes=use_indexes,
        strategy=strategy,
        workers=WORKERS,
        verify_partitions=True,
    )


def _parallel_answers(database, extra, query, use_indexes=True):
    return _evaluator(database, extra, "parallel", use_indexes).evaluate(query).rows


class TestShardEquivalence:
    @given(random_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_sharded_matches_serial_and_brute_force(self, query, instance):
        database, extra = instance
        reference = brute_force(query, database, extra)
        assert _parallel_answers(database, extra, query) == reference
        for strategy in SERIAL_KNOBS:
            evaluator = _evaluator(database, extra, strategy)
            assert evaluator.evaluate(query).rows == reference

    @given(acyclic_queries(), random_instances())
    @settings(max_examples=50, deadline=None)
    def test_acyclic_sharded_agrees(self, query, instance):
        """The reduced executor behind a shared prepared prelude stays exact."""
        database, extra = instance
        assert _parallel_answers(database, extra, query) == brute_force(
            query, database, extra
        )

    @given(cyclic_queries(), random_instances())
    @settings(max_examples=30, deadline=None)
    def test_cyclic_sharded_agrees(self, query, instance):
        database, extra = instance
        assert _parallel_answers(database, extra, query) == brute_force(
            query, database, extra
        )

    @given(self_join_queries(), random_instances())
    @settings(max_examples=30, deadline=None)
    def test_self_join_sharded_agrees(self, query, instance):
        """Sharding the driving atom of a self-join must not lose frames:
        downstream steps probe the *full* relation, only depth 0 is sliced."""
        database, extra = instance
        assert _parallel_answers(database, extra, query) == brute_force(
            query, database, extra
        )

    @given(random_queries(), random_instances())
    @settings(max_examples=40, deadline=None)
    def test_sharded_without_indexes_agrees(self, query, instance):
        database, extra = instance
        assert _parallel_answers(database, extra, query, use_indexes=False) == (
            brute_force(query, database, extra)
        )

    @given(random_queries(), random_instances())
    @settings(max_examples=40, deadline=None)
    def test_binding_sets_agree_between_sharded_and_serial(self, query, instance):
        """Merged per-shard frames carry the same multiplicity-free binding
        sets as a serial run — Definition 2.2 citations depend on them."""
        database, extra = instance
        left = _evaluator(database, extra, "program").evaluate_with_bindings(query)
        right = _evaluator(database, extra, "parallel").evaluate_with_bindings(query)
        assert set(left) == set(right)
        as_sets = lambda bindings: {frozenset(b.items()) for b in bindings}
        for row in left:
            assert as_sets(left[row]) == as_sets(right[row])

    @given(parameterized_queries(), random_instances())
    @settings(max_examples=40, deadline=None)
    def test_parameterized_sharded_agrees(self, query_and_values, instance):
        query, valuation = query_and_values
        database, extra = instance
        substituted = query.substitute(
            {param: Constant(valuation[param.name]) for param in query.parameters}
        )
        reference = brute_force(substituted, database, extra)
        evaluator = _evaluator(database, extra, "parallel")
        assert evaluator.evaluate_parameterized(query, valuation).rows == reference

    @given(random_queries(), random_instances(), drift_sequences())
    @settings(max_examples=50, deadline=None)
    def test_sharded_reevaluation_after_drift(self, query, instance, ops):
        """Cached shard partitions are version-stamped: inserts and deletes
        through either invalidation channel (database generation, extra
        relation version) must repartition, never serve stale slices."""
        database, extra = instance
        evaluator = _evaluator(database, extra, "parallel")
        assert evaluator.evaluate(query).rows == brute_force(query, database, extra)
        apply_drift(database, extra, ops)
        assert evaluator.evaluate(query).rows == brute_force(query, database, extra)
