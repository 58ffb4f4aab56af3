"""Property: the semi-join-reduced strategy is indistinguishable from the rest.

For every generated conjunctive query — acyclic, cyclic, self-joining, with
view extras — and every generated instance, the differential harness checks

    reduced == program == brute-force reference

for answers *and* per-tuple binding sets, through parameterized evaluation,
and again after the database drifts (inserts and deletes between evaluations
of one long-lived evaluator, exercising the cached programs against changed
data).  The brute-force references are the
textbook cartesian-product semantics from :mod:`strategies`, for answers and
for bindings.
"""

from hypothesis import given, settings, strategies as st

from strategies import (
    acyclic_queries,
    binding_sets,
    brute_force,
    brute_force_bindings,
    cyclic_queries,
    parameterized_queries,
    random_instances,
    random_queries,
    rows,
    self_join_queries,
)

from repro.query.ast import Constant
from repro.query.compiler import is_acyclic
from repro.query.evaluator import QueryEvaluator

STRATEGY_KNOBS = ("program", "reduced", "auto")


def _answers(database, extra, query, strategy):
    evaluator = QueryEvaluator(database, extra_relations=extra, strategy=strategy)
    return evaluator.evaluate(query).rows


class TestStrategyEquivalence:
    @given(random_queries(), random_instances())
    @settings(max_examples=80, deadline=None)
    def test_all_strategies_match_brute_force(self, query, instance):
        database, extra = instance
        reference = brute_force(query, database, extra)
        for strategy in STRATEGY_KNOBS:
            assert _answers(database, extra, query, strategy) == reference

    @given(acyclic_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_acyclic_queries_are_detected_and_agree(self, query, instance):
        database, extra = instance
        assert is_acyclic(query)
        reference = brute_force(query, database, extra)
        for strategy in STRATEGY_KNOBS:
            assert _answers(database, extra, query, strategy) == reference

    @given(cyclic_queries(), random_instances())
    @settings(max_examples=40, deadline=None)
    def test_cyclic_queries_sip_only_reduction_agrees(self, query, instance):
        database, extra = instance
        assert not is_acyclic(query)
        reference = brute_force(query, database, extra)
        # "reduced" on a cyclic query runs sideways information passing only;
        # it must still be exact.
        for strategy in STRATEGY_KNOBS:
            assert _answers(database, extra, query, strategy) == reference

    @given(self_join_queries(), random_instances())
    @settings(max_examples=40, deadline=None)
    def test_self_joins_agree(self, query, instance):
        database, extra = instance
        reference = brute_force(query, database, extra)
        for strategy in STRATEGY_KNOBS:
            assert _answers(database, extra, query, strategy) == reference

    @given(random_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_binding_sets_agree_between_program_and_reduced(self, query, instance):
        database, extra = instance
        reference = brute_force_bindings(query, database, extra)
        for strategy in ("program", "reduced"):
            evaluator = QueryEvaluator(database, extra_relations=extra, strategy=strategy)
            assert binding_sets(evaluator.evaluate_with_bindings(query)) == reference

    @given(parameterized_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_parameterized_evaluation_agrees(self, query_and_values, instance):
        query, valuation = query_and_values
        database, extra = instance
        substituted = query.substitute(
            {
                param: Constant(valuation[param.name])
                for param in query.parameters
            }
        )
        reference = brute_force(substituted, database, extra)
        for strategy in STRATEGY_KNOBS:
            evaluator = QueryEvaluator(
                database,
                extra_relations=extra,
                strategy=strategy,
            )
            assert (
                evaluator.evaluate_parameterized(query, valuation).rows == reference
            )

    @given(
        random_queries(),
        random_instances(),
        rows(max_size=4),
        rows(max_size=4),
        st.sampled_from(["R", "S"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_reevaluation_after_database_drift(
        self, query, instance, inserts, deletes, relation
    ):
        """Held programs and preludes stay exact across inserts and deletes."""
        database, extra = instance
        held = {}
        for strategy in STRATEGY_KNOBS:
            evaluator = QueryEvaluator(
                database, extra_relations=extra, strategy=strategy
            )
            held[strategy] = (
                evaluator, evaluator.prelude_for(query, evaluator.reduce(query))
            )

        def rows(strategy):
            evaluator, prelude = held[strategy]
            return set(evaluator.evaluate_with_bindings(query, prelude=prelude))

        for strategy in STRATEGY_KNOBS:
            assert rows(strategy) == brute_force(query, database, extra), strategy
        database.insert_many(relation, inserts)
        for row in deletes:
            database.delete(relation, row)
        reference = brute_force(query, database, extra)
        for strategy in STRATEGY_KNOBS:
            assert rows(strategy) == reference, strategy
