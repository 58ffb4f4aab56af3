"""Property: the compiled evaluator agrees with brute force on random CQs.

Two independent answers — and per-row binding sets — are compared on
randomly generated queries and instances (generators shared via
:mod:`strategies`), including self-joins (the same predicate twice) and
view-backed ``extra_relations``:

* the compiled evaluator probing hash indexes, both running its plain
  program and running whatever the default ``"auto"`` strategy picks (on
  these tiny instances, mostly the reduced program, whose prelude already
  filters within-atom repeats),
* a brute-force reference that enumerates the full cartesian product of the
  body atoms' relations and filters by the term constraints — no join
  ordering, no slots, no indexes, just the textbook semantics.

The semi-join-reduction strategies get the same treatment in
``test_strategy_equivalence.py``.
"""

from hypothesis import given, settings

from strategies import (
    binding_sets,
    brute_force,
    brute_force_bindings,
    random_instances,
    random_queries,
    self_join_queries,
)

from repro.query.evaluator import QueryEvaluator

#: The plain program, and the default pick.
STRATEGIES = ("program", "auto")


class TestEvaluatorEquivalence:
    @given(random_queries(), random_instances())
    @settings(max_examples=80, deadline=None)
    def test_indexed_matches_brute_force(self, query, instance):
        database, extra = instance
        reference = brute_force(query, database, extra)
        for strategy in STRATEGIES:
            indexed = QueryEvaluator(database, extra_relations=extra, strategy=strategy)
            assert indexed.evaluate(query).rows == reference, strategy

    @given(random_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_binding_sets_agree_between_indexed_and_brute_force(self, query, instance):
        database, extra = instance
        reference = brute_force_bindings(query, database, extra)
        for strategy in STRATEGIES:
            indexed = QueryEvaluator(database, extra_relations=extra, strategy=strategy)
            assert binding_sets(indexed.evaluate_with_bindings(query)) == reference, strategy

    @given(self_join_queries(), random_instances())
    @settings(max_examples=40, deadline=None)
    def test_generated_self_joins(self, query, instance):
        database, extra = instance
        evaluator = QueryEvaluator(database, extra_relations=extra)
        assert evaluator.evaluate(query).rows == brute_force(query, database, extra)

    @given(random_instances())
    @settings(max_examples=30, deadline=None)
    def test_explicit_self_join(self, instance):
        from repro.query.ast import Atom, ConjunctiveQuery, Variable

        database, extra = instance
        query = ConjunctiveQuery(
            Atom("Q", (Variable("X"), Variable("Z"))),
            (
                Atom("R", (Variable("X"), Variable("Y"))),
                Atom("R", (Variable("Y"), Variable("Z"))),
            ),
        )
        evaluator = QueryEvaluator(database, extra_relations=extra)
        assert evaluator.evaluate(query).rows == brute_force(query, database, extra)
