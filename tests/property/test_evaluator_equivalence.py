"""Property: the compiled evaluator agrees with brute force on random CQs.

Two independent answers — and per-row binding sets — are compared on
randomly generated queries and instances (generators shared via
:mod:`strategies`): arbitrary, tree-shaped (acyclic) and cyclic bodies,
self-joins (the same predicate twice), λ-parameterized queries and
view-backed ``extra_relations``:

* the compiled evaluator: one join program probing hash indexes,
* a brute-force reference that enumerates the full cartesian product of the
  body atoms' relations and filters by the term constraints — no join
  ordering, no slots, no indexes, just the textbook semantics.

A program compiled once and held across data drift (as a compiled
:class:`~repro.core.engine.CitationPlan` holds it) must stay exact after
every drift step, through both invalidation channels: database writes, and
direct mutation of the view-like extra relation ``V``, where only its
:attr:`~repro.relational.relation.Relation.version` moves.
"""

from hypothesis import given, settings, strategies as st

from strategies import (
    acyclic_queries,
    apply_drift,
    binding_sets,
    brute_force,
    brute_force_bindings,
    cyclic_queries,
    drift_sequences,
    parameterized_queries,
    random_instances,
    random_queries,
    self_join_queries,
)

from repro.query.ast import Constant
from repro.query.evaluator import QueryEvaluator


def _check(query, database, extra):
    evaluator = QueryEvaluator(database, extra_relations=extra)
    assert evaluator.evaluate(query).rows == brute_force(query, database, extra)
    assert binding_sets(evaluator.evaluate_with_bindings(query)) == brute_force_bindings(
        query, database, extra
    )


class TestEvaluatorEquivalence:
    @given(random_queries(), random_instances())
    @settings(max_examples=80, deadline=None)
    def test_indexed_matches_brute_force(self, query, instance):
        database, extra = instance
        indexed = QueryEvaluator(database, extra_relations=extra)
        assert indexed.evaluate(query).rows == brute_force(query, database, extra)

    @given(random_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_binding_sets_agree_between_indexed_and_brute_force(self, query, instance):
        database, extra = instance
        reference = brute_force_bindings(query, database, extra)
        indexed = QueryEvaluator(database, extra_relations=extra)
        assert binding_sets(indexed.evaluate_with_bindings(query)) == reference

    @given(acyclic_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_acyclic_queries_match_brute_force(self, query, instance):
        _check(query, *instance)

    @given(cyclic_queries(), random_instances())
    @settings(max_examples=40, deadline=None)
    def test_cyclic_queries_match_brute_force(self, query, instance):
        _check(query, *instance)

    @given(parameterized_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_parameterized_evaluation_matches_brute_force(self, query_and_values, instance):
        query, valuation = query_and_values
        database, extra = instance
        substituted = query.substitute(
            {param: Constant(valuation[param.name]) for param in query.parameters}
        )
        evaluator = QueryEvaluator(database, extra_relations=extra)
        assert evaluator.evaluate_parameterized(query, valuation).rows == brute_force(
            substituted, database, extra
        )

    @given(random_queries(), random_instances(max_rows=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_held_program_stays_exact_under_drift(self, query, instance, data):
        """One evaluator runs one compiled program before and after each
        step of a drift over the relations the query reads; its answers and
        binding sets follow the data."""
        database, extra = instance
        ops = data.draw(drift_sequences(tuple(sorted({atom.predicate for atom in query.body}))))
        evaluator = QueryEvaluator(database, extra_relations=extra)
        program = evaluator.compile(query)
        for step in [None, *ops]:
            if step is not None:
                apply_drift(database, extra, [step])
            bindings = evaluator.evaluate_with_bindings(query, program)
            assert binding_sets(bindings) == brute_force_bindings(query, database, extra), step

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
