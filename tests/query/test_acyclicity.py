"""Regression tests for acyclicity detection and strategy auto-selection.

Hand-built fixtures — paths, stars, triangles, squares — pin down exactly
which query shapes the GYO analysis classifies as α-acyclic, which executor
``strategy="auto"`` picks for them, and that cyclic queries fall back to the
plain join program while staying correct under a forced ``"reduced"``.
"""

import pytest

from strategies import brute_force

from repro.query.compiler import is_acyclic, join_forest
from repro.query.evaluator import STRATEGIES, QueryEvaluator
from repro.query.parser import parse_query
from repro.query.stats import EvaluationMetrics
from repro.relational.database import Database
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

SCHEMA = DatabaseSchema(
    [
        RelationSchema("R", [Attribute("a", int), Attribute("b", int)]),
        RelationSchema("S", [Attribute("a", int), Attribute("b", int)]),
        RelationSchema("T", [Attribute("a", int), Attribute("b", int)]),
        RelationSchema(
            "H", [Attribute("a", int), Attribute("b", int), Attribute("c", int)]
        ),
    ]
)

PATH = parse_query("Q(A, D) :- R(A, B), S(B, C), T(C, D)")
STAR = parse_query("Q(A, B, C) :- H(A, B, C), R(A, X), S(B, Y), T(C, Z)")
TRIANGLE = parse_query("Q(X) :- R(X, Y), S(Y, Z), T(Z, X)")
SQUARE = parse_query("Q(X) :- R(X, Y), S(Y, Z), T(Z, W), R(W, X)")
COVERED_TRIANGLE = parse_query("Q(X) :- R(X, Y), S(Y, Z), T(Z, X), H(X, Y, Z)")
SELF_JOIN_PATH = parse_query("Q(X, Z) :- R(X, Y), R(Y, Z)")
SINGLE = parse_query("Q(X) :- R(X, Y)")
CARTESIAN = parse_query("Q(X, Z) :- R(X, Y), S(Z, W)")


@pytest.fixture
def db():
    database = Database(SCHEMA)
    for name in ("R", "S", "T"):
        database.insert_many(name, [(i % 4, (i + 1) % 4) for i in range(8)])
    database.insert_many("H", [(i % 4, (i + 1) % 4, (i + 2) % 4) for i in range(8)])
    return database


class TestIsAcyclic:
    @pytest.mark.parametrize(
        "query", [PATH, STAR, COVERED_TRIANGLE, SELF_JOIN_PATH, SINGLE, CARTESIAN]
    )
    def test_acyclic_shapes(self, query):
        assert is_acyclic(query)

    @pytest.mark.parametrize("query", [TRIANGLE, SQUARE])
    def test_cyclic_shapes(self, query):
        assert not is_acyclic(query)

    def test_equality_bound_corner_breaks_the_cycle(self):
        # X is effectively a constant, so the triangle degenerates to a path.
        pinned = parse_query("Q(Y) :- R(X, Y), S(Y, Z), T(Z, X), X = 1")
        assert is_acyclic(pinned)

    def test_join_forest_is_deterministic_and_spans_all_atoms(self):
        varsets = [{"A", "B"}, {"B", "C"}, {"C", "D"}]
        forest = join_forest(varsets)
        assert forest == join_forest(varsets)
        assert forest is not None and len(forest) == len(varsets) - 1

    def test_join_forest_rejects_the_triangle(self):
        assert join_forest([{"X", "Y"}, {"Y", "Z"}, {"Z", "X"}]) is None


class TestReduceProgramStructure:
    def test_acyclic_program_gets_a_join_tree(self, db):
        evaluator = QueryEvaluator(db)
        reduced = evaluator.reduce(PATH)
        assert reduced.acyclic
        # A tree over n atoms has n - 1 edges.
        assert len(reduced.semi_joins) == len(PATH.body) - 1

    def test_cyclic_program_gets_no_join_tree(self, db):
        reduced = QueryEvaluator(db).reduce(TRIANGLE)
        assert not reduced.acyclic
        assert reduced.semi_joins == ()


class TestAutoSelection:
    def test_auto_falls_back_to_program_for_cyclic_queries(self, db):
        evaluator = QueryEvaluator(db)
        for query in (TRIANGLE, SQUARE):
            assert evaluator.select_strategy(query) == "program"

    def test_auto_picks_program_for_single_atoms(self, db):
        evaluator = QueryEvaluator(db)
        assert evaluator.select_strategy(SINGLE) == "program"

    def test_auto_picks_program_when_nothing_dangles(self, db):
        # Every key of every relation joins through its neighbours, so the
        # prelude cannot prune anything: the cost model must refuse to pay
        # for it — regardless of how large the instance grows.
        for name in ("R", "S", "T"):
            db.insert_many(name, [(i % 4, (i + 1) % 4) for i in range(256)])
        evaluator = QueryEvaluator(db)
        assert evaluator.select_strategy(PATH) == "program"

    def test_auto_picks_reduced_on_dangling_heavy_data(self):
        # A chain with fan-out 15 per probe whose last relation is almost
        # disjoint: the plain program enumerates thousands of doomed partial
        # bindings before the final probe kills them, so the prelude's
        # pruning dwarfs its linear passes — even though the instance is far
        # below the old 4096-row threshold.
        database = Database(SCHEMA)
        database.insert_many("R", [(i, i % 20) for i in range(300)])
        database.insert_many("S", [(i % 20, i) for i in range(300)])
        database.insert_many(
            "T", [(i, i) for i in range(6)] + [(300 + i, i) for i in range(294)]
        )
        evaluator = QueryEvaluator(database)
        assert evaluator.select_strategy(PATH) == "reduced"

    def test_warm_prelude_overrides_the_cost_model(self, db):
        # Dense data: cold, the cost model refuses the prelude ...
        for name in ("R", "S", "T"):
            db.insert_many(name, [(i % 4, (i + 1) % 4) for i in range(64)])
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(db, metrics=metrics)
        assert evaluator.select_strategy(PATH) == "program"
        # ... but once a forced run warmed a held prelude, re-running it is
        # free, so auto switches to the reduction until the data drifts.
        prelude = evaluator.prelude_for(PATH, evaluator.reduce(PATH))
        evaluator.evaluate_with_bindings(PATH, strategy="reduced", prelude=prelude)
        evaluator.evaluate_with_bindings(PATH, prelude=prelude)
        assert metrics.snapshot()["pick_reasons"].get("warm_prelude") == 1
        db.insert("R", (77, 78))
        evaluator.evaluate_with_bindings(PATH, prelude=prelude)
        assert metrics.snapshot()["pick_reasons"].get("warm_prelude") == 1
        assert metrics.snapshot()["picks"]["program"] == 1

    def test_forced_strategies_ignore_the_analysis(self, db):
        assert (
            QueryEvaluator(db, strategy="reduced").select_strategy(TRIANGLE)
            == "reduced"
        )
        assert (
            QueryEvaluator(db, strategy="program").select_strategy(PATH)
            == "program"
        )

    def test_unknown_strategy_is_rejected(self, db):
        assert STRATEGIES == ("auto", "program", "reduced")
        for strategy in ("yannakakis", "parallel"):
            with pytest.raises(ValueError):
                QueryEvaluator(db, strategy=strategy)
            with pytest.raises(ValueError):
                QueryEvaluator(db).evaluate(PATH, strategy=strategy)


class TestCorrectnessOfFallbacks:
    @pytest.mark.parametrize(
        "query",
        [PATH, STAR, TRIANGLE, SQUARE, COVERED_TRIANGLE, SELF_JOIN_PATH, CARTESIAN],
    )
    def test_every_strategy_matches_brute_force(self, db, query):
        reference = brute_force(query, db)
        for strategy in ("program", "reduced", "auto"):
            evaluator = QueryEvaluator(db, strategy=strategy)
            assert evaluator.evaluate(query).rows == reference, strategy

    def test_reduction_prunes_dangling_tuples(self, db):
        db.insert("R", (9, 9))  # dangles: 9 never joins through S
        evaluator = QueryEvaluator(db)
        reduced = evaluator.reduce(PATH)
        relations = {name: db.relation(name) for name in ("R", "S", "T")}
        candidates = reduced.reduce_relations(relations, evaluator.index_manager)
        assert candidates is not None
        surviving = [
            rows if rows is not None else list(relations[step.predicate])
            for rows, step in zip(candidates, reduced.program.steps)
        ]
        by_predicate = {
            step.predicate: rows
            for step, rows in zip(reduced.program.steps, surviving)
        }
        assert (9, 9) not in by_predicate["R"]

    def test_empty_extension_short_circuits(self, db):
        db2 = Database(SCHEMA)  # S stays empty
        db2.insert_many("R", [(1, 2)])
        evaluator = QueryEvaluator(db2)
        reduced = evaluator.reduce(PATH)
        relations = {name: db2.relation(name) for name in ("R", "S", "T")}
        assert reduced.reduce_relations(relations, evaluator.index_manager) is None
        assert evaluator.evaluate(PATH, strategy="reduced").rows == set()


class TestStaleReductionRegression:
    def test_explicit_program_never_pairs_with_a_stale_reduction(self):
        """A prelude carries the very program its reduction wraps: after drift
        makes a fresh compile order the atoms (and hence assign slots)
        differently, the held prelude and one over the recompiled program
        both project their frames correctly."""
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        database = Database(SCHEMA)
        database.insert_many("R", [(1, 2)])
        database.insert_many("S", [(2, 3), (2, 4), (5, 6)])
        evaluator = QueryEvaluator(database, strategy="reduced")
        held = evaluator.prelude_for(query, evaluator.reduce(query))
        assert set(evaluator.evaluate_with_bindings(query, prelude=held)) == {(1, 3), (1, 4)}
        database.insert_many("R", [(i, i) for i in range(10, 20)])
        recompiled = evaluator.prelude_for(query, evaluator.reduce(query))
        assert recompiled.reduced.program.variables != held.reduced.program.variables
        for prelude in (held, recompiled):
            rows = set(evaluator.evaluate_with_bindings(query, prelude=prelude))
            assert rows == {(1, 3), (1, 4)}
