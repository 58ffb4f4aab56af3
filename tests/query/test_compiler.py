"""Tests for compilation of conjunctive queries into join programs."""

import pytest

from strategies import brute_force

from repro.query.ast import Variable
from repro.query.compiler import compile_query
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.relational.index import IndexManager
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema
from repro.workloads import gtopdb


@pytest.fixture
def db():
    return gtopdb.paper_instance()


def _relations(db, query):
    return {atom.predicate: db.relation(atom.predicate) for atom in query.body}


class TestCompile:
    def test_every_variable_gets_one_slot(self, db):
        query = parse_query(
            "Q(FName, Text) :- Family(FID, FName, D), FamilyIntro(FID, Text)"
        )
        program = compile_query(query, _relations(db, query))
        assert set(program.variables) == {
            Variable("FID"),
            Variable("FName"),
            Variable("D"),
            Variable("Text"),
        }
        assert program.slot_count == 4

    def test_atom_order_is_fixed_and_bound_first(self, db):
        # The constant-selected atom must run first regardless of body order.
        query = parse_query(
            'Q(FName, Text) :- FamilyIntro(FID, Text), Family(FID, FName, "C1")'
        )
        program = compile_query(query, _relations(db, query))
        assert program.steps[0].predicate == "Family"
        # The second atom probes FID, which is bound after the first step.
        assert 0 in program.steps[1].key_positions

    def test_join_variable_becomes_probe_after_binding(self, db):
        query = parse_query(
            "Q(FName, Text) :- Family(FID, FName, D), FamilyIntro(FID, Text)"
        )
        program = compile_query(query, _relations(db, query))
        first, second = program.steps
        assert first.key_positions == ()  # nothing bound yet: a scan
        assert second.key_positions == (0,)  # FID probe
        assert second.key_slots != (None,)  # ... read from a slot, not a constant

    def test_equalities_seed_slots(self, db):
        query = parse_query('Q(FID, D) :- Family(FID, F, De), D = "x"')
        program = compile_query(query, _relations(db, query))
        assert len(program.seed) == 1
        slot, value = program.seed[0]
        assert program.variables[slot] == Variable("D")
        assert value == "x"

    def test_repeated_variable_within_atom_checks(self, db):
        query = parse_query("Q(FID) :- Family(FID, X, X)")
        program = compile_query(query, _relations(db, query))
        (step,) = program.steps
        assert len(step.post_checks) == 1

    def test_deterministic_order_for_ties(self, db):
        query = parse_query(
            "Q(A, B) :- Committee(A, P), Committee(B, P2)"
        )
        first = compile_query(query, _relations(db, query))
        second = compile_query(query, _relations(db, query))
        assert [s.predicate for s in first.steps] == [s.predicate for s in second.steps]
        assert first.variables == second.variables

    def test_program_is_data_independent(self, db):
        query = parse_query("Q(FName) :- Family(FID, FName, D), FamilyIntro(FID, T)")
        relations = _relations(db, query)
        program = compile_query(query, relations)
        db.insert("Family", (99, "Later", "d"))
        db.insert("FamilyIntro", (99, "later intro"))
        rows = set(map(program.output_row, program.run_frames(relations, IndexManager(db))))
        assert ("Later",) in rows


class TestExecutionEquivalence:
    QUERIES = [
        "Q(FID, FName, Desc) :- Family(FID, FName, Desc)",
        "Q(FName) :- Family(11, FName, Desc)",
        "Q(FName, Text) :- Family(FID, FName, D), FamilyIntro(FID, Text)",
        "Q(FName, PName, Text) :- Family(FID, FName, D), Committee(FID, PName), "
        "FamilyIntro(FID, Text)",
        "Q(A, B) :- Family(A, X, Y), FamilyIntro(B, T)",
        'Q(FID, D) :- Family(FID, F, De), D = "note"',
        "Q(FID) :- Family(FID, X, X)",
        # Self-join: the same predicate twice.
        "Q(A, B) :- Committee(A, P), Committee(B, P)",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_indexed_and_scan_execution_agree(self, db, text):
        """The indexed join agrees with the scanning reference, which
        filters the full cartesian product of the body relations."""
        query = parse_query(text)
        assert QueryEvaluator(db).evaluate(query).rows == brute_force(query, db)

    @pytest.mark.parametrize("text", QUERIES)
    def test_bindings_cover_all_variables(self, db, text):
        query = parse_query(text)
        evaluator = QueryEvaluator(db)
        for row, bindings in evaluator.evaluate_with_bindings(query).items():
            assert bindings
            for binding in bindings:
                assert set(binding) == query.variables()
                assert evaluator.output_tuple(query, binding) == row


class TestViewIndexing:
    """extra_relations (materialised views) are now probed via hash indexes
    instead of linear scans — and the indexes notice view replacement."""

    def _setup(self):
        schema = DatabaseSchema(
            [RelationSchema("Base", [Attribute("a", int), Attribute("b", int)])]
        )
        db = Database(schema)
        db.insert_many("Base", [(i, i % 5) for i in range(50)])
        view_schema = RelationSchema("V", [Attribute("a", int), Attribute("tag", str)])
        view = Relation(view_schema, [(i, f"t{i}") for i in range(50)])
        return db, view

    def test_view_probe_uses_manager_index(self):
        db, view = self._setup()
        evaluator = QueryEvaluator(db, extra_relations={"V": view})
        query = parse_query("Q(B, Tag) :- Base(A, B), V(A, Tag)")
        result = evaluator.evaluate(query)
        assert len(result) == 50
        assert len(evaluator.index_manager) == 1  # an index over the view was built

    def test_view_index_reused_until_the_view_changes(self):
        db, view = self._setup()
        evaluator = QueryEvaluator(db, extra_relations={"V": view})
        manager = evaluator.index_manager
        query = parse_query("Q(B, Tag) :- Base(A, B), V(A, Tag)")
        evaluator.evaluate(query)
        index = manager.index_for("V", view, (0,))
        evaluator.evaluate(query)
        assert manager.index_for("V", view, (0,)) is index
        view.insert((1, "again"))
        rows = evaluator.evaluate(query).rows
        assert manager.index_for("V", view, (0,)) is not index
        assert rows == brute_force(query, db, {"V": view})

    def test_view_index_invalidated_by_mutation(self):
        db, view = self._setup()
        manager = IndexManager(db)
        index = manager.index_for("V", view, (0,))
        view.insert((100, "fresh"))
        rebuilt = manager.index_for("V", view, (0,))
        assert rebuilt is not index
        assert list(rebuilt.lookup((100,))) == [(100, "fresh")]

    def test_view_index_invalidated_by_replacement(self):
        db, view = self._setup()
        manager = IndexManager(db)
        index = manager.index_for("V", view, (0,))
        replacement = Relation(view.schema, [(7, "only")])
        rebuilt = manager.index_for("V", replacement, (0,))
        assert rebuilt is not index
        assert list(rebuilt.lookup((7,))) == [(7, "only")]

    def test_shadowing_extra_relation_is_not_served_from_database_index(self):
        db, _view = self._setup()
        shadow = Relation(
            RelationSchema("Base", [Attribute("a", int), Attribute("b", int)]),
            [(1, 999)],
        )
        evaluator = QueryEvaluator(db, extra_relations={"Base": shadow})
        result = evaluator.evaluate(parse_query("Q(B) :- Base(1, B)"))
        assert result.rows == {(999,)}

