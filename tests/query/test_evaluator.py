"""Tests for conjunctive-query evaluation."""

import pytest

from repro.errors import QueryError, UnknownRelationError
from repro.query.ast import Variable
from repro.query.evaluator import QueryEvaluator, evaluate, evaluate_with_bindings, result_schema
from repro.query.parser import parse_query
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.workloads import gtopdb


@pytest.fixture
def db():
    return gtopdb.paper_instance()


class TestEvaluate:
    def test_single_atom_scan(self, db):
        result = evaluate(parse_query("Q(FID, FName, Desc) :- Family(FID, FName, Desc)"), db)
        assert len(result) == 3

    def test_projection_removes_duplicates(self, db):
        result = evaluate(parse_query("Q(FName) :- Family(FID, FName, Desc)"), db)
        assert result.rows == {("Calcitonin",), ("Adenosine",)}

    def test_join(self, db):
        query = parse_query("Q(FName, Text) :- Family(FID, FName, D), FamilyIntro(FID, Text)")
        result = evaluate(query, db)
        assert ("Calcitonin", "1st") in result
        assert ("Calcitonin", "2nd") in result
        assert ("Adenosine", "Adenosine receptors intro") in result

    def test_constant_selection(self, db):
        query = parse_query("Q(FName) :- Family(11, FName, Desc)")
        assert evaluate(query, db).rows == {("Calcitonin",)}

    def test_constant_in_head(self, db):
        query = parse_query('Q(FID, "label") :- Family(FID, FName, Desc)')
        assert (11, "label") in evaluate(query, db)

    def test_repeated_variable_forces_equality(self, db):
        db.insert("Family", (99, "SelfDesc", "SelfDesc"))
        query = parse_query("Q(FID) :- Family(FID, X, X)")
        assert evaluate(query, db).rows == {(99,)}

    def test_equality_atom_binding(self, db):
        query = parse_query('Q(FID, D) :- Family(FID, FName, Desc), D = "note"')
        assert (11, "note") in evaluate(query, db)

    def test_empty_result(self, db):
        query = parse_query("Q(FName) :- Family(999, FName, Desc)")
        assert len(evaluate(query, db)) == 0

    def test_unknown_relation_raises(self, db):
        with pytest.raises(UnknownRelationError):
            evaluate(parse_query("Q(X) :- Missing(X)"), db)

    def test_arity_mismatch_raises(self, db):
        with pytest.raises(QueryError):
            evaluate(parse_query("Q(X) :- Family(X)"), db)

    def test_three_way_join(self, db):
        query = parse_query(
            "Q(FName, PName, Text) :- Family(FID, FName, D), Committee(FID, PName), "
            "FamilyIntro(FID, Text)"
        )
        result = evaluate(query, db)
        assert ("Calcitonin", "D. Hoyer", "1st") in result
        assert ("Calcitonin", "S. Alexander", "2nd") in result

    def test_cartesian_product_when_no_join(self, db):
        query = parse_query("Q(A, B) :- Family(A, X, Y), FamilyIntro(B, T)")
        assert len(evaluate(query, db)) == 9


class TestBindings:
    def test_all_bindings_per_tuple(self, db):
        query = parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
        bindings = evaluate_with_bindings(query, db)
        assert len(bindings[("Calcitonin",)]) == 2
        assert len(bindings[("Adenosine",)]) == 1

    def test_binding_contains_all_variables(self, db):
        query = parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
        bindings = evaluate_with_bindings(query, db)
        one = bindings[("Adenosine",)][0]
        assert one[Variable("FID")] == 13
        assert one[Variable("Text")] == "Adenosine receptors intro"

    def test_equality_atom_appears_in_binding(self, db):
        query = parse_query('Q(FID, D) :- Family(FID, F, De), D = "x"')
        bindings = evaluate_with_bindings(query, db)
        assert all(b[Variable("D")] == "x" for bs in bindings.values() for b in bs)

    def test_parameterized_evaluation(self, db):
        view = parse_query("lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)")
        evaluator = QueryEvaluator(db)
        result = evaluator.evaluate_parameterized(view, {"FID": 11})
        assert result.rows == {(11, "Calcitonin", "C1")}

    def test_parameterized_evaluation_missing_value(self, db):
        view = parse_query("lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)")
        with pytest.raises(QueryError):
            QueryEvaluator(db).evaluate_parameterized(view, {})


class TestExtraRelations:
    def test_extra_relations_are_visible(self, db):
        schema = RelationSchema("Extra", [Attribute("FID", object), Attribute("Tag", object)])
        extra = Relation(schema, [(11, "tag")])
        evaluator = QueryEvaluator(db, extra_relations={"Extra": extra})
        query = parse_query("Q(FName, Tag) :- Family(FID, FName, D), Extra(FID, Tag)")
        assert evaluator.evaluate(query).rows == {("Calcitonin", "tag")}

    def test_extra_relation_shadows_database(self, db):
        schema = RelationSchema(
            "Family", [Attribute("FID", object), Attribute("FName", object), Attribute("D", object)]
        )
        shadow = Relation(schema, [(1, "OnlyThis", "x")])
        evaluator = QueryEvaluator(db, extra_relations={"Family": shadow})
        result = evaluator.evaluate(parse_query("Q(FName) :- Family(FID, FName, D)"))
        assert result.rows == {("OnlyThis",)}


class TestResultSchema:
    def test_attribute_names_follow_head_variables(self):
        query = parse_query("Q(FName, Text) :- Family(FID, FName, D), FamilyIntro(FID, Text)")
        schema = result_schema(query)
        assert schema.attribute_names == ("FName", "Text")

    def test_constants_get_positional_names(self):
        query = parse_query('Q(FName, "x") :- Family(FID, FName, D)')
        assert result_schema(query).attribute_names == ("FName", "const_1")

    def test_duplicate_head_variables_get_unique_names(self):
        query = parse_query("Q(X, X) :- R(X, Y)")
        names = result_schema(query).attribute_names
        assert len(set(names)) == 2
