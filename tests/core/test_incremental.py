"""Tests for incremental citation maintenance (citation evolution).

Every write goes through the engine's :class:`Database`; the maintainer
follows its change log and brings its result forward when read.
"""

import pytest

from repro import (
    CitationEngine,
    CitationPolicy,
    CitationRequest,
    CitationService,
    IncrementalCitationMaintainer,
)
from repro.core.citation_view import CitationView, DefaultCitationFunction
from repro.workloads import gtopdb


@pytest.fixture
def engine():
    return CitationEngine(
        gtopdb.paper_instance(),
        gtopdb.citation_views(),
        policy=CitationPolicy.union_everywhere(),
    )


@pytest.fixture
def maintainer(engine, paper_query):
    return IncrementalCitationMaintainer(engine, paper_query)


class TestIrrelevantUpdates:
    def test_update_to_unrelated_relation_is_ignored(self, maintainer, engine):
        engine.database.insert("Ligand", (1, "Ligand-1", "peptide"))
        maintainer.check_consistency()
        assert maintainer.statistics.updates_seen == 1
        assert maintainer.statistics.updates_ignored == 1
        assert maintainer.statistics.rows_recomputed == 0

    def test_committee_update_refreshes_snippets_only(self, maintainer, engine):
        # Committee feeds only the *citation* query of V1, not the view extent:
        # the answer set is unchanged but the new member must appear in the
        # refreshed citation records.
        before_rows = {tc.row for tc in maintainer.result.tuple_citations}
        engine.database.insert("Committee", (13, "New Member"))
        after_rows = {tc.row for tc in maintainer.result.tuple_citations}
        assert before_rows == after_rows
        adenosine = maintainer.result.citation_for(("Adenosine",))
        names = set()
        for record in adenosine.records:
            value = record.as_dict().get("contributors", ())
            names.update(value if isinstance(value, tuple) else (value,))
        assert "New Member" in names
        maintainer.check_consistency()
        # Only the rows citing FID 13's record were rebuilt, from the
        # change log, with no binding re-derived.
        assert maintainer.statistics.rows_recomputed == 0
        assert maintainer.statistics.updates_ignored == 0
        fresh = CitationEngine(
            maintainer.engine.database,
            gtopdb.citation_views(),
            policy=CitationPolicy.union_everywhere(),
        ).cite(maintainer.query)
        assert [
            (tc.row, str(tc.expression), tc.records) for tc in maintainer.result.tuple_citations
        ] == [(tc.row, str(tc.expression), tc.records) for tc in fresh.tuple_citations]

    def test_economical_snippet_update_keeps_the_engine_caches(self):
        # An economical result cannot be brought forward (its selection read
        # the data), so the query is cited again over the caches as they are.
        database = gtopdb.generate(families=6, targets_per_family=2, seed=3)
        engine = CitationEngine(
            database, gtopdb.citation_views(extended=True), mode="economical"
        )
        q5 = gtopdb.example_queries()[4]
        maintainer = IncrementalCitationMaintainer(engine, q5)
        epoch = engine.cache_epoch
        target = min(row[0] for row in database.relation("Target").rows)
        database.insert("Contributor", (target, "A. Newcomer"))
        result = maintainer.result
        assert maintainer.statistics.updates_ignored == 0
        assert engine.cache_epoch == epoch
        assert maintainer.statistics.full_recomputations == 1
        assert maintainer.statistics.rows_recomputed == len(result)
        maintainer.check_consistency()

    def test_duplicate_insert_ignored(self, maintainer, engine):
        # A write that changes nothing moves no generation: the maintainer
        # sees no update and hands back the result it holds.
        before = maintainer.result
        generation = engine.database.generation
        assert not engine.database.insert("Family", (11, "Calcitonin", "C1"))
        assert engine.database.generation == generation
        assert maintainer.result is before
        assert maintainer.statistics.updates_seen == 0


class TestInserts:
    def test_new_family_with_intro_adds_row(self, maintainer, engine):
        engine.database.insert("Family", (20, "Orexin", "O1"))
        engine.database.insert("FamilyIntro", (20, "orexin intro"))
        rows = {tc.row for tc in maintainer.result.tuple_citations}
        assert ("Orexin",) in rows
        maintainer.check_consistency()

    def test_family_without_intro_does_not_add_row(self, maintainer, engine):
        engine.database.insert("Family", (21, "Ghrelin", "G1"))
        rows = {tc.row for tc in maintainer.result.tuple_citations}
        assert ("Ghrelin",) not in rows
        maintainer.check_consistency()

    def test_new_binding_for_existing_row_updates_citation(self, maintainer, engine):
        # A third family named Calcitonin adds a binding (and a CV1 citation).
        before = maintainer.result.citation_for(("Calcitonin",))
        engine.database.insert("Family", (30, "Calcitonin", "C3"))
        engine.database.insert("FamilyIntro", (30, "3rd"))
        after = maintainer.result.citation_for(("Calcitonin",))
        assert len(after.records) > len(before.records)
        maintainer.check_consistency()

    def test_statistics_track_recomputed_rows(self, maintainer, engine):
        engine.database.insert("Family", (20, "Orexin", "O1"))
        engine.database.insert("FamilyIntro", (20, "orexin intro"))
        maintainer.refresh()
        assert maintainer.statistics.rows_recomputed >= 1
        assert maintainer.statistics.rows_added >= 1

    def test_insert_refreshes_the_records_it_reaches(self):
        # VX's citation query reads Family without its key, so a Family
        # insert reaches every VX record: the rows the delta does not
        # re-derive must be rebuilt too.
        views = [
            CitationView(
                "lambda FID. VX(FID, FName, Desc) :- Family(FID, FName, Desc)",
                ["lambda FID. CVX(FID, N) :- Committee(FID, P), Family(G, N, D)"],
                DefaultCitationFunction(constants={"source": gtopdb.DATABASE_TITLE}),
            )
        ]
        engine = CitationEngine(gtopdb.paper_instance(), views)
        maintainer = IncrementalCitationMaintainer(engine, "Q(FName) :- Family(FID, FName, Desc)")
        engine.database.insert("Family", (99, "Brandnew", "d"))
        assert ("Brandnew",) in maintainer.result.rows()
        maintainer.check_consistency()
        fresh = CitationEngine(engine.database, views).cite(maintainer.query)
        assert [
            (tc.row, str(tc.expression), tc.records) for tc in maintainer.result.tuple_citations
        ] == [(tc.row, str(tc.expression), tc.records) for tc in fresh.tuple_citations]


class TestDeletes:
    def test_delete_intro_removes_row(self, maintainer, engine):
        engine.database.delete("FamilyIntro", (13, "Adenosine receptors intro"))
        rows = {tc.row for tc in maintainer.result.tuple_citations}
        assert ("Adenosine",) not in rows
        maintainer.check_consistency()
        assert maintainer.statistics.rows_removed == 1

    def test_delete_one_of_two_bindings_keeps_row(self, maintainer, engine):
        engine.database.delete("FamilyIntro", (12, "2nd"))
        rows = {tc.row for tc in maintainer.result.tuple_citations}
        assert ("Calcitonin",) in rows
        citation = maintainer.result.citation_for(("Calcitonin",))
        # only the FID=11 committee citation remains among parameterized records
        parameterized = {r["parameters"] for r in citation.records if "parameters" in r}
        assert parameterized == {(("FID", 11),)}
        maintainer.check_consistency()

    def test_deleting_both_sides_of_a_join_removes_the_row(self, paper_query):
        # Read once after both rows of Adenosine's only derivation are gone.
        # No delta from the logged rows can reach the row, nor (over V2 and
        # V3, whose records read no relation) any record, so a logged row
        # that is gone must make the maintainer execute the plan again.
        views = [cv for cv in gtopdb.citation_views() if cv.name in ("V2", "V3")]
        engine = CitationEngine(gtopdb.paper_instance(), views)
        maintainer = IncrementalCitationMaintainer(engine, paper_query)
        database = engine.database
        database.delete("FamilyIntro", (13, "Adenosine receptors intro"))
        for member in sorted(r for r in database.relation("Committee").rows if r[0] == 13):
            database.delete("Committee", member)
        database.delete("Family", next(r for r in database.relation("Family").rows if r[0] == 13))
        assert ("Adenosine",) not in maintainer.result.rows()
        maintainer.check_consistency()

    def test_delete_unrelated_row_is_cheap(self, maintainer, engine):
        engine.database.insert("Ligand", (7, "Ligand-7", "peptide"))
        engine.database.delete("Ligand", (7, "Ligand-7", "peptide"))
        maintainer.refresh()
        assert maintainer.statistics.rows_recomputed == 0
        assert maintainer.statistics.updates_ignored == 2

    def test_delete_missing_row_ignored(self, maintainer, engine):
        # A delete of an absent row moves no generation, like a duplicate insert.
        before = maintainer.result
        generation = engine.database.generation
        assert not engine.database.delete("Family", (555, "Nope", "X"))
        assert engine.database.generation == generation
        assert maintainer.result is before
        assert maintainer.statistics.updates_seen == 0


class TestUpdateStreams:
    def test_mixed_stream_stays_consistent(self, maintainer, engine):
        engine.database.insert("Family", (40, "Histamine", "H1"))
        engine.database.insert("FamilyIntro", (40, "histamine intro"))
        engine.database.insert("Ligand", (5, "Ligand-5", "peptide"))
        engine.database.delete("FamilyIntro", (11, "1st"))
        engine.database.insert("Committee", (40, "Curator Q"))
        maintainer.check_consistency()
        assert maintainer.statistics.updates_seen == 5

    def test_aggregate_citation_follows_updates(self, maintainer, engine):
        before_size = maintainer.citation().size()
        engine.database.insert("Family", (50, "Vasopressin", "V1desc"))
        engine.database.insert("FamilyIntro", (50, "vasopressin intro"))
        assert maintainer.citation().size() >= before_size

    def test_recompute_resets_baseline(self, maintainer, engine):
        engine.database.insert("Family", (60, "Melatonin", "M1"))
        engine.database.insert("FamilyIntro", (60, "melatonin intro"))
        result = maintainer.recompute()
        assert ("Melatonin",) in {tc.row for tc in result.tuple_citations}
        assert maintainer.statistics.full_recomputations >= 2


class TestWriters:
    def test_write_by_another_writer_shows_in_the_result(self, engine, paper_query):
        # The maintainer owns no write path: a write any holder of the
        # database makes is in the next read of the result.
        maintainer = IncrementalCitationMaintainer(engine, paper_query)
        assert maintainer.result.rows() == [("Adenosine",), ("Calcitonin",)]
        database = engine.database
        database.insert("Family", (20, "Orexin", "O1"))
        database.insert("FamilyIntro", (20, "orexin intro"))
        assert maintainer.result.rows() == [("Adenosine",), ("Calcitonin",), ("Orexin",)]
        maintainer.check_consistency()

    def test_invalidate_caches_does_not_recompile_a_formal_plan(
        self, engine, paper_query, monkeypatch
    ):
        # A formal plan reads only the query and the views, so an epoch move
        # re-executes the held plan; only economical plans compile again.
        maintainer = IncrementalCitationMaintainer(engine, paper_query)
        engine.invalidate_caches()
        engine.database.insert("Family", (20, "Orexin", "O1"))
        compiles = []
        compile_plan = engine.compile_plan
        monkeypatch.setattr(
            engine, "compile_plan", lambda *args: compiles.append(args) or compile_plan(*args)
        )
        result = maintainer.result
        assert compiles == []
        fresh = CitationEngine(
            engine.database, gtopdb.citation_views(), policy=CitationPolicy.union_everywhere()
        ).cite(paper_query)
        assert result.rows() == fresh.rows()
        assert [(tc.row, str(tc.expression), tc.records) for tc in result.tuple_citations] == [
            (tc.row, str(tc.expression), tc.records) for tc in fresh.tuple_citations
        ]

    def test_construction_leaves_the_engine_caches_alone(self, engine, paper_query):
        with CitationService(engine) as service:
            request = CitationRequest(query=paper_query)
            assert not service.submit(request).cached
            epoch = engine.cache_epoch
            IncrementalCitationMaintainer(engine, paper_query)
            assert engine.cache_epoch == epoch
            assert service.submit(request).cached
            assert service.metrics.counter("plan_compilations") == 1
