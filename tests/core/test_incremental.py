"""Tests for incremental citation maintenance (citation evolution)."""

import pytest

from repro import CitationEngine, CitationPolicy, IncrementalCitationMaintainer
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
    def test_update_to_unrelated_relation_is_ignored(self, maintainer):
        maintainer.insert("Ligand", (1, "Ligand-1", "peptide"))
        assert maintainer.statistics.updates_ignored >= 1
        assert maintainer.statistics.rows_recomputed == 0
        maintainer.check_consistency()

    def test_committee_update_refreshes_snippets_only(self, maintainer):
        # Committee feeds only the *citation* query of V1, not the view extent:
        # the answer set is unchanged but the new member must appear in the
        # refreshed citation records.
        before_rows = {tc.row for tc in maintainer.result.tuple_citations}
        maintainer.insert("Committee", (13, "New Member"))
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
        maintainer.insert("Contributor", (target, "A. Newcomer"))
        assert maintainer.statistics.updates_ignored == 0
        assert engine.cache_epoch == epoch
        assert maintainer.statistics.full_recomputations == 1
        assert maintainer.statistics.rows_recomputed == len(maintainer.result)
        maintainer.check_consistency()

    def test_duplicate_insert_ignored(self, maintainer):
        maintainer.insert("Family", (11, "Calcitonin", "C1"))
        assert maintainer.statistics.updates_ignored >= 1


class TestInserts:
    def test_new_family_with_intro_adds_row(self, maintainer):
        maintainer.insert("Family", (20, "Orexin", "O1"))
        maintainer.insert("FamilyIntro", (20, "orexin intro"))
        rows = {tc.row for tc in maintainer.result.tuple_citations}
        assert ("Orexin",) in rows
        maintainer.check_consistency()

    def test_family_without_intro_does_not_add_row(self, maintainer):
        maintainer.insert("Family", (21, "Ghrelin", "G1"))
        rows = {tc.row for tc in maintainer.result.tuple_citations}
        assert ("Ghrelin",) not in rows
        maintainer.check_consistency()

    def test_new_binding_for_existing_row_updates_citation(self, maintainer):
        # A third family named Calcitonin adds a binding (and a CV1 citation).
        before = maintainer.result.citation_for(("Calcitonin",))
        maintainer.insert("Family", (30, "Calcitonin", "C3"))
        maintainer.insert("FamilyIntro", (30, "3rd"))
        after = maintainer.result.citation_for(("Calcitonin",))
        assert len(after.records) > len(before.records)
        maintainer.check_consistency()

    def test_statistics_track_recomputed_rows(self, maintainer):
        maintainer.insert("Family", (20, "Orexin", "O1"))
        maintainer.insert("FamilyIntro", (20, "orexin intro"))
        assert maintainer.statistics.rows_recomputed >= 1
        assert maintainer.statistics.rows_added >= 1


class TestDeletes:
    def test_delete_intro_removes_row(self, maintainer):
        maintainer.delete("FamilyIntro", (13, "Adenosine receptors intro"))
        rows = {tc.row for tc in maintainer.result.tuple_citations}
        assert ("Adenosine",) not in rows
        maintainer.check_consistency()

    def test_delete_one_of_two_bindings_keeps_row(self, maintainer):
        maintainer.delete("FamilyIntro", (12, "2nd"))
        rows = {tc.row for tc in maintainer.result.tuple_citations}
        assert ("Calcitonin",) in rows
        citation = maintainer.result.citation_for(("Calcitonin",))
        # only the FID=11 committee citation remains among parameterized records
        parameterized = {r["parameters"] for r in citation.records if "parameters" in r}
        assert parameterized == {(("FID", 11),)}
        maintainer.check_consistency()

    def test_delete_unrelated_row_is_cheap(self, maintainer, engine):
        engine.database.insert("Ligand", (7, "Ligand-7", "peptide"))
        maintainer.delete("Ligand", (7, "Ligand-7", "peptide"))
        assert maintainer.statistics.rows_recomputed == 0

    def test_delete_missing_row_ignored(self, maintainer):
        maintainer.delete("Family", (555, "Nope", "X"))
        assert maintainer.statistics.updates_ignored >= 1


class TestUpdateStreams:
    def test_mixed_stream_stays_consistent(self, maintainer):
        maintainer.insert("Family", (40, "Histamine", "H1"))
        maintainer.insert("FamilyIntro", (40, "histamine intro"))
        maintainer.insert("Ligand", (5, "Ligand-5", "peptide"))
        maintainer.delete("FamilyIntro", (11, "1st"))
        maintainer.insert("Committee", (40, "Curator Q"))
        maintainer.check_consistency()
        assert maintainer.statistics.updates_seen == 5

    def test_aggregate_citation_follows_updates(self, maintainer):
        before_size = maintainer.citation().size()
        maintainer.insert("Family", (50, "Vasopressin", "V1desc"))
        maintainer.insert("FamilyIntro", (50, "vasopressin intro"))
        assert maintainer.citation().size() >= before_size

    def test_recompute_resets_baseline(self, maintainer):
        maintainer.insert("Family", (60, "Melatonin", "M1"))
        maintainer.insert("FamilyIntro", (60, "melatonin intro"))
        result = maintainer.recompute()
        assert ("Melatonin",) in {tc.row for tc in result.tuple_citations}
        assert maintainer.statistics.full_recomputations >= 2
