"""Cross-subsystem integration tests: SQL front-end, fixity, evolution, scale."""

import pytest

from repro import (
    CitationEngine,
    CitationPolicy,
    IncrementalCitationMaintainer,
    parse_sql,
)
from repro.core.schema_level import cite_schema_level
from repro.versioning import CitationResolver, VersionedDatabase
from repro.workloads import gtopdb


class TestSqlToCitation:
    def test_sql_query_gets_the_same_citation_as_datalog(self, paper_db, paper_views):
        engine = CitationEngine(paper_db, paper_views)
        sql_query = parse_sql(
            "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID",
            gtopdb.schema(),
        )
        datalog_query = gtopdb.paper_query()
        assert (
            engine.cite(sql_query).citation.records
            == engine.cite(datalog_query).citation.records
        )


class TestFixityLifecycle:
    def test_cite_evolve_resolve(self, paper_views):
        versioned = VersionedDatabase(gtopdb.schema())
        source = gtopdb.paper_instance()
        for relation in source.relations():
            versioned.insert_many(relation.schema.name, relation.rows)
        versioned.commit("release 1")

        resolver = CitationResolver(versioned, paper_views)
        persistent = resolver.cite_current(
            "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
        )

        # the database evolves: a family is renamed via delete + insert
        versioned.delete("FamilyIntro", (13, "Adenosine receptors intro"))
        versioned.delete("Committee", (13, "E. Faccenda"))
        versioned.delete("Family", (13, "Adenosine", "A1"))
        versioned.insert("Family", (13, "Adenosine receptors", "A1"))
        versioned.insert("Committee", (13, "E. Faccenda"))
        versioned.insert("FamilyIntro", (13, "updated intro"))
        versioned.commit("release 2")

        # the old citation still resolves to the old answer
        old = resolver.resolve(persistent)
        assert ("Adenosine",) in old.result.rows
        # a fresh citation sees the new answer
        fresh = resolver.cite_current(persistent.query_text)
        new = resolver.resolve(fresh)
        assert ("Adenosine receptors",) in new.result.rows
        assert resolver.has_drifted(persistent)

    def test_persistent_citation_survives_serialisation(self, paper_views):
        versioned = VersionedDatabase(gtopdb.schema())
        source = gtopdb.paper_instance()
        for relation in source.relations():
            versioned.insert_many(relation.schema.name, relation.rows)
        versioned.commit("release 1")
        resolver = CitationResolver(versioned, paper_views)
        persistent = resolver.cite_current(
            "Q(FID, FName, Desc) :- Family(FID, FName, Desc)"
        )
        from repro.versioning.persistent import PersistentCitation

        reloaded = PersistentCitation.from_json(persistent.to_json())
        assert resolver.resolve(reloaded).result.rows == {
            (11, "Calcitonin", "C1"),
            (12, "Calcitonin", "C2"),
            (13, "Adenosine", "A1"),
        }


class TestEvolutionAtScale:
    def test_incremental_maintenance_on_generated_database(self):
        db = gtopdb.generate(families=30, seed=21)
        engine = CitationEngine(
            db, gtopdb.citation_views(), policy=CitationPolicy.union_everywhere()
        )
        maintainer = IncrementalCitationMaintainer(engine, gtopdb.paper_query())
        next_fid = 1000
        for step in range(5):
            db.insert("Family", (next_fid + step, f"NewFam {step}", "desc"))
            db.insert("FamilyIntro", (next_fid + step, f"intro {step}"))
            db.insert("Ligand", (5000 + step, f"L{step}", "peptide"))
        maintainer.check_consistency()
        assert maintainer.statistics.updates_seen == 15


class TestScale:
    def test_economical_mode_handles_larger_instances(self):
        db = gtopdb.generate(families=200, targets_per_family=3, ligands=300, seed=8)
        engine = CitationEngine(db, gtopdb.citation_views(extended=True))
        result = engine.cite(gtopdb.paper_query(), mode="economical")
        assert len(result) > 0
        assert result.citation.size() <= 10

    def test_schema_level_and_tuple_level_agree_at_scale(self):
        db = gtopdb.generate(families=100, seed=8)
        engine = CitationEngine(
            db, gtopdb.citation_views(), policy=CitationPolicy.union_everywhere()
        )
        schema_level = cite_schema_level(engine, gtopdb.paper_query())
        tuple_level = engine.cite(gtopdb.paper_query(), mode="economical")
        assert schema_level.citation.records == tuple_level.citation.records

    @pytest.mark.parametrize("policy_name", ["default", "union_everywhere", "joined"])
    def test_all_policies_run_end_to_end(self, policy_name):
        db = gtopdb.generate(families=25, seed=4)
        policy = getattr(CitationPolicy, policy_name)()
        engine = CitationEngine(db, gtopdb.citation_views(), policy=policy)
        result = engine.cite(gtopdb.paper_query())
        assert result.citation.record_count() >= 1

    def test_multiple_queries_share_engine_caches(self):
        db = gtopdb.generate(families=40, seed=4)
        engine = CitationEngine(db, gtopdb.citation_views(extended=True))
        for query in gtopdb.example_queries():
            try:
                engine.cite(query, mode="economical")
            except Exception as error:  # only NoRewritingError is acceptable
                from repro.errors import NoRewritingError

                assert isinstance(error, NoRewritingError)
