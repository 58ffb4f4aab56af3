"""Equivalence tests: ``CitationService.submit`` vs the underlying engines.

The acceptance bar of the API redesign: one ``submit(CitationRequest)`` path
serves all five backend families and returns citations identical to calling
the underlying engines directly — including on cache-warm second calls, with
the plan cache demonstrably applied to the CQ, union and temporal families.
"""

from __future__ import annotations

import pytest

from repro import CitationEngine, CitationPolicy, CitationService
from repro.api import (
    CitationRequest,
    RDFBackend,
    TemporalBackend,
    VersionedBackend,
)
from repro.core.temporal import TemporalCitationEngine, add_timestamps, timestamp_view
from repro.core.union_engine import cite_union
from repro.errors import CitationError
from repro.rdf.bgp import BGPQuery, TriplePattern
from repro.rdf.citation_rdf import ClassCitationView, RDFCitationEngine
from repro.rdf.ontology import Ontology
from repro.rdf.triples import RDF_TYPE, TripleStore
from repro.versioning.persistent import CitationResolver
from repro.versioning.version_store import VersionedDatabase
from repro.workloads import gtopdb

CQ = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
UCQ = (
    "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)\n"
    "Q(FName) :- Family(FID, FName, Desc)"
)
TEMPORAL_CQ = "Q(FName) :- Family(FID, FName, Desc, T), FamilyIntro(FID, Text, T2)"


def _same_cited_result(left, right) -> None:
    assert {tc.row for tc in left.tuple_citations} == {
        tc.row for tc in right.tuple_citations
    }
    assert left.citation.records == right.citation.records
    assert {tc.row: tc.records for tc in left.tuple_citations} == {
        tc.row: tc.records for tc in right.tuple_citations
    }


@pytest.fixture
def engine():
    return CitationEngine(
        gtopdb.paper_instance(),
        gtopdb.citation_views(extended=True),
        policy=CitationPolicy.default(),
    )


@pytest.fixture
def temporal_engine():
    base = gtopdb.paper_instance()
    db = add_timestamps(base, "2016", relations=["Family", "FamilyIntro"])
    db.insert("Family", (20, "Orexin", "O1", "2017"))
    db.insert("FamilyIntro", (20, "orexin intro", "2017"))
    views = [
        timestamp_view("Family", db.schema, extra_parameters=["FID"]),
        timestamp_view("FamilyIntro", db.schema),
    ]
    return TemporalCitationEngine(db, views)


@pytest.fixture
def rdf_engine():
    store = TripleStore(
        [
            ("r1", RDF_TYPE, "CellLine"),
            ("r1", "rdfs:label", "HeLa"),
            ("r1", "createdBy", "Smith Lab"),
            ("r2", RDF_TYPE, "Reagent"),
            ("r2", "rdfs:label", "Buffer X"),
        ]
    )
    ontology = Ontology()
    ontology.add_subclass("CellLine", "Reagent")
    ontology.add_subclass("Reagent", "Resource")
    views = [
        ClassCitationView("Resource", constants={"source": "eagle-i"}),
        ClassCitationView(
            "CellLine", property_map={"createdBy": "authors"}, priority=2
        ),
    ]
    return RDFCitationEngine(store, ontology, views)


@pytest.fixture
def resolver():
    versioned = VersionedDatabase(gtopdb.schema())
    source = gtopdb.paper_instance()
    for relation in source.relations():
        versioned.insert_many(relation.schema.name, relation.rows)
    versioned.commit("initial")
    versioned.insert("Family", (20, "Orexin", "O1"))
    versioned.insert("FamilyIntro", (20, "orexin intro"))
    versioned.commit("v1")
    return CitationResolver(versioned, gtopdb.citation_views())


class TestRelationalEquivalence:
    def test_submit_matches_engine_cite_cold_and_warm(self, engine):
        reference = CitationEngine(
            gtopdb.paper_instance(),
            gtopdb.citation_views(extended=True),
            policy=CitationPolicy.default(),
        ).cite(CQ)
        with CitationService(engine) as service:
            cold = service.submit(CitationRequest(query=CQ))
            warm = service.submit(CitationRequest(query=CQ))
            assert not cold.cached and warm.cached
            _same_cited_result(cold.unwrap(), reference)
            _same_cited_result(warm.unwrap(), reference)

    def test_warm_call_hits_plan_cache(self, engine):
        with CitationService(engine, cache_results=False) as service:
            service.submit(CitationRequest(query=CQ))
            service.submit(CitationRequest(query=CQ))
            assert service.metrics.counter("plan_compilations") == 1
            assert service.metrics.counter("plan_cache_hits") == 1
            backends = service.metrics.backend_stats()
            assert backends["relational"]["compilations"] == 1
            assert backends["relational"]["plan_hits"] == 1

    def test_policy_override_changes_records_and_skips_result_cache(self, engine):
        with CitationService(engine) as service:
            default = service.submit(CitationRequest(query=CQ)).unwrap()
            overridden = service.submit(
                CitationRequest(query=CQ, policy=CitationPolicy.union_everywhere())
            ).unwrap()
            # The override executed fresh (no cached-result reuse) and the
            # compiled plan was shared (plans are policy-independent).
            assert service.metrics.counter("executions") == 2
            assert service.metrics.counter("plan_compilations") == 1
            assert overridden.policy is not default.policy


class TestUnionEquivalence:
    def test_submit_matches_cite_union(self, engine):
        reference_engine = CitationEngine(
            gtopdb.paper_instance(),
            gtopdb.citation_views(extended=True),
            policy=CitationPolicy.default(),
        )
        reference = cite_union(reference_engine, UCQ)
        with CitationService(engine) as service:
            response = service.submit(CitationRequest(query=UCQ))
            assert response.backend == "union"
            result = response.unwrap()
            _same_cited_result(result, reference)
            assert result.result.rows == reference.result.rows
            assert result.per_disjunct_rewritings == reference.per_disjunct_rewritings
            assert result.uncovered_disjuncts == reference.uncovered_disjuncts

    def test_warm_union_call_is_cached_and_identical(self, engine):
        with CitationService(engine) as service:
            cold = service.submit(CitationRequest(query=UCQ))
            warm = service.submit(CitationRequest(query=UCQ))
            assert not cold.cached and warm.cached
            _same_cited_result(cold.unwrap(), warm.unwrap())
            assert service.metrics.backend_stats()["union"]["result_hits"] == 1

    def test_warm_union_call_hits_plan_cache(self, engine):
        with CitationService(engine, cache_results=False) as service:
            service.submit(CitationRequest(query=UCQ))
            service.submit(CitationRequest(query=UCQ))
            backends = service.metrics.backend_stats()
            assert backends["union"]["compilations"] == 1
            assert backends["union"]["plan_hits"] == 1
            assert backends["union"]["executions"] == 2

    def test_isomorphic_union_shares_cache_and_keeps_its_schema(self, engine):
        # Same head predicate, alpha-renamed variables, reordered atoms AND
        # reordered disjuncts: one fingerprint, one execution.
        renamed = (
            "Q(N) :- Family(F, N, D)\n"
            "Q(N) :- FamilyIntro(F, T), Family(F, N, D)"
        )
        with CitationService(engine) as service:
            original = service.submit(CitationRequest(query=UCQ)).unwrap()
            variant_response = service.submit(CitationRequest(query=renamed))
            assert variant_response.cached
            variant = variant_response.unwrap()
            assert variant.result.rows == original.result.rows
            assert variant.citation.records == original.citation.records
            assert [a.name for a in variant.result.schema.attributes] == ["N"]

    def test_mutation_invalidates_union_results(self, engine):
        with CitationService(engine) as service:
            before = service.submit(CitationRequest(query=UCQ)).unwrap()
            engine.database.insert("Family", (30, "Fresh family", "d"))
            after = service.submit(CitationRequest(query=UCQ)).unwrap()
            assert ("Fresh family",) in after.result.rows
            assert ("Fresh family",) not in before.result.rows


class TestTemporalEquivalence:
    def test_submit_matches_cite_as_of(self, temporal_engine):
        for era in ("2016", "2017"):
            reference = temporal_engine.cite_as_of(TEMPORAL_CQ, era)
            service = CitationService(backends=[TemporalBackend(temporal_engine)])
            response = service.submit(
                CitationRequest(query=TEMPORAL_CQ, backend="temporal", as_of=era)
            )
            result = response.unwrap()
            _same_cited_result(result, reference)
            assert result.result.rows == reference.result.rows
            service.close()

    def test_eras_get_separate_cache_slots(self, temporal_engine):
        # The era is a lifted constant: eras share one plan (one compile,
        # then one instantiation), and each keeps its own result entry.
        service = CitationService(backends=[TemporalBackend(temporal_engine)])
        requests = {
            era: CitationRequest(query=TEMPORAL_CQ, backend="temporal", as_of=era)
            for era in ("2016", "2017")
        }
        old = service.submit(requests["2016"]).unwrap()
        new = service.submit(requests["2017"]).unwrap()
        assert old.result.rows != new.result.rows
        assert service.metrics.counter("plan_compilations") == 1
        assert service.metrics.counter("plan_instantiations") == 1
        assert service.metrics.counter("result_cache_hits") == 0
        for era, result in (("2016", old), ("2017", new)):
            cached = service.submit(requests[era])
            assert cached.cached and cached.result is result
            reference = temporal_engine.cite_as_of(TEMPORAL_CQ, era)
            _same_cited_result(result, reference)
            assert result.result.rows == reference.result.rows
        assert service.metrics.counter("executions") == 2
        service.close()

    def test_warm_temporal_call_hits_plan_cache(self, temporal_engine):
        service = CitationService(
            backends=[TemporalBackend(temporal_engine)], cache_results=False
        )
        reference = temporal_engine.cite_as_of(TEMPORAL_CQ, "2017")
        request = CitationRequest(query=TEMPORAL_CQ, backend="temporal", as_of="2017")
        service.submit(request)
        warm = service.submit(request)
        _same_cited_result(warm.unwrap(), reference)
        backends = service.metrics.backend_stats()
        assert backends["temporal"]["compilations"] == 1
        assert backends["temporal"]["plan_hits"] == 1
        service.close()

    def test_as_of_entry_follows_the_change_log(self, temporal_engine):
        # The temporal backend serves from the relational engine, so an era's
        # entry is brought forward like any other: kept across a write no
        # view reads, executed again after a write to a relation they read.
        database = temporal_engine.engine.database
        service = CitationService(backends=[TemporalBackend(temporal_engine)])
        request = CitationRequest(query=TEMPORAL_CQ, backend="temporal", as_of="2017")
        first = service.submit(request)
        database.insert("Ligand", (9100, "Ligand-X", "peptide"))
        kept = service.submit(request)
        assert kept.cached and kept.result is first.result
        assert service.metrics.counter("executions") == 1
        database.insert("Family", (21, "Apelin", "A1", "2017"))
        database.insert("FamilyIntro", (21, "apelin intro", "2017"))
        fresh = service.submit(request)
        assert not fresh.cached
        assert service.metrics.counter("executions") == 2
        assert ("Apelin",) in fresh.result.result.rows
        _same_cited_result(fresh.unwrap(), temporal_engine.cite_as_of(TEMPORAL_CQ, "2017"))
        service.close()

    def test_unrestricted_temporal_request(self, temporal_engine):
        reference = temporal_engine.cite(TEMPORAL_CQ)
        service = CitationService(backends=[TemporalBackend(temporal_engine)])
        result = service.submit(
            CitationRequest(query=TEMPORAL_CQ, backend="temporal")
        ).unwrap()
        _same_cited_result(result, reference)
        service.close()


class TestRDFEquivalence:
    BGP = BGPQuery(("s",), (TriplePattern("?s", RDF_TYPE, "CellLine"),))

    def test_submit_matches_cite_query(self, rdf_engine):
        solutions, citation = rdf_engine.cite_query(self.BGP)
        service = CitationService(backends=[RDFBackend(rdf_engine)])
        response = service.submit(CitationRequest(query=self.BGP))
        result = response.unwrap()
        assert result.solutions == solutions
        assert result.citation.records == citation.records
        assert response.row_count == len(solutions)
        service.close()

    def test_warm_rdf_call_served_from_result_cache(self, rdf_engine):
        service = CitationService(backends=[RDFBackend(rdf_engine)])
        cold = service.submit(CitationRequest(query=self.BGP))
        warm = service.submit(CitationRequest(query=self.BGP))
        assert not cold.cached and warm.cached
        assert warm.unwrap().citation.records == cold.unwrap().citation.records
        # No plan cache for BGPs: the phases to skip are parse+execute only.
        assert service.metrics.counter("plan_compilations") == 0
        assert service.metrics.backend_stats()["rdf"]["result_hits"] == 1
        service.close()

    def test_store_mutation_invalidates_rdf_results(self, rdf_engine):
        service = CitationService(backends=[RDFBackend(rdf_engine)])
        before = service.submit(CitationRequest(query=self.BGP)).unwrap()
        rdf_engine.store.add(("r9", RDF_TYPE, "CellLine"))
        after = service.submit(CitationRequest(query=self.BGP)).unwrap()
        assert {s["s"] for s in before.solutions} == {"r1"}
        assert {s["s"] for s in after.solutions} == {"r1", "r9"}
        assert service.metrics.counter("executions") == 2
        service.close()

    def test_same_shape_different_projection_names_do_not_collide(self, rdf_engine):
        other = BGPQuery(("x",), (TriplePattern("?x", RDF_TYPE, "CellLine"),))
        service = CitationService(backends=[RDFBackend(rdf_engine)])
        first = service.submit(CitationRequest(query=self.BGP)).unwrap()
        second = service.submit(CitationRequest(query=other)).unwrap()
        assert {tuple(s) for s in first.solutions} == {("s",)}
        assert {tuple(s) for s in second.solutions} == {("x",)}
        assert service.metrics.counter("result_cache_hits") == 0
        service.close()


class TestVersionedEquivalence:
    QUERY = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"

    def test_submit_matches_cite_at_per_version(self, resolver):
        service = CitationService(backends=[VersionedBackend(resolver)])
        for version_id in (0, 1):
            reference = resolver.cite_at(self.QUERY, version_id)
            response = service.submit(
                CitationRequest(query=self.QUERY, as_of=version_id)
            )
            persistent = response.unwrap()
            assert persistent == reference
        service.close()

    def test_default_version_is_latest_committed(self, resolver):
        reference = resolver.cite_current(self.QUERY)
        service = CitationService(backends=[VersionedBackend(resolver)])
        persistent = service.submit(CitationRequest(query=self.QUERY)).unwrap()
        assert persistent == reference
        service.close()

    def test_warm_versioned_call_is_cached_and_identical(self, resolver):
        service = CitationService(backends=[VersionedBackend(resolver)])
        cold = service.submit(CitationRequest(query=self.QUERY, as_of=0))
        warm = service.submit(CitationRequest(query=self.QUERY, as_of=0))
        assert not cold.cached and warm.cached
        assert warm.unwrap() == cold.unwrap()
        assert service.metrics.counter("executions") == 1
        service.close()

    def test_versions_get_separate_cache_slots(self, resolver):
        service = CitationService(backends=[VersionedBackend(resolver)])
        v0 = service.submit(CitationRequest(query=self.QUERY, as_of=0)).unwrap()
        v1 = service.submit(CitationRequest(query=self.QUERY, as_of=1)).unwrap()
        assert v0.content_hash != v1.content_hash
        assert service.metrics.counter("result_cache_hits") == 0
        service.close()

    def test_non_integer_version_rejected(self, resolver):
        service = CitationService(backends=[VersionedBackend(resolver)])
        response = service.submit(CitationRequest(query=self.QUERY, as_of="v0"))
        assert not response.ok and isinstance(response.error, CitationError)
        service.close()


class TestMixedBatches:
    def test_submit_batch_spans_backends_and_deduplicates(
        self, engine, temporal_engine
    ):
        with CitationService(
            engine, backends=[TemporalBackend(temporal_engine)]
        ) as service:
            requests = [
                CitationRequest(query=CQ),
                CitationRequest(query=UCQ),
                CitationRequest(query=CQ),  # duplicate: deduplicated in-batch
                CitationRequest(query=TEMPORAL_CQ, backend="temporal", as_of="2017"),
                CitationRequest(query="broken ::"),
            ]
            responses = service.submit_batch(requests)
            assert [r.ok for r in responses] == [True, True, True, True, False]
            assert [r.backend for r in responses[:4]] == [
                "relational",
                "union",
                "relational",
                "temporal",
            ]
            assert responses[2].cached
            assert service.metrics.counter("deduplicated") == 1
            assert service.metrics.counter("requests") == 5
            _same_cited_result(responses[0].unwrap(), responses[2].unwrap())

    def test_policy_override_is_never_deduplicated(self, engine):
        # A request carrying a policy override must not share an execution
        # with (or serve as representative for) plain requests of the same
        # shape: its citations are evaluated under a different policy.
        with CitationService(engine) as service:
            responses = service.submit_batch(
                [
                    CitationRequest(query=CQ),
                    CitationRequest(
                        query=CQ, policy=CitationPolicy.union_everywhere()
                    ),
                    CitationRequest(query=CQ),
                ]
            )
            assert all(response.ok for response in responses)
            assert responses[1].unwrap().policy is not responses[0].unwrap().policy
            assert service.metrics.counter("executions") == 2
            assert service.metrics.counter("deduplicated") == 1
            # Plans are policy-free and still shared across all three.
            assert service.metrics.counter("plan_compilations") == 1

    def test_resolver_engine_cache_is_bounded(self, resolver):
        resolver.max_cached_engines = 1
        resolver.engine_for(0)
        resolver.engine_for(1)
        assert list(resolver._engines) == [1]
        resolver.engine_for(0)  # re-materialised, evicting version 1
        assert list(resolver._engines) == [0]

    def test_batch_timeout_isolated(self, engine, monkeypatch):
        import time as time_module

        original = engine.execute_plan

        def slow_execute(plan, query=None):
            time_module.sleep(0.25)
            return original(plan, query)

        monkeypatch.setattr(engine, "execute_plan", slow_execute)
        with CitationService(engine) as service:
            responses = service.submit_batch(
                [CitationRequest(query=CQ)], timeout=0.01
            )
            assert not responses[0].ok
            assert isinstance(responses[0].error, TimeoutError)
            assert service.metrics.counter("timeouts") == 1
