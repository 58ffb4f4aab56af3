"""Tests for the CitationService facade: caching, batching, concurrency."""

from __future__ import annotations

import time

import pytest

import repro.core.engine as engine_module
from repro import CitationEngine, CitationPolicy, CitationRequest, CitationService, parse_query
from repro.core.incremental import IncrementalCitationMaintainer
from repro.errors import NoRewritingError
from repro.workloads import gtopdb


def cite(service, query, mode=None):
    """Serve one conjunctive query through ``submit``; raise its error."""
    return service.submit(CitationRequest(query=query, mode=mode)).unwrap()


def requests_for(queries):
    return [CitationRequest(query=query) for query in queries]


def _same_cited_result(left, right) -> None:
    """Assert two cited results agree on answers and citations."""
    assert {tc.row for tc in left.tuple_citations} == {
        tc.row for tc in right.tuple_citations
    }
    assert left.citation.records == right.citation.records
    left_by_row = {tc.row: tc.records for tc in left.tuple_citations}
    right_by_row = {tc.row: tc.records for tc in right.tuple_citations}
    assert left_by_row == right_by_row


@pytest.fixture
def db():
    return gtopdb.generate(families=30, targets_per_family=2, ligands=40, seed=5)


@pytest.fixture
def engine(db):
    return CitationEngine(
        db, gtopdb.citation_views(extended=True), policy=CitationPolicy.default()
    )


@pytest.fixture
def service(engine):
    with CitationService(engine) as svc:
        yield svc


QUERY = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
QUERY_RENAMED = "Q(N) :- FamilyIntro(F, T), Family(F, N, D)"


class TestSingleRequests:
    def test_matches_engine_cite(self, service, engine):
        _same_cited_result(cite(service, QUERY), engine.cite(QUERY))

    def test_repeat_is_served_from_result_cache(self, service):
        first = service.submit(CitationRequest(query=QUERY))
        second = service.submit(CitationRequest(query=QUERY))
        assert not first.cached and second.cached
        _same_cited_result(first.result, second.result)
        assert service.metrics.counter("result_cache_hits") == 1
        assert service.metrics.counter("executions") == 1

    def test_renamed_query_reuses_cache_but_keeps_its_schema(self, service):
        cite(service, QUERY)
        result = cite(service, QUERY_RENAMED)
        assert [a.name for a in result.result.schema.attributes] == ["N"]
        assert str(result.query) == str(parse_query(QUERY_RENAMED))
        assert service.metrics.counter("plan_compilations") == 1

    def test_plan_cache_hit_when_results_not_cached(self, engine):
        with CitationService(engine, cache_results=False) as service:
            cite(service, QUERY)
            cite(service, QUERY)
            assert service.metrics.counter("plan_compilations") == 1
            assert service.metrics.counter("plan_cache_hits") == 1
            assert service.metrics.counter("executions") == 2

    def test_modes_are_cached_separately(self, service):
        cite(service, QUERY, mode="formal")
        cite(service, QUERY, mode="economical")
        assert service.metrics.counter("plan_compilations") == 2

    def test_error_is_raised_by_cite_and_reported_by_try_cite(self, service):
        with pytest.raises(NoRewritingError):
            cite(service, "Q(PName) :- Contributor(TID, PName)")
        response = service.submit(CitationRequest(query="Q(PName) :- Contributor(TID, PName)"))
        assert not response.ok and isinstance(response.error, NoRewritingError)
        with pytest.raises(NoRewritingError):
            response.unwrap()

    def test_fallback_engine_serves_uncovered_queries(self, db):
        engine = CitationEngine(
            db, gtopdb.citation_views(), on_no_rewriting="fallback"
        )
        with CitationService(engine) as service:
            result = cite(service, "Q(PName) :- Contributor(TID, PName)")
            assert result.used_fallback
            repeat = service.submit(CitationRequest(query="Q(PName) :- Contributor(TID, PName)"))
            assert repeat.cached and repeat.result.used_fallback


class TestInvalidation:
    def test_mutation_invalidates_cached_results(self, service, db):
        before = cite(service, QUERY)
        db.insert("Family", (9001, "Brand new family", "d"))
        db.insert("FamilyIntro", (9001, "intro text"))
        after = cite(service, QUERY)
        rows = {tc.row for tc in after.tuple_citations}
        assert ("Brand new family",) in rows
        assert ("Brand new family",) not in {tc.row for tc in before.tuple_citations}

    def test_mutation_reuses_data_independent_formal_plan(self, service, db):
        # Formal-mode plans read only the query and view definitions: a data
        # change must invalidate cached *results* but not the plan.
        cite(service, QUERY, mode="formal")
        db.insert("Family", (9002, "Another family", "d"))
        db.insert("FamilyIntro", (9002, "intro"))
        fresh = cite(service, QUERY, mode="formal")
        assert ("Another family",) in {tc.row for tc in fresh.tuple_citations}
        assert service.metrics.counter("plan_compilations") == 1
        assert service.metrics.counter("plan_cache_hits") == 1
        assert service.metrics.counter("executions") == 2

    def test_mutation_forces_recompilation_in_economical_mode(self, service, db):
        # Economical plans embed a cost-based selection made against the
        # data, so a mutation retires them.
        cite(service, QUERY, mode="economical")
        db.insert("Family", (9002, "Another family", "d"))
        cite(service, QUERY, mode="economical")
        assert service.metrics.counter("plan_compilations") == 2
        assert service.plan_cache.info().invalidations >= 1

    def test_delete_also_invalidates(self, service, db):
        cite(service, QUERY)
        intro_row = next(iter(db.relation("FamilyIntro").rows))
        db.delete("FamilyIntro", intro_row)
        fresh = cite(service, QUERY)
        _same_cited_result(fresh, service.engine.cite(QUERY))

    def test_write_no_view_or_citation_query_reads_keeps_the_entry(self, service, db):
        first = service.submit(CitationRequest(query=QUERY))
        db.insert("Ligand", (9100, "Ligand-X", "peptide"))
        again = service.submit(CitationRequest(query=QUERY))
        assert again.cached and again.result is first.result
        assert service.metrics.counter("executions") == 1
        assert service.metrics.counter("result_cache_patches") == 0

    def test_write_only_citation_queries_read_patches_the_entry(self, service, engine, db):
        first = service.submit(CitationRequest(query=QUERY))
        family = min(row[0] for row in db.relation("FamilyIntro").rows)
        db.insert("Committee", (family, "A. Newcomer"))
        again = service.submit(CitationRequest(query=QUERY))
        assert again.cached and again.result is not first.result
        assert again.result.result is first.result.result  # the answer is shared
        assert service.metrics.counter("executions") == 1
        assert service.metrics.counter("result_cache_hits") == 1
        assert service.metrics.counter("result_cache_patches") == 1
        fresh = CitationEngine(db, engine.citation_views, policy=engine.policy).cite(QUERY)
        assert [
            (tc.row, str(tc.expression), tc.records) for tc in again.result.tuple_citations
        ] == [(tc.row, str(tc.expression), tc.records) for tc in fresh.tuple_citations]
        assert again.result.citation.records == fresh.citation.records
        assert str(again.result.citation.expression) == str(fresh.citation.expression)

    def test_log_overrun_forces_a_new_execution(self, monkeypatch):
        import repro.relational.database as database_module

        monkeypatch.setattr(database_module, "_CHANGE_LOG_LIMIT", 8)  # a short log
        db = gtopdb.generate(families=30, targets_per_family=2, ligands=40, seed=5)
        engine = CitationEngine(db, gtopdb.citation_views(extended=True))
        with CitationService(engine) as service:
            cite(service, QUERY)
            family = min(row[0] for row in db.relation("FamilyIntro").rows)
            db.insert("Committee", (family, "A. Newcomer"))  # reaches a record...
            for _ in range(5):  # ...then more changes than the log keeps
                db.insert("Ligand", (9200, "Churn", "synthetic"))
                db.delete("Ligand", (9200, "Churn", "synthetic"))
            response = service.submit(CitationRequest(query=QUERY))
            assert not response.cached
            assert service.metrics.counter("executions") == 2
            fresh = CitationEngine(db, gtopdb.citation_views(extended=True)).cite(QUERY)
            _same_cited_result(response.result, fresh)

    def test_forced_engine_invalidation_drops_service_caches(self, service):
        cite(service, QUERY)
        service.engine.invalidate_caches()
        response = service.submit(CitationRequest(query=QUERY))
        assert not response.cached
        assert service.metrics.counter("plan_compilations") == 2

    def test_explicit_service_invalidate(self, service):
        cite(service, QUERY)
        service.invalidate()
        assert len(service.plan_cache) == 0 and len(service.result_cache) == 0

    def test_view_materialization_hoisted_per_generation(self, engine, monkeypatch):
        calls = {"count": 0}
        original = engine_module.materialize_views

        def counting(views, database):
            calls["count"] += 1
            return original(views, database)

        monkeypatch.setattr(engine_module, "materialize_views", counting)
        with CitationService(engine, cache_results=False) as service:
            for _ in range(4):
                cite(service, QUERY)
            assert calls["count"] == 1
            # V1 and V2 are one atom over Family keeping its key: patched.
            engine.database.insert("Family", (9003, "Yet another family", "d"))
            cite(service, QUERY)
            assert calls["count"] == 1
            assert engine.refresh_stats()["views_patched"] == 2
            # Drift names no rows, so both are materialized again, once.
            engine.database.relation("Family").insert((9004, "Drifted family", "d"))
            cite(service, QUERY)
            cite(service, QUERY)
            assert calls["count"] == 2
            assert engine.refresh_stats()["views_rematerialized"] == 2


class TestBatching:
    def test_cite_batch_matches_sequential(self, service, engine):
        queries = [QUERY, QUERY_RENAMED, "Q2(FID, FName, Desc) :- Family(FID, FName, Desc)"]
        batch = [response.unwrap() for response in service.submit_batch(requests_for(queries))]
        for query, result in zip(queries, batch):
            _same_cited_result(result, engine.cite(query))

    def test_cite_batch_deduplicates(self, service):
        queries = [QUERY, QUERY_RENAMED, QUERY, QUERY_RENAMED, QUERY]
        for response in service.submit_batch(requests_for(queries)):
            response.unwrap()
        assert service.metrics.counter("executions") == 1
        assert service.metrics.counter("deduplicated") == 4

    def test_cite_many_matches_sequential(self, engine):
        queries = list(gtopdb.example_queries()) * 2
        sequential = [engine.cite(query) for query in queries]
        with CitationService(engine, max_workers=6) as service:
            responses = service.submit_batch(requests_for(queries))
        assert len(responses) == len(queries)
        assert all(response.ok for response in responses)
        for expected, response in zip(sequential, responses):
            _same_cited_result(response.result, expected)
            assert (
                expected.result.schema.attributes
                == response.result.result.schema.attributes
            )

    def test_cite_many_error_isolation(self, service):
        queries = [
            QUERY,
            "completely invalid ::",
            "Q(PName) :- Contributor(TID, PName)",
            QUERY_RENAMED,
        ]
        responses = service.submit_batch(requests_for(queries))
        assert [response.ok for response in responses] == [True, False, False, True]
        assert service.metrics.counter("errors") == 2

    def test_cite_many_shares_error_across_duplicates(self, service):
        bad = "Q(PName) :- Contributor(TID, PName)"
        responses = service.submit_batch(requests_for([bad, bad]))
        assert all(not response.ok for response in responses)
        assert all(
            isinstance(response.error, NoRewritingError) for response in responses
        )

    def test_cite_many_timeout_isolated(self, service, engine, monkeypatch):
        original = engine.execute_plan

        def slow_execute(plan, query=None):
            time.sleep(0.25)
            return original(plan, query)

        monkeypatch.setattr(engine, "execute_plan", slow_execute)
        responses = service.submit_batch(requests_for([QUERY]), timeout=0.01)
        assert not responses[0].ok
        assert isinstance(responses[0].error, TimeoutError)
        assert service.metrics.counter("timeouts") == 1

    def test_warm_precompiles_plans(self, service):
        compiled = service.warm(gtopdb.example_queries())
        assert compiled == len(gtopdb.example_queries())
        assert service.warm(gtopdb.example_queries()) == 0


class TestStats:
    def test_stats_snapshot_shape(self, service):
        cite(service, QUERY)
        cite(service, QUERY)
        stats = service.stats()
        assert stats["counters"]["requests"] == 2
        assert stats["counters"]["result_cache_hits"] == 1
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
        assert stats["plan_cache"]["size"] == 1
        assert stats["engine"]["citation_views"] == 6
        assert "request" in stats["latency_ms"]
        snapshot = stats["latency_ms"]["request"]
        assert snapshot["count"] == 2
        assert snapshot["max_ms"] >= snapshot["min_ms"] >= 0.0

    def test_refresh_counters_show_how_precise_invalidation_is(self, service, engine, db):
        q5 = CitationRequest(
            query="Q5(TName, FName) :- Target(TID, FID, TName, Type), Family(FID, FName, Desc)"
        )
        assert service.submit(q5).ok
        tid = min(row[0] for row in db.relation("Target").rows)
        db.insert("Contributor", (tid, "A. Newcomer"))
        assert service.submit(q5).ok
        # Only V4(tid) was evicted, and no view reads Contributor.
        refresh = service.stats()["engine"]["refresh"]
        assert refresh["records_evicted"] == 1 and refresh["records_kept"] > 1
        assert refresh["full_drops"] == refresh["views_rematerialized"] == 0
        row = min(db.relation("Interaction").rows)
        db.delete("Interaction", row)
        engine.view_relations()  # patches V6 only
        refresh = service.stats()["engine"]["refresh"]
        assert refresh["views_patched"] == 1 and refresh["views_rematerialized"] == 0
        db.relation("Interaction").insert(row)  # drift: re-materializes V6 only
        engine.view_relations()
        refresh = service.stats()["engine"]["refresh"]
        assert refresh["views_patched"] == 1 and refresh["views_rematerialized"] == 1
        exposition = service.to_prometheus()
        for name in (
            "records_kept",
            "records_evicted",
            "full_drops",
            "views_patched",
            "views_rematerialized",
        ):
            assert f"repro_engine_refresh_{name} {refresh[name]}\n" in exposition

    def test_mutations_observed_counter(self, service, db):
        db.insert("Ligand", (9100, "Ligand-X", "peptide"))
        assert service.metrics.counter("mutations_observed") == 1

    def test_close_detaches_mutation_listener(self, engine, db):
        service = CitationService(engine)
        service.close()
        db.insert("Ligand", (9101, "Ligand-Y", "peptide"))
        assert service.metrics.counter("mutations_observed") == 0


class TestGenerationTracking:
    def test_generation_counts_applied_changes_only(self, db):
        start = db.generation
        assert db.insert("Ligand", (9200, "L", "peptide"))
        assert not db.insert("Ligand", (9200, "L", "peptide"))  # duplicate: no-op
        assert db.generation == start + 1
        assert db.delete("Ligand", (9200, "L", "peptide"))
        assert db.generation == start + 2

    def test_mutation_listeners_fire_and_detach(self, db):
        seen = []
        listener = lambda kind, relation, row: seen.append((kind, relation))
        db.add_mutation_listener(listener)
        db.insert("Ligand", (9201, "L", "peptide"))
        db.remove_mutation_listener(listener)
        db.delete("Ligand", (9201, "L", "peptide"))
        assert seen == [("insert", "Ligand")]


class TestIncrementalHooks:
    def test_maintainer_classifies_writes(self):
        # The maintainer follows the database's change log: each read
        # consumes the generations written since the last one.
        engine = CitationEngine(
            gtopdb.paper_instance(),
            gtopdb.citation_views(),
            policy=CitationPolicy.union_everywhere(),
        )
        maintainer = IncrementalCitationMaintainer(engine, gtopdb.paper_query())
        statistics = maintainer.statistics
        database = engine.database
        # Two answer changes: a family and its introduction add a row.
        database.insert("Family", (50, "Maintained family", "d"))
        database.insert("FamilyIntro", (50, "intro"))
        assert ("Maintained family",) in maintainer.result.rows()
        assert (statistics.updates_seen, statistics.updates_ignored) == (2, 0)
        assert (statistics.rows_recomputed, statistics.rows_added) == (1, 1)
        # A Ligand write reaches nothing the query cites: ignored.
        held = maintainer.result
        database.insert("Ligand", (50, "L", "peptide"))
        assert maintainer.result is held
        assert (statistics.updates_seen, statistics.updates_ignored) == (3, 1)
        # A Committee write changes records only: no row is re-derived.
        database.insert("Committee", (50, "New curator"))
        records = maintainer.result.citation_for(("Maintained family",)).records
        assert any("New curator" in str(record) for record in records)
        assert (statistics.updates_seen, statistics.updates_ignored) == (4, 1)
        assert statistics.rows_recomputed == 1
        maintainer.check_consistency()

    def test_maintainer_consistent_with_generation_aware_caches(self):
        engine = CitationEngine(
            gtopdb.paper_instance(),
            gtopdb.citation_views(),
            policy=CitationPolicy.union_everywhere(),
        )
        maintainer = IncrementalCitationMaintainer(engine, gtopdb.paper_query())
        engine.database.insert("Family", (60, "Calcitonin", "dup-name"))
        engine.database.insert("FamilyIntro", (60, "intro"))
        engine.database.delete("FamilyIntro", (11, "1st"))
        maintainer.check_consistency()


class TestCompiledProgramsThroughThePlanCache:
    def test_plan_hit_carries_compiled_programs(self, service):
        query = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
        cite(service, query)  # cold: compiles the plan and its programs
        plan, hit = service.plan_for(query)
        assert hit
        assert plan.rewritings  # a real plan, not a fallback
        assert len(plan.compiled) == len(plan.rewritings)
        # A structurally identical (renamed) query hits the same plan, so it
        # reuses the same compiled join programs.
        renamed = "Q(N) :- FamilyIntro(F, T), Family(F, N, D)"
        twin, twin_hit = service.plan_for(renamed)
        assert twin_hit and twin is plan


def _rows_and_records(result) -> list:
    return [(tc.row, str(tc.expression), tc.records) for tc in result.tuple_citations]


class TestPlanTemplates:
    """Formal plans are keyed by shape: point queries that differ only in
    their constants share one compile, and each gets its own instantiation."""

    def test_plan_for_hands_out_the_plan_of_its_own_constants(self, engine, service):
        first, first_hit = service.plan_for("Q(N) :- Family(5, N, D)")
        second, second_hit = service.plan_for("Q(N) :- Family(7, N, D)")
        assert not first_hit and second_hit
        assert second.constants == (7,) and second.query == parse_query(
            "Q(N) :- Family(7, N, D)"
        )
        fresh = engine.cite("Q(N) :- Family(7, N, D)")
        assert _rows_and_records(engine.execute_plan(second)) == _rows_and_records(fresh)
        assert engine.execute_plan(first).rows() != fresh.rows()
        counters = service.stats()["counters"]
        assert counters["plan_compilations"] == 1
        assert counters["plan_instantiations"] == 1
        # The template stays cached for its own constants, and the
        # instantiation for its own.
        again, again_hit = service.plan_for("Q(N) :- Family(5, N, D)")
        assert again_hit and again is first
        repeat, repeat_hit = service.plan_for("Q(M) :- Family(7, M, E)")
        assert repeat_hit and repeat is second
        assert service.stats()["counters"]["plan_instantiations"] == 1

    def test_batch_of_constant_variants_is_not_deduplicated(self, engine, service):
        texts = [
            "Q(T, N) :- Target(T, 3, N, X), Family(3, F, D)",
            "Q(T, N) :- Target(T, 4, N, X), Family(4, F, D)",
        ]
        responses = service.submit_batch([CitationRequest(query=text) for text in texts])
        assert [response.ok for response in responses] == [True, True]
        assert responses[0].fingerprint != responses[1].fingerprint
        for text, response in zip(texts, responses):
            assert not response.cached
            assert _rows_and_records(response.result) == _rows_and_records(engine.cite(text))
        counters = service.stats()["counters"]
        assert counters["deduplicated"] == 0 and counters["executions"] == 2
        assert counters["plan_compilations"] + counters["plan_instantiations"] == 2

    def test_equal_constants_of_different_types_key_by_value(self, db):
        # With analysis off the core keeps all three atoms, and the search,
        # treating 1 and True as one constant, keeps one FamilyIntro atom:
        # the plan is no template for a query whose two constants differ.
        db.insert("Family", (99, "Family without intro", "d"))
        engine = CitationEngine(db, gtopdb.citation_views(extended=True), analysis="off")
        mixed = "Q(N) :- Family(1, N, D), FamilyIntro(1, X), FamilyIntro(True, Y)"
        other = "Q(N) :- Family(99, N, D), FamilyIntro(99, X), FamilyIntro(True, Y)"
        assert engine.shape(mixed).constants == ()
        with CitationService(engine) as service:
            assert cite(service, mixed).rows()
            assert cite(service, other).rows() == engine.cite(other).rows() == []
            counters = service.stats()["counters"]
            assert counters["plan_compilations"] == 2
            assert counters["plan_instantiations"] == 0


class TestEvaluationMetricsExposure:
    def test_stats_are_json_serialisable_with_evaluation_block(self, service):
        import json

        cite(service, QUERY)
        evaluation = service.stats()["evaluation"]
        assert set(evaluation) == {"evaluations", "mean_ms", "tracked_queries", "sharding"}
        assert evaluation["evaluations"] >= 1  # one per rewriting, at least
        payload = json.dumps(service.stats(), sort_keys=True)
        assert '"evaluations"' in payload
