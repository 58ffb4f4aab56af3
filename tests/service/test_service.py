"""Tests for the CitationService facade: caching, batching, concurrency."""

from __future__ import annotations

import time

import pytest

import repro.core.engine as engine_module
from repro import CitationEngine, CitationPolicy, CitationRequest, CitationService, parse_query
from repro.core.incremental import IncrementalCitationMaintainer
from repro.errors import NoRewritingError
from repro.workloads import gtopdb


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
        _same_cited_result(service.cite(QUERY), engine.cite(QUERY))

    def test_repeat_is_served_from_result_cache(self, service):
        first = service.try_cite(QUERY)
        second = service.try_cite(QUERY)
        assert not first.cached and second.cached
        _same_cited_result(first.result, second.result)
        assert service.metrics.counter("result_cache_hits") == 1
        assert service.metrics.counter("executions") == 1

    def test_renamed_query_reuses_cache_but_keeps_its_schema(self, service):
        service.cite(QUERY)
        result = service.cite(QUERY_RENAMED)
        assert [a.name for a in result.result.schema.attributes] == ["N"]
        assert str(result.query) == str(parse_query(QUERY_RENAMED))
        assert service.metrics.counter("plan_compilations") == 1

    def test_plan_cache_hit_when_results_not_cached(self, engine):
        with CitationService(engine, cache_results=False) as service:
            service.cite(QUERY)
            service.cite(QUERY)
            assert service.metrics.counter("plan_compilations") == 1
            assert service.metrics.counter("plan_cache_hits") == 1
            assert service.metrics.counter("executions") == 2

    def test_modes_are_cached_separately(self, service):
        service.cite(QUERY, mode="formal")
        service.cite(QUERY, mode="economical")
        assert service.metrics.counter("plan_compilations") == 2

    def test_error_is_raised_by_cite_and_reported_by_try_cite(self, service):
        with pytest.raises(NoRewritingError):
            service.cite("Q(PName) :- Contributor(TID, PName)")
        response = service.try_cite("Q(PName) :- Contributor(TID, PName)")
        assert not response.ok and isinstance(response.error, NoRewritingError)
        with pytest.raises(NoRewritingError):
            response.unwrap()

    def test_fallback_engine_serves_uncovered_queries(self, db):
        engine = CitationEngine(
            db, gtopdb.citation_views(), on_no_rewriting="fallback"
        )
        with CitationService(engine) as service:
            result = service.cite("Q(PName) :- Contributor(TID, PName)")
            assert result.used_fallback
            repeat = service.try_cite("Q(PName) :- Contributor(TID, PName)")
            assert repeat.cached and repeat.result.used_fallback


class TestInvalidation:
    def test_mutation_invalidates_cached_results(self, service, db):
        before = service.cite(QUERY)
        db.insert("Family", (9001, "Brand new family", "d"))
        db.insert("FamilyIntro", (9001, "intro text"))
        after = service.cite(QUERY)
        rows = {tc.row for tc in after.tuple_citations}
        assert ("Brand new family",) in rows
        assert ("Brand new family",) not in {tc.row for tc in before.tuple_citations}

    def test_mutation_reuses_data_independent_formal_plan(self, service, db):
        # Formal-mode plans read only the query and view definitions: a data
        # change must invalidate cached *results* but not the plan.
        service.cite(QUERY, mode="formal")
        db.insert("Family", (9002, "Another family", "d"))
        db.insert("FamilyIntro", (9002, "intro"))
        fresh = service.cite(QUERY, mode="formal")
        assert ("Another family",) in {tc.row for tc in fresh.tuple_citations}
        assert service.metrics.counter("plan_compilations") == 1
        assert service.metrics.counter("plan_cache_hits") == 1
        assert service.metrics.counter("executions") == 2

    def test_mutation_forces_recompilation_in_economical_mode(self, service, db):
        # Economical plans embed a cost-based selection made against the
        # data, so a mutation retires them.
        service.cite(QUERY, mode="economical")
        db.insert("Family", (9002, "Another family", "d"))
        service.cite(QUERY, mode="economical")
        assert service.metrics.counter("plan_compilations") == 2
        assert service.plan_cache.info().invalidations >= 1

    def test_delete_also_invalidates(self, service, db):
        service.cite(QUERY)
        intro_row = next(iter(db.relation("FamilyIntro").rows))
        db.delete("FamilyIntro", intro_row)
        fresh = service.cite(QUERY)
        _same_cited_result(fresh, service.engine.cite(QUERY))

    def test_forced_engine_invalidation_drops_service_caches(self, service):
        service.cite(QUERY)
        service.engine.invalidate_caches()
        response = service.try_cite(QUERY)
        assert not response.cached
        assert service.metrics.counter("plan_compilations") == 2

    def test_explicit_service_invalidate(self, service):
        service.cite(QUERY)
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
                service.cite(QUERY)
            assert calls["count"] == 1
            engine.database.insert("Family", (9003, "Yet another family", "d"))
            service.cite(QUERY)
            assert calls["count"] == 2


class TestBatching:
    def test_cite_batch_matches_sequential(self, service, engine):
        queries = [QUERY, QUERY_RENAMED, "Q2(FID, FName, Desc) :- Family(FID, FName, Desc)"]
        batch = service.cite_batch(queries)
        for query, result in zip(queries, batch):
            _same_cited_result(result, engine.cite(query))

    def test_cite_batch_deduplicates(self, service):
        queries = [QUERY, QUERY_RENAMED, QUERY, QUERY_RENAMED, QUERY]
        service.cite_batch(queries)
        assert service.metrics.counter("executions") == 1
        assert service.metrics.counter("deduplicated") == 4

    def test_cite_many_matches_sequential(self, service, engine):
        queries = list(gtopdb.example_queries()) * 2
        sequential = [engine.cite(query) for query in queries]
        responses = service.cite_many(queries, max_workers=6)
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
        responses = service.cite_many(queries)
        assert [response.ok for response in responses] == [True, False, False, True]
        assert service.metrics.counter("errors") == 2

    def test_cite_many_shares_error_across_duplicates(self, service):
        bad = "Q(PName) :- Contributor(TID, PName)"
        responses = service.cite_many([bad, bad])
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
        responses = service.cite_many([QUERY], timeout=0.01)
        assert not responses[0].ok
        assert isinstance(responses[0].error, TimeoutError)
        assert service.metrics.counter("timeouts") == 1

    def test_warm_precompiles_plans(self, service):
        compiled = service.warm(gtopdb.example_queries())
        assert compiled == len(gtopdb.example_queries())
        assert service.warm(gtopdb.example_queries()) == 0


class TestStats:
    def test_stats_snapshot_shape(self, service):
        service.cite(QUERY)
        service.cite(QUERY)
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
        db.delete("Interaction", min(db.relation("Interaction").rows))
        engine.view_relations()  # re-materializes V6 only
        refresh = service.stats()["engine"]["refresh"]
        assert refresh["views_rematerialized"] == 1
        exposition = service.to_prometheus()
        for name in ("records_kept", "records_evicted", "full_drops", "views_rematerialized"):
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
    def test_maintainer_notifies_listeners(self):
        engine = CitationEngine(
            gtopdb.paper_instance(),
            gtopdb.citation_views(),
            policy=CitationPolicy.union_everywhere(),
        )
        maintainer = IncrementalCitationMaintainer(engine, gtopdb.paper_query())
        events = []
        maintainer.add_change_listener(lambda relation, kind: events.append((relation, kind)))
        maintainer.insert("Family", (50, "Maintained family", "d"))
        maintainer.insert("FamilyIntro", (50, "intro"))
        maintainer.insert("Ligand", (50, "L", "peptide"))
        maintainer.insert("Committee", (50, "New curator"))
        kinds = [kind for _relation, kind in events]
        assert kinds[:2] == ["answer", "answer"]
        assert "ignored" in kinds and "records" in kinds
        maintainer.check_consistency()

    def test_maintainer_consistent_with_generation_aware_caches(self):
        engine = CitationEngine(
            gtopdb.paper_instance(),
            gtopdb.citation_views(),
            policy=CitationPolicy.union_everywhere(),
        )
        maintainer = IncrementalCitationMaintainer(engine, gtopdb.paper_query())
        maintainer.insert("Family", (60, "Calcitonin", "dup-name"))
        maintainer.insert("FamilyIntro", (60, "intro"))
        maintainer.delete("FamilyIntro", (11, "1st"))
        maintainer.check_consistency()


class TestCompiledProgramsThroughThePlanCache:
    def test_plan_hit_carries_compiled_programs(self, service):
        query = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
        service.cite(query)  # cold: compiles the plan and, on execute, the programs
        plan, hit = service.plan_for(query)
        assert hit
        assert plan.rewritings  # a real plan, not a fallback
        programs = [plan.compiled_program(i) for i in range(len(plan.rewritings))]
        assert all(program is not None for program in programs)
        # A structurally identical (renamed) query hits the same plan, so it
        # reuses the same compiled join programs.
        renamed = "Q(N) :- FamilyIntro(F, T), Family(F, N, D)"
        twin, twin_hit = service.plan_for(renamed)
        assert twin_hit and twin is plan

    def test_plan_hit_carries_reduced_programs(self, service):
        """Serving traffic amortizes the semi-join analysis: one execution
        attaches the reduced programs, every later hit reuses them."""
        query = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
        service.cite(query)
        plan, hit = service.plan_for(query)
        assert hit
        reduced = [plan.compiled_reduced(i) for i in range(len(plan.rewritings))]
        assert all(r is not None for r in reduced)
        assert all(r.acyclic for r in reduced)  # citation views are acyclic CQs
        service.cite(query)  # warm: must reuse, not re-analyse
        assert [
            plan.compiled_reduced(i) for i in range(len(plan.rewritings))
        ] == reduced

    def test_stats_expose_the_engine_strategy(self, service):
        assert service.stats()["engine"]["strategy"] == "auto"


class TestEvaluationMetricsExposure:
    def test_stats_expose_strategy_and_prelude_metrics(self, service):
        service.cite(QUERY)
        service.cite(QUERY)
        stats = service.stats()
        evaluation = stats["evaluation"]
        assert set(evaluation) == {
            "picks",
            "pick_reasons",
            "cost_model",
            "prelude_cache",
            "sharding",
        }
        picks = evaluation["picks"]
        # First call executes, the repeat is a result-cache hit: at least
        # one strategy decision was recorded (one per rewriting).
        assert picks["program"] + picks["reduced"] >= 1
        assert "estimates" in evaluation["cost_model"]
        assert "hit_rate" in evaluation["prelude_cache"]

    def test_stats_are_json_serialisable_with_evaluation_block(self, service):
        import json

        service.cite(QUERY)
        payload = json.dumps(service.stats(), sort_keys=True)
        assert "prelude_cache" in payload

    def test_warm_plan_hits_surface_as_prelude_hits(self, db):
        engine = CitationEngine(
            db, gtopdb.citation_views(extended=True), strategy="reduced"
        )
        with CitationService(engine, cache_results=False) as svc:
            svc.cite(QUERY)
            svc.cite(QUERY)  # plan hit + warm prelude: no reduction runs
            prelude = svc.stats()["evaluation"]["prelude_cache"]
            assert prelude["hits"] >= 1
            assert prelude["misses"] >= 1

    def test_isomorphic_requests_share_the_warm_prelude(self, db):
        engine = CitationEngine(
            db, gtopdb.citation_views(extended=True), strategy="reduced"
        )
        with CitationService(engine, cache_results=False) as svc:
            svc.cite(QUERY)
            svc.cite(QUERY_RENAMED)  # same fingerprint: same plan, same state
            prelude = svc.stats()["evaluation"]["prelude_cache"]
            assert prelude["hits"] >= 1
