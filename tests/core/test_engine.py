"""Tests for the citation engine (the paper's Definitions 2.1 and 2.2)."""

import pytest

from repro import CitationEngine, CitationPolicy, parse_query
from repro.core.record import CitationRecord
from repro.core.rewriting_selector import RewritingSelector
from repro.errors import CitationError, NoRewritingError
from repro.query.evaluator import evaluate
from repro.workloads import gtopdb


class TestRewritings:
    def test_paper_query_has_two_rewritings(self, paper_engine, paper_query):
        rewritings = paper_engine.rewritings(paper_query)
        used = {frozenset(a.predicate for a in r.query.body) for r in rewritings}
        assert used == {frozenset({"V1", "V3"}), frozenset({"V2", "V3"})}

    def test_bucket_backend_gives_same_rewritings(self, paper_db, paper_views, paper_query):
        engine = CitationEngine(paper_db, paper_views, rewriter="bucket")
        assert len(engine.rewritings(paper_query)) == 2

    def test_accepts_query_text(self, paper_engine):
        rewritings = paper_engine.rewritings(
            "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
        )
        assert len(rewritings) == 2


class TestCitationRecords:
    def test_record_cache_reuses_objects(self, paper_engine):
        first = paper_engine.citation_record("V1", {"FID": 11})
        second = paper_engine.citation_record("V1", {"FID": 11})
        assert first is second

    def test_unknown_view_raises(self, paper_engine):
        with pytest.raises(CitationError):
            paper_engine.citation_record("V999", {})

    def test_invalidate_caches_clears_records(self, paper_engine):
        first = paper_engine.citation_record("V1", {"FID": 11})
        paper_engine.invalidate_caches()
        assert paper_engine.citation_record("V1", {"FID": 11}) is not first

    def test_cite_and_citation_record_share_one_cache(self, paper_engine, paper_query):
        result = paper_engine.cite(paper_query)
        (atom,) = [
            atom
            for atom in result.citation_for(("Calcitonin",)).expression.atoms()
            if atom.view_name == "V1" and atom.parameter_values == {"FID": 11}
        ]
        assert paper_engine.citation_record("V1", {"FID": 11}) is atom.record

    def test_contributor_edit_refreshes_the_record(self):
        database = gtopdb.generate(families=6, targets_per_family=2, seed=3)
        engine = CitationEngine(database, gtopdb.citation_views(extended=True))
        query = "Q5(TName, FName) :- Target(TID, FID, TName, Type), Family(FID, FName, Desc)"

        def contributors(result, tid):
            names = set()
            for tc in result.tuple_citations:
                for atom in tc.expression.atoms():
                    if atom.view_name == "V4" and atom.parameter_values == {"TID": tid}:
                        value = atom.record["contributors"]
                        names.update(value if isinstance(value, tuple) else (value,))
            return names

        tid = min(row[0] for row in database.relation("Target").rows)
        before = contributors(engine.cite(query), tid)
        assert before and "A. Newcomer" not in before
        database.insert("Contributor", (tid, "A. Newcomer"))
        assert contributors(engine.cite(query), tid) == before | {"A. Newcomer"}


class TestDeltaScopedRefresh:
    """A write evicts only the records and views it can change."""

    @pytest.fixture
    def database(self):
        return gtopdb.generate(families=6, targets_per_family=2, seed=3)

    @pytest.fixture
    def engine(self, database):
        return CitationEngine(database, gtopdb.citation_views(extended=True))

    @staticmethod
    def records(engine, view, parameter, values):
        return {v: engine.citation_record(view, {parameter: v}) for v in values}

    def test_write_no_citation_query_reads_keeps_every_record(self, engine, database):
        family = min(row[0] for row in database.relation("Family").rows)
        target = min(row[0] for row in database.relation("Target").rows)
        v1 = engine.citation_record("V1", {"FID": family})
        v4 = engine.citation_record("V4", {"TID": target})
        database.insert("Ligand", (10_000, "Newcomer", "synthetic"))
        database.delete("Ligand", (10_000, "Newcomer", "synthetic"))
        assert engine.citation_record("V1", {"FID": family}) is v1
        assert engine.citation_record("V4", {"TID": target}) is v4
        assert engine.refresh_stats()["records_evicted"] == 0

    def test_contributor_insert_replaces_only_that_targets_record(self, engine, database):
        targets = sorted(row[0] for row in database.relation("Target").rows)
        before = self.records(engine, "V4", "TID", targets)
        database.insert("Contributor", (targets[0], "A. Newcomer"))
        after = self.records(engine, "V4", "TID", targets)
        assert after[targets[0]] is not before[targets[0]]
        assert "A. Newcomer" in after[targets[0]]["contributors"]
        assert all(after[t] is before[t] for t in targets[1:])
        assert engine.refresh_stats()["records_evicted"] == 1

    def test_committee_drift_replaces_every_v1_record(self, engine, database):
        families = sorted(row[0] for row in database.relation("Family").rows)
        targets = sorted(row[0] for row in database.relation("Target").rows)
        v1 = self.records(engine, "V1", "FID", families)
        v4 = self.records(engine, "V4", "TID", targets)
        database.relation("Committee").insert((families[0], "A. Rogue"))  # out of band
        assert all(
            engine.citation_record("V1", {"FID": f}) is not v1[f] for f in families
        )
        assert self.records(engine, "V4", "TID", targets) == v4
        assert all(engine.citation_record("V4", {"TID": t}) is v4[t] for t in targets)

    def test_only_views_over_the_changed_relation_rematerialize(self, engine, database):
        views = engine.view_relations()
        database.insert("Contributor", (min(database.relation("Target").rows)[0], "X"))
        assert engine.view_relations() is views  # no view reads Contributor
        row = min(database.relation("Interaction").rows)
        database.delete("Interaction", row)
        fresh = engine.view_relations()
        assert fresh is not views and row not in fresh["V6"]
        assert {name for name in views if fresh[name] is not views[name]} == {"V6"}
        assert engine.refresh_stats()["views_rematerialized"] == 1

    def test_log_overrun_and_invalidate_drop_everything(self, monkeypatch):
        import repro.relational.database as database_module

        monkeypatch.setattr(database_module, "_CHANGE_LOG_LIMIT", 8)  # a short log
        database = gtopdb.generate(families=6, targets_per_family=2, seed=3)
        engine = CitationEngine(database, gtopdb.citation_views(extended=True))
        target = min(row[0] for row in database.relation("Target").rows)
        record = engine.citation_record("V4", {"TID": target})
        for _ in range(5):
            database.insert("Ligand", (10_000, "Churn", "synthetic"))
            database.delete("Ligand", (10_000, "Churn", "synthetic"))
        assert engine.citation_record("V4", {"TID": target}) is not record
        record = engine.citation_record("V4", {"TID": target})
        engine.invalidate_caches()
        assert engine.citation_record("V4", {"TID": target}) is not record
        assert engine.refresh_stats()["full_drops"] == 2


class TestCite:
    def test_result_matches_direct_evaluation(self, paper_engine, paper_query, paper_db):
        result = paper_engine.cite(paper_query)
        direct = evaluate(paper_query, paper_db)
        assert result.result.rows == direct.rows

    def test_per_tuple_expressions_match_paper(self, paper_engine, paper_query):
        result = paper_engine.cite(paper_query)
        expressions = {tc.row: str(tc.expression) for tc in result.tuple_citations}
        assert expressions[("Calcitonin",)] == (
            "((CV1(11)·CV3) + (CV1(12)·CV3)) +R (CV2·CV3)"
        )
        assert expressions[("Adenosine",)] == "(CV1(13)·CV3) +R (CV2·CV3)"

    def test_default_policy_selects_v2_citation(self, paper_engine, paper_query):
        # Final step of the paper's example: with union for ·/+/Agg and
        # min-estimated-size for +R, the citation through Q2 (V2·V3) wins.
        result = paper_engine.cite(paper_query)
        views_cited = {record["view"] for record in result.citation.records}
        assert views_cited == {"V2", "V3"}

    def test_union_policy_keeps_committee_citations(self, paper_db, paper_views, paper_query):
        engine = CitationEngine(
            paper_db, paper_views, policy=CitationPolicy.union_everywhere()
        )
        result = engine.cite(paper_query)
        views_cited = {record["view"] for record in result.citation.records}
        assert views_cited == {"V1", "V2", "V3"}
        contributors = set()
        for record in result.citation.records:
            if "contributors" not in record:
                continue
            value = record["contributors"]
            contributors.update(value if isinstance(value, tuple) else (value,))
        assert {"D. Hoyer", "A. Davenport", "S. Alexander"} <= contributors

    def test_citation_for_row_lookup(self, paper_engine, paper_query):
        result = paper_engine.cite(paper_query)
        tc = result.citation_for(("Calcitonin",))
        assert tc.row == ("Calcitonin",)
        with pytest.raises(CitationError):
            result.citation_for(("Nope",))

    def test_tuple_citation_wrapper(self, paper_engine, paper_query):
        result = paper_engine.cite(paper_query)
        citation = result.citation_for(("Adenosine",)).citation()
        assert citation.record_count() >= 1
        assert citation.size() == result.citation_for(("Adenosine",)).size()

    def test_economical_mode_uses_single_rewriting(self, paper_engine, paper_query):
        result = paper_engine.cite(paper_query, mode="economical")
        assert len(result.rewritings) == 1
        assert all("+R" not in str(tc.expression) for tc in result.tuple_citations)
        views_cited = {record["view"] for record in result.citation.records}
        assert views_cited == {"V2", "V3"}

    def test_formal_and_economical_agree_on_answer(self, paper_engine, paper_query):
        formal = paper_engine.cite(paper_query, mode="formal")
        economical = paper_engine.cite(paper_query, mode="economical")
        assert formal.result.rows == economical.result.rows

    def test_identity_query_over_family(self, paper_engine):
        result = paper_engine.cite("Q(FID, FName, Desc) :- Family(FID, FName, Desc)")
        assert len(result) == 3
        # Both V1 and V2 rewrite the query; the default policy keeps the small one.
        assert {r["view"] for r in result.citation.records} == {"V2"}

    def test_parameterized_citation_per_family(self, paper_db, paper_views):
        engine = CitationEngine(
            paper_db,
            paper_views,
            policy=CitationPolicy.union_everywhere(),
            selector=RewritingSelector(paper_db, strategy="all"),
        )
        result = engine.cite("Q(FID, FName, Desc) :- Family(FID, FName, Desc)")
        tc = result.citation_for((11, "Calcitonin", "C1"))
        parameterized = [r for r in tc.records if "parameters" in r]
        assert any(r["parameters"] == (("FID", 11),) for r in parameterized)

    def test_aggregate_size_nondecreasing_in_tuples(self, paper_engine):
        small = paper_engine.cite("Q(FName) :- Family(11, FName, Desc), FamilyIntro(11, Text)")
        large = paper_engine.cite("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
        assert large.citation.size() >= small.citation.size()


class TestNoRewriting:
    def test_error_mode(self, paper_engine):
        with pytest.raises(NoRewritingError):
            paper_engine.cite("Q(PName) :- Committee(FID, PName)")

    def test_fallback_mode(self, paper_db, paper_views):
        fallback = CitationRecord({"title": "GtoPdb (whole database)"})
        engine = CitationEngine(
            paper_db, paper_views, on_no_rewriting="fallback", fallback_citation=fallback
        )
        result = engine.cite("Q(PName) :- Committee(FID, PName)")
        assert result.used_fallback
        assert result.citation.records == frozenset({fallback})
        assert len(result) == 4  # committee rows are still returned

    def test_fallback_without_custom_record(self, paper_db, paper_views):
        engine = CitationEngine(paper_db, paper_views, on_no_rewriting="fallback")
        result = engine.cite("Q(PName) :- Committee(FID, PName)")
        assert result.citation.record_count() == 1


class TestValidation:
    def test_engine_requires_views(self, paper_db):
        with pytest.raises(CitationError):
            CitationEngine(paper_db, [])

    def test_duplicate_view_names_rejected(self, paper_db, paper_views):
        with pytest.raises(CitationError):
            CitationEngine(paper_db, paper_views + [paper_views[0]])

    def test_rewriting_with_uncovered_view_rejected(self, paper_engine, paper_views):
        # Build a rewriting that mentions a view the engine does not know.
        from repro.rewriting.rewriting import Rewriting
        from repro.rewriting.view import View

        stray_view = View(parse_query("VX(FID, Text) :- FamilyIntro(FID, Text)"))
        rewriting = Rewriting(parse_query("Q(FID, Text) :- VX(FID, Text)"), [stray_view])
        with pytest.raises(CitationError):
            paper_engine.citation_for_binding(rewriting, {})

    def test_binding_must_determine_every_view_parameter(self, paper_engine):
        # Renamed variables: the message names the view's parameter, not the
        # query variable bound to it.
        (rewriting,) = [
            r for r in paper_engine.rewritings("Q(N) :- Family(F, N, D), FamilyIntro(F, T)")
            if any(atom.predicate == "V1" for atom in r.query.body)
        ]
        n = next(v for v in rewriting.query.variables() if v.name == "N")
        with pytest.raises(
            CitationError, match="does not determine parameter 'FID' of view 'V1'"
        ):
            paper_engine.citation_for_binding(rewriting, {n: "Calcitonin"})


class TestCompiledJoinPrograms:
    def test_execute_attaches_programs_to_the_plan(self, paper_db, paper_views, paper_query):
        # verify_plans="off": with verification on (the suite default) the
        # verifier compiles programs eagerly, which is exactly the laziness
        # this test pins down for the production default.
        engine = CitationEngine(paper_db, paper_views, verify_plans="off")
        plan = engine.compile_plan(paper_query)
        assert all(
            plan.compiled_program(i) is None for i in range(len(plan.rewritings))
        )
        engine.execute_plan(plan)
        assert all(
            plan.compiled_program(i) is not None for i in range(len(plan.rewritings))
        )

    def test_repeated_execution_reuses_the_programs(self, paper_engine, paper_query):
        plan = paper_engine.compile_plan(paper_query)
        first = paper_engine.execute_plan(plan)
        programs = [plan.compiled_program(i) for i in range(len(plan.rewritings))]
        second = paper_engine.execute_plan(plan)
        assert [
            plan.compiled_program(i) for i in range(len(plan.rewritings))
        ] == programs
        assert first.result.rows == second.result.rows

    def test_programs_survive_data_changes(self, paper_engine, paper_query, paper_db):
        plan = paper_engine.compile_plan(paper_query)
        paper_engine.execute_plan(plan)
        programs = [plan.compiled_program(i) for i in range(len(plan.rewritings))]
        paper_db.insert("Family", (60, "Fresh", "d"))
        paper_db.insert("FamilyIntro", (60, "fresh intro"))
        result = paper_engine.execute_plan(plan)
        # Same program objects, fresh data.
        assert [
            plan.compiled_program(i) for i in range(len(plan.rewritings))
        ] == programs
        assert ("Fresh",) in result.result.rows

    def test_plans_with_programs_stay_equal_and_hashable(self, paper_engine, paper_query):
        plan = paper_engine.compile_plan(paper_query)
        twin = paper_engine.compile_plan(paper_query)
        assert plan == twin
        paper_engine.execute_plan(plan)
        assert plan == twin  # cached programs are not part of plan identity
        assert hash(plan) == hash(twin)

    def test_view_indexes_are_shared_across_executions(self, paper_engine, paper_query):
        paper_engine.cite(paper_query)
        manager = paper_engine._index_manager
        built = len(manager)
        if built:
            view_name, positions = next(iter(manager._extra))
            index = manager._extra[(view_name, positions)][0]
            paper_engine.cite(paper_query)
            assert manager._extra[(view_name, positions)][0] is index

    def test_invalidate_caches_drops_view_indexes(self, paper_engine, paper_query):
        paper_engine.cite(paper_query)
        paper_engine.invalidate_caches()
        assert len(paper_engine._index_manager) == 0


class TestReducedProgramsOnPlans:
    def test_execute_attaches_reduced_programs(self, paper_db, paper_views, paper_query):
        # verify_plans="off": strict verification (the suite default) would
        # attach the reduced programs eagerly at compile time.
        paper_engine = CitationEngine(paper_db, paper_views, verify_plans="off")
        plan = paper_engine.compile_plan(paper_query)
        assert all(
            plan.compiled_reduced(i) is None for i in range(len(plan.rewritings))
        )
        paper_engine.execute_plan(plan)
        reduced = [plan.compiled_reduced(i) for i in range(len(plan.rewritings))]
        assert all(r is not None for r in reduced)
        # Rewritings over the citation views are acyclic conjunctive queries.
        assert all(r.acyclic for r in reduced)
        paper_engine.execute_plan(plan)
        assert [
            plan.compiled_reduced(i) for i in range(len(plan.rewritings))
        ] == reduced

    @pytest.mark.parametrize("strategy", ["program", "reduced", "auto"])
    def test_every_strategy_produces_the_same_citations(
        self, paper_db, paper_views, paper_query, strategy
    ):
        baseline = CitationEngine(paper_db, paper_views).cite(paper_query)
        engine = CitationEngine(paper_db, paper_views, strategy=strategy)
        result = engine.cite(paper_query)
        assert result.result.rows == baseline.result.rows
        assert result.citation.records == baseline.citation.records
        by_row = {tc.row: tc.records for tc in result.tuple_citations}
        baseline_by_row = {tc.row: tc.records for tc in baseline.tuple_citations}
        assert by_row == baseline_by_row


class TestPreludesOnPlans:
    """Warm-prelude state rides compiled plans through the serving layer.

    The paper micro-instance is densely joining, so ``strategy="auto"``
    correctly refuses the prelude there — the warm-path tests force
    ``"reduced"`` to exercise the cache itself.
    """

    @pytest.fixture
    def reduced_engine(self, paper_db, paper_views):
        return CitationEngine(paper_db, paper_views, strategy="reduced")

    def test_execute_attaches_and_warms_preludes(self, reduced_engine, paper_query):
        paper_engine = reduced_engine
        plan = paper_engine.compile_plan(paper_query)
        assert all(
            plan.compiled_prelude(i) is None for i in range(len(plan.rewritings))
        )
        paper_engine.execute_plan(plan)
        preludes = [
            plan.compiled_prelude(i) for i in range(len(plan.rewritings))
        ]
        assert all(p is not None for p in preludes)
        paper_engine.execute_plan(plan)
        assert [
            plan.compiled_prelude(i) for i in range(len(plan.rewritings))
        ] == preludes
        assert all(p.hits >= 1 for p in preludes)

    def test_plan_preludes_are_shared_with_plain_cite(self, reduced_engine, paper_query):
        # cite() compiles a fresh plan per call, but the warmed prelude is
        # the evaluator's canonical one, so repeated cite() calls hit too.
        paper_engine = reduced_engine
        paper_engine.cite(paper_query)
        plan = paper_engine.compile_plan(paper_query)
        paper_engine.execute_plan(plan)
        assert any(
            plan.compiled_prelude(i).hits >= 1
            for i in range(len(plan.rewritings))
        )

    def test_data_drift_partially_refreshes_instead_of_recomputing(
        self, reduced_engine, paper_query, paper_db
    ):
        paper_engine = reduced_engine
        plan = paper_engine.compile_plan(paper_query)
        baseline = paper_engine.execute_plan(plan)
        paper_db.insert("Family", (99, "Novel family", "d"))
        paper_db.insert("FamilyIntro", (99, "intro"))
        drifted = paper_engine.execute_plan(plan)
        assert ("Novel family",) in drifted.result.rows
        assert baseline.result.rows <= drifted.result.rows
        preludes = [
            plan.compiled_prelude(i) for i in range(len(plan.rewritings))
        ]
        # The views re-materialise wholesale (new Relation objects), so the
        # refresh is a miss — but it reuses whatever did not change.
        assert all(p.misses >= 1 for p in preludes if p is not None)

    def test_strategy_metrics_surface_on_the_engine(self, paper_engine, paper_query):
        paper_engine.cite(paper_query)
        paper_engine.cite(paper_query)
        snapshot = paper_engine.evaluation_metrics.snapshot()
        picks = snapshot["picks"]
        assert picks["program"] + picks["reduced"] >= 2
        lookups = (
            snapshot["prelude_cache"]["hits"] + snapshot["prelude_cache"]["misses"]
        )
        assert lookups >= 0  # shape is present even when auto picked program


class TestInvalidationClearsWarmState:
    """Regression: invalidate_caches() must retire every evaluator cache."""

    def test_invalidate_clears_the_evaluator_caches(self, paper_engine, paper_query):
        paper_engine.cite(paper_query)
        evaluator = paper_engine._evaluator
        assert evaluator is not None and evaluator._programs
        paper_engine.invalidate_caches()
        assert evaluator._programs == {}
        assert evaluator._reduced == {}
        assert evaluator._preludes == {}
        assert len(paper_engine._statistics) == 0

    def test_stale_epoch_plans_drop_their_preludes(self, paper_engine, paper_query):
        plan = paper_engine.compile_plan(paper_query)
        paper_engine.execute_plan(plan)
        warmed = [
            plan.compiled_prelude(i) for i in range(len(plan.rewritings))
        ]
        assert any(p is not None for p in warmed)
        paper_engine.invalidate_caches()
        # The engine cannot reach the plan at invalidation time; the next
        # execution notices the epoch bump and rebuilds the state cold.
        result = paper_engine.execute_plan(plan)
        rebuilt = [
            plan.compiled_prelude(i) for i in range(len(plan.rewritings))
        ]
        assert all(
            p is None or p is not w for p, w in zip(rebuilt, warmed)
        )
        assert result.result.rows == paper_engine.cite(paper_query).result.rows

    def test_results_stay_exact_across_invalidation_and_drift(
        self, paper_engine, paper_query, paper_db
    ):
        plan = paper_engine.compile_plan(paper_query)
        paper_engine.execute_plan(plan)
        paper_engine.invalidate_caches()
        paper_db.insert("Family", (98, "Post-invalidation family", "d"))
        paper_db.insert("FamilyIntro", (98, "intro"))
        served = paper_engine.execute_plan(plan)
        fresh = CitationEngine(
            paper_db, paper_engine.citation_views, policy=paper_engine.policy
        ).cite(paper_query)
        assert served.result.rows == fresh.result.rows
        assert ("Post-invalidation family",) in served.result.rows
