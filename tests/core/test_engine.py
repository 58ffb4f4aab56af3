"""Tests for the citation engine (the paper's Definitions 2.1 and 2.2)."""

import pytest

import repro.core.engine as engine_module
import repro.query.evaluator as evaluator_module
from repro import (
    CitationEngine,
    CitationPolicy,
    CitationRequest,
    CitationService,
    IncrementalCitationMaintainer,
    parse_query,
)
from repro.core.citation_view import CitationView, DefaultCitationFunction
from repro.core.record import CitationRecord
from repro.core.rewriting_selector import RewritingSelector
from repro.errors import CitationError, NoRewritingError
from repro.query.evaluator import evaluate
from repro.rewriting.view import View
from repro.workloads import gtopdb
from strategies import brute_force


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

    def test_cite_after_writes_through_a_selecting_view(self, database):
        """V11 selects ``Target`` rows by a constant and projects ``FID``
        away.  After edits that move a target to another family and another
        into the selection, citing through V11 answers as brute force and
        cites as a fresh engine."""
        v11 = CitationView(
            'lambda TID. V11(TID, TName) :- Target(TID, FID, TName, "GPCR")',
            ["lambda TID. CV11(TID, PName) :- Contributor(TID, PName)"],
            DefaultCitationFunction(),
        )
        views = gtopdb.citation_views(extended=True) + [v11]
        engine = CitationEngine(database, views)
        query = parse_query('Q(TID, TName) :- Target(TID, FID, TName, "GPCR")')
        assert any(r.query.body[0].predicate == "V11" for r in engine.rewritings(query))
        engine.cite(query)
        database.enforce_foreign_keys = False
        targets = sorted(database.relation("Target").rows)
        moved = next(row for row in targets if row[3] == "GPCR")
        joining = next(row for row in targets if row[3] != "GPCR")
        families = sorted(row[0] for row in database.relation("Family").rows)
        other = next(f for f in families if f != moved[1])
        # Another family, same V11 row; and a target that joins the selection.
        database.delete("Target", moved)
        database.insert("Target", (moved[0], other, moved[2], "GPCR"))
        database.delete("Target", joining)
        database.insert("Target", joining[:3] + ("GPCR",))
        result = engine.cite(query)
        assert {(moved[0], moved[2]), (joining[0], joining[2])} <= set(result.rows())
        assert set(result.rows()) == brute_force(query, database)
        fresh = CitationEngine(database, views).cite(query)
        assert [(t.row, str(t.expression), t.records) for t in result.tuple_citations] == [
            (t.row, str(t.expression), t.records) for t in fresh.tuple_citations
        ]

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

    def test_fallback_evaluates_on_the_engine_evaluator(self):
        """The engine's metrics govern a fallback query too: its one
        evaluation is recorded in the engine's metrics."""
        database = gtopdb.generate(families=20, targets_per_family=2, seed=3)
        engine = CitationEngine(
            database, gtopdb.citation_views(), on_no_rewriting="fallback"
        )
        text = "Q(TName, FName) :- Target(TID, FID, TName, TT), Family(FID, FName, D)"
        result = engine.cite(text)
        assert result.used_fallback
        assert result.result.rows == evaluate(parse_query(text), database).rows
        assert engine.evaluation_metrics.snapshot()["evaluations"] == 1

    def test_cached_fallback_over_a_view_follows_its_base_relation(self):
        """A fallback body may name a citation view; a write to the view's
        base relation must retire the cached answer."""
        database = gtopdb.paper_instance()
        engine = CitationEngine(database, gtopdb.citation_views(), on_no_rewriting="fallback")
        request = CitationRequest(query="Q(N) :- V2(F, N, D)")
        with CitationService(engine) as service:
            first = service.submit(request).unwrap()
            database.insert("Family", (777, "Added", "d"))
            response = service.submit(request)
        fresh = CitationEngine(
            database, gtopdb.citation_views(), on_no_rewriting="fallback"
        ).cite(request.query)
        assert first.used_fallback and len(first) == 2
        assert not response.cached
        assert response.unwrap().rows() == fresh.rows()
        assert len(fresh) == 3

    def test_fallback_over_base_relations_leaves_the_views_alone(self, monkeypatch):
        """A fallback query materializes no view, before or after a write;
        only an explicit ``view_relations()`` call does."""
        database = gtopdb.generate(families=20, targets_per_family=2, seed=3)
        engine = CitationEngine(database, gtopdb.citation_views(), on_no_rewriting="fallback")
        materialized: list = []
        real = engine_module.materialize_views

        def counting(views, db):
            materialized.extend(view.name for view in views)
            return real(views, db)

        monkeypatch.setattr(engine_module, "materialize_views", counting)
        text = "Q(TName, FName) :- Target(TID, FID, TName, TT), Family(FID, FName, D)"
        assert engine.cite(text).used_fallback
        assert materialized == []
        engine.view_relations()
        database.insert("Family", (777, "Added", "d"))
        result = engine.cite(text)
        assert result.rows() == evaluate(parse_query(text), database).sorted_rows()
        assert materialized == ["V1", "V2", "V3"]


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


class TestCompileOnce:
    """A plan owns its compiled rewritings: served from the plan cache or
    held by the caller, it never compiles a rewriting again."""

    def test_plan_hits_and_held_plans_never_recompile(
        self, paper_db, paper_views, monkeypatch
    ):
        built: list = []
        original = evaluator_module.compile_query

        def counting(query, *args):
            built.append(query)
            return original(query, *args)

        monkeypatch.setattr(evaluator_module, "compile_query", counting)
        engine = CitationEngine(paper_db, paper_views)
        service = CitationService(engine, cache_results=False)
        query = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
        service.submit(CitationRequest(query=query)).unwrap()
        plan, hit = service.plan_for(query)
        assert hit and plan.rewritings
        rewriting_queries = {rewriting.expansion for rewriting in plan.rewritings}
        programs = _programs(plan)
        assert len(programs) == len(plan.rewritings)

        def recompiled():
            return [q for q in built if q in rewriting_queries]

        compiled = len(recompiled())
        assert compiled
        # Plan-cache hits, for the same text and for a renamed variant.
        service.submit(CitationRequest(query=query)).unwrap()
        service.submit(
            CitationRequest(query="Q(N) :- FamilyIntro(F, T), Family(F, N, D)")
        ).unwrap()
        assert len(recompiled()) == compiled
        # The held plan, executed after a write, runs its programs on the new data.
        paper_db.insert("Family", (60, "Fresh", "d"))
        paper_db.insert("FamilyIntro", (60, "fresh intro"))
        assert ("Fresh",) in engine.execute_plan(plan).result.rows
        assert len(recompiled()) == compiled
        assert all(a is b for a, b in zip(_programs(plan), programs, strict=True))
        service.close()


def _programs(plan):
    """Each rewriting's join program, as the plan holds it."""
    return [program for _citation, program in plan.compiled]


class TestCompiledJoinPrograms:
    def test_execute_attaches_programs_to_the_plan(self, paper_db, paper_views, paper_query):
        # verify_plans="off": the programs must come from compile_plan itself,
        # not from the verifier walking them.
        engine = CitationEngine(paper_db, paper_views, verify_plans="off")
        plan = engine.compile_plan(paper_query)
        assert len(plan.compiled) == len(plan.rewritings)
        compiled = plan.compiled
        assert all(program is not None for program in _programs(plan))
        engine.execute_plan(plan)
        assert plan.compiled is compiled

    def test_repeated_execution_reuses_the_programs(self, paper_engine, paper_query):
        plan = paper_engine.compile_plan(paper_query)
        first = paper_engine.execute_plan(plan)
        programs = _programs(plan)
        second = paper_engine.execute_plan(plan)
        assert all(a is b for a, b in zip(_programs(plan), programs, strict=True))
        assert first.result.rows == second.result.rows

    def test_programs_survive_data_changes(self, paper_engine, paper_query, paper_db):
        plan = paper_engine.compile_plan(paper_query)
        paper_engine.execute_plan(plan)
        programs = _programs(plan)
        paper_db.insert("Family", (60, "Fresh", "d"))
        paper_db.insert("FamilyIntro", (60, "fresh intro"))
        result = paper_engine.execute_plan(plan)
        # Same program objects, fresh data.
        assert all(a is b for a, b in zip(_programs(plan), programs, strict=True))
        assert ("Fresh",) in result.result.rows

    def test_plans_with_programs_stay_equal_and_hashable(self, paper_engine, paper_query):
        plan = paper_engine.compile_plan(paper_query)
        twin = paper_engine.compile_plan(paper_query)
        assert plan == twin
        paper_engine.execute_plan(plan)
        assert plan == twin  # cached programs are not part of plan identity
        assert hash(plan) == hash(twin)


class TestUnfoldedViews:
    def test_no_execution_materializes_a_view(self, monkeypatch):
        """Every rewriting runs as its expansion over the base relations:
        cites, writes, service reads with the result cache on and a
        maintainer's read call ``View.materialize`` zero times, and answer
        as a fresh engine does."""
        database = gtopdb.generate(families=8, targets_per_family=2, seed=5)
        views = gtopdb.citation_views(extended=True)
        engine = CitationEngine(database, views)
        materialized: list = []
        real = View.materialize
        monkeypatch.setattr(
            View, "materialize", lambda view, db: materialized.append(view.name) or real(view, db)
        )
        queries = {q.name: q for q in gtopdb.example_queries()}
        queries = [queries[name] for name in ("Q", "Q5", "Q6")]
        maintainer = IncrementalCitationMaintainer(engine, queries[2])
        service = CitationService(engine)
        for query in queries:
            engine.cite(query)
            service.submit(CitationRequest(query=query)).unwrap()
        interactions = database.relation("Interaction").rows
        tid, lid = next(
            (t[0], l[0])
            for t in sorted(database.relation("Target").rows)
            for l in sorted(database.relation("Ligand").rows)
            if not any(row[:2] == (t[0], l[0]) for row in interactions)
        )
        database.insert("Interaction", (tid, lid, "agonist", 7.5))
        database.delete("FamilyIntro", min(database.relation("FamilyIntro").rows))
        database.insert("Family", (900, "Unfolded", "d"))
        database.insert("FamilyIntro", (900, "unfolded intro"))
        fresh = CitationEngine(database, views)
        served = [service.submit(CitationRequest(query=query)).unwrap() for query in queries]
        for query, result in zip(queries, served):
            expected = fresh.cite(query)
            assert [(t.row, str(t.expression), t.records) for t in result.tuple_citations] == [
                (t.row, str(t.expression), t.records) for t in expected.tuple_citations
            ], query.name
            assert result.citation.records == expected.citation.records
        maintained = maintainer.result
        assert maintainer.statistics.rows_recomputed < len(maintained)  # the delta path
        assert [(t.row, str(t.expression), t.records) for t in maintained.tuple_citations] == [
            (t.row, str(t.expression), t.records) for t in fresh.cite(queries[2]).tuple_citations
        ]
        service.close()
        assert materialized == []
        # The joins probe the database's own indexes: the engine's evaluator
        # builds none.
        assert len(engine._execution_evaluator().index_manager) == 0


class TestFrameOrder:
    def test_reversed_frames_cite_alike(self):
        """No row's ``+`` order, expression or records may depend on the
        order the join yields a row's frames in: a second engine's
        evaluator hands assembly each row's frames reversed."""
        database = gtopdb.generate(
            families=24, targets_per_family=3, duplicate_name_fraction=0.5, seed=11
        )
        forward = CitationEngine(database, gtopdb.citation_views(extended=True))
        backward = CitationEngine(database, gtopdb.citation_views(extended=True))
        evaluator = backward._execution_evaluator()
        frames_by_row = evaluator.frames_by_row

        def reversed_frames(query, program=None):
            grouped = frames_by_row(query, program)
            return {row: frames[::-1] for row, frames in grouped.items()}

        evaluator.frames_by_row = reversed_frames
        queries = {q.name: q for q in gtopdb.example_queries()}
        for name in ("Q", "Q5", "Q6"):  # the paper query, Q5, Q6
            left = forward.cite(queries[name])
            right = backward.cite(queries[name])
            assert [(t.row, str(t.expression), t.records) for t in right.tuple_citations] == [
                (t.row, str(t.expression), t.records) for t in left.tuple_citations
            ], name
            assert str(left.citation.to_text()) == str(right.citation.to_text())
            if name == "Q":  # rows cited through several V1 records: + order
                assert any(" + " in str(t.expression) for t in left.tuple_citations)


class TestInvalidationClearsWarmState:
    """Regression: invalidate_caches() must retire the engine's warm state."""

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
