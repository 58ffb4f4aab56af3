"""The compiled-plan IR verifier: clean on real output, precise on mutations.

Two halves.  First, everything the compiler actually produces — programs,
reductions, warm preludes — must verify clean (the whole tier-1 suite also
enforces this via the ``strict`` default installed in ``conftest.py``).
Second, each class of hand-seeded corruption must be rejected with its
specific I-code, so the verifier localises faults instead of merely
detecting them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import CitationEngine, parse_query
from repro.analysis.ir import (
    verify_citation_plan,
    verify_prelude,
    verify_program,
    verify_reduced,
)
from repro.errors import PlanVerificationError
from repro.query.compiler import StepReduction, reduce_program
from repro.query.evaluator import QueryEvaluator
from repro.relational.database import Database
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

CHAIN_SCHEMA = DatabaseSchema(
    [
        RelationSchema("R", [Attribute("a", object), Attribute("b", object)], key=None),
        RelationSchema("S", [Attribute("a", object), Attribute("b", object)], key=None),
        RelationSchema("T", [Attribute("a", object), Attribute("b", object)], key=None),
    ]
)

CHAIN = parse_query("Q(X, W) :- R(X, Y), S(Y, Z), T(Z, W)")


@pytest.fixture
def chain_db():
    database = Database(CHAIN_SCHEMA)
    for i in range(6):
        database.insert("R", (i, i + 1))
        database.insert("S", (i + 1, i + 2))
        database.insert("T", (i + 2, i + 3))
    return database


@pytest.fixture
def evaluator(chain_db):
    return QueryEvaluator(chain_db)


def codes(report):
    return sorted({diagnostic.code for diagnostic in report})


# ---------------------------------------------------------------------------
# Clean compiler output verifies clean
# ---------------------------------------------------------------------------
class TestCleanArtifacts:
    def test_program_reduction_and_prelude_verify_clean(self, evaluator):
        program = evaluator.compile(CHAIN)
        reduced = evaluator.reduction_of(CHAIN, program)
        prelude = evaluator.prelude_for(CHAIN, reduced)
        # Warm the prelude (twice: the second pass caches the bucket plan).
        evaluator.evaluate_with_bindings(CHAIN, strategy="reduced", prelude=prelude)
        evaluator.evaluate_with_bindings(CHAIN, strategy="reduced", prelude=prelude)
        assert not list(verify_program(program))
        assert not list(verify_reduced(reduced))
        assert not list(verify_prelude(prelude))

    def test_constants_and_equalities_verify_clean(self, evaluator):
        query = parse_query('Q(X) :- R(X, Y), S(Y, "3"), X = "1"')
        program = evaluator.compile(query)
        assert not list(verify_program(program))
        assert not list(verify_reduced(evaluator.reduction_of(query, program)))

    def test_self_join_verifies_clean(self, evaluator):
        query = parse_query("Q(X, Z) :- R(X, Y), R(Y, Z)")
        program = evaluator.compile(query)
        assert not list(verify_program(program))
        assert not list(verify_reduced(evaluator.reduction_of(query, program)))

    def test_repeated_variable_within_atom_verifies_clean(self, evaluator):
        query = parse_query("Q(X) :- R(X, X)")
        program = evaluator.compile(query)
        assert not list(verify_program(program))


# ---------------------------------------------------------------------------
# Seeded mutations are rejected with the expected code
# ---------------------------------------------------------------------------
class TestSeededMutations:
    def test_out_of_range_write_slot_is_i003(self, evaluator):
        program = evaluator.compile(CHAIN)
        step = program.steps[1]
        bad_step = dataclasses.replace(
            step, writes=tuple((position, 99) for position, _slot in step.writes)
        )
        mutated = dataclasses.replace(
            program, steps=(program.steps[0], bad_step, *program.steps[2:])
        )
        found = codes(verify_program(mutated))
        assert "I003" in found

    def test_probe_slot_swapped_to_unwritten_is_i001(self, evaluator):
        program = evaluator.compile(CHAIN)
        step = program.steps[1]
        # Point the probe at a slot only a *later* step writes.
        later_slot = program.steps[2].writes[-1][1]
        key_slots = tuple(
            later_slot if slot is not None else None for slot in step.key_slots
        )
        mutated = dataclasses.replace(
            program,
            steps=(
                program.steps[0],
                dataclasses.replace(step, key_slots=key_slots),
                *program.steps[2:],
            ),
        )
        assert "I001" in codes(verify_program(mutated))

    def test_dropped_reduction_fields_are_i006(self, evaluator):
        program = evaluator.compile(CHAIN)
        reduced = evaluator.reduction_of(CHAIN, program)
        target = next(
            index
            for index, reduction in enumerate(reduced.reductions)
            if reduction != StepReduction((), (), (), ())
        )
        reductions = list(reduced.reductions)
        reductions[target] = StepReduction((), (), (), ())
        mutated = dataclasses.replace(reduced, reductions=tuple(reductions))
        assert codes(verify_reduced(mutated)) == ["I006"]

    def test_flipped_acyclic_flag_is_i005(self, evaluator):
        reduced = evaluator.reduction_of(CHAIN, evaluator.compile(CHAIN))
        assert reduced.acyclic and reduced.semi_joins
        mutated = dataclasses.replace(reduced, acyclic=False)
        assert codes(verify_reduced(mutated)) == ["I005"]

    def test_reordered_semi_joins_are_i005(self, evaluator):
        reduced = evaluator.reduction_of(CHAIN, evaluator.compile(CHAIN))
        assert len(reduced.semi_joins) >= 2
        mutated = dataclasses.replace(
            reduced, semi_joins=tuple(reversed(reduced.semi_joins))
        )
        assert "I005" in codes(verify_reduced(mutated))

    def test_stale_bucket_plan_is_i007(self, evaluator):
        program = evaluator.compile(CHAIN)
        reduced = evaluator.reduction_of(CHAIN, program)
        prelude = evaluator.prelude_for(CHAIN, reduced)
        evaluator.evaluate_with_bindings(CHAIN, strategy="reduced", prelude=prelude)
        evaluator.evaluate_with_bindings(CHAIN, strategy="reduced", prelude=prelude)
        snapshot = prelude._snapshot
        assert snapshot is not None and snapshot.plan is not None
        # Replace one plan entry's step with an equal-but-distinct copy: the
        # snapshot no longer refers to the program's own step objects.
        entry = snapshot.plan[0]
        snapshot.plan[0] = (dataclasses.replace(entry[0]), *entry[1:])
        assert codes(verify_prelude(prelude)) == ["I007"]

    def test_mutated_seed_is_i004(self, evaluator):
        query = parse_query('Q(X) :- R(X, Y), X = "1"')
        program = evaluator.compile(query)
        mutated = dataclasses.replace(
            program, seed=tuple((slot, "999") for slot, _value in program.seed)
        )
        assert "I004" in codes(verify_program(mutated))


# ---------------------------------------------------------------------------
# Engine integration: the verify_plans knob
# ---------------------------------------------------------------------------
class TestEngineKnob:
    def test_suite_engines_verify_strictly(self, paper_engine):
        # conftest flips the class default to "strict" for the whole suite,
        # so every fixture engine both verifies and raises on violations.
        assert CitationEngine.DEFAULT_VERIFY_PLANS == "strict"
        assert paper_engine.verify_plans == "strict"

    def test_shipped_default_is_off(self):
        # The cheap production default is spelled in the class body; the
        # suite-wide "strict" is a conftest override of the class attribute,
        # visible as such in vars() of the conftest-patched class.
        import inspect

        import repro.core.engine as engine_module

        source = inspect.getsource(engine_module.CitationEngine)
        assert 'DEFAULT_VERIFY_PLANS: VerifyMode = "off"' in source

    def test_invalid_knob_rejected(self, paper_db, paper_views):
        from repro.errors import CitationError

        with pytest.raises(CitationError):
            CitationEngine(paper_db, paper_views, verify_plans="always")

    def test_strict_raises_on_corrupted_program(self, paper_db, paper_views, paper_query):
        engine = CitationEngine(paper_db, paper_views, verify_plans="strict")
        evaluator = engine._execution_evaluator()
        original = evaluator.compile

        def corrupting_compile(query):
            program = original(query)
            step = program.steps[-1]
            bad = dataclasses.replace(
                step, writes=tuple((position, 99) for position, _slot in step.writes)
            )
            return dataclasses.replace(program, steps=(*program.steps[:-1], bad))

        evaluator.compile = corrupting_compile
        evaluator.invalidate_caches()
        with pytest.raises(PlanVerificationError) as excinfo:
            engine.compile_plan(paper_query)
        assert excinfo.value.diagnostics
        assert any(d.code == "I003" for d in excinfo.value.diagnostics)
        stats = engine.analysis_stats()
        assert stats["verify_violations"] >= 1

    def test_warn_reports_but_does_not_raise(self, paper_db, paper_views, paper_query):
        engine = CitationEngine(paper_db, paper_views, verify_plans="warn")
        evaluator = engine._execution_evaluator()
        original = evaluator.compile

        def corrupting_compile(query):
            program = original(query)
            step = program.steps[-1]
            bad = dataclasses.replace(
                step, writes=tuple((position, 99) for position, _slot in step.writes)
            )
            return dataclasses.replace(program, steps=(*program.steps[:-1], bad))

        evaluator.compile = corrupting_compile
        evaluator.invalidate_caches()
        plan = engine.compile_plan(paper_query)
        assert plan is not None
        stats = engine.analysis_stats()
        assert stats["plans_verified"] >= 1
        assert stats["verify_violations"] >= 1

    def test_off_skips_verification(self, paper_db, paper_views, paper_query):
        engine = CitationEngine(paper_db, paper_views, verify_plans="off")
        engine.compile_plan(paper_query)
        assert engine.analysis_stats()["plans_verified"] == 0

    def test_verify_plan_clean_after_cite(self, paper_engine, paper_query):
        plan = paper_engine.compile_plan(paper_query)
        paper_engine.execute_plan(plan)
        paper_engine.execute_plan(plan)  # warm preludes and bucket plans
        report = paper_engine.verify_plan(plan)
        assert not list(report)

    def test_verify_plan_catches_cross_plan_program_swap(
        self, paper_engine, paper_query
    ):
        other_query = parse_query("Q2(FID) :- FamilyIntro(FID, Text)")
        plan = paper_engine.compile_plan(paper_query)
        other = paper_engine.compile_plan(other_query)
        paper_engine.execute_plan(plan)
        paper_engine.execute_plan(other)
        # Corrupt: graft a program compiled for a different rewriting.
        object.__setattr__(plan, "compiled", (other.compiled[0], *plan.compiled[1:]))
        report = verify_citation_plan(plan)
        assert "I004" in codes(report)

    def test_strict_via_cite_on_healthy_engine_is_silent(self, paper_engine, paper_query):
        result = paper_engine.cite(paper_query)
        assert result.result.rows
        stats = paper_engine.analysis_stats()
        assert stats["plans_verified"] >= 1
        assert stats["verify_violations"] == 0


def test_reduce_program_is_deterministic(evaluator):
    program = evaluator.compile(CHAIN)
    first = reduce_program(program)
    second = reduce_program(program)
    assert first.semi_joins == second.semi_joins
    assert first.reductions == second.reductions
    assert first.subtrees == second.subtrees
