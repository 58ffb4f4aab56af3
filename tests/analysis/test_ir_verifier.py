"""The compiled-plan IR verifier: clean on real output, precise on mutations.

Two halves.  First, everything the compiler actually produces — join
programs and the citation programs reading them — must verify clean (the whole tier-1 suite also
enforces this via the ``strict`` default installed in ``conftest.py``).
Second, each class of hand-seeded corruption must be rejected with its
specific I-code, so the verifier localises faults instead of merely
detecting them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import CitationEngine, parse_query
from repro.analysis.ir import verify_citation_plan, verify_program
from repro.core.engine import CitationProgram
from repro.errors import PlanVerificationError
from repro.query.ast import Variable
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
    def test_program_verifies_clean_after_evaluation(self, evaluator):
        program = evaluator.compile(CHAIN)
        assert evaluator.evaluate_with_bindings(CHAIN, program)
        assert not list(verify_program(program))

    def test_constants_and_equalities_verify_clean(self, evaluator):
        query = parse_query('Q(X) :- R(X, Y), S(Y, "3"), X = "1"')
        assert not list(verify_program(evaluator.compile(query)))

    def test_self_join_verifies_clean(self, evaluator):
        query = parse_query("Q(X, Z) :- R(X, Y), R(Y, Z)")
        assert not list(verify_program(evaluator.compile(query)))

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
        paper_engine.execute_plan(plan)
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

    def test_verify_plan_catches_swapped_citation_programs(self, paper_engine, paper_query):
        # Both rewritings' join programs lay out (FID, FName, Desc, Text),
        # so only the citation programs' atoms tell the swap apart.
        plan = paper_engine.compile_plan(paper_query)
        (first, first_program), (second, second_program) = plan.compiled
        assert first.variables == second.variables
        object.__setattr__(
            plan, "compiled", ((second, first_program), (first, second_program))
        )
        report = verify_citation_plan(plan)
        assert codes(report) == ["I004"]
        assert any("does not follow the rewriting's body" in d.message for d in report.errors)

    def test_verify_plan_catches_citation_program_on_another_layout(
        self, paper_engine, paper_query
    ):
        plan = paper_engine.compile_plan(paper_query)
        (rewriting, *_), ((_citation, program), *rest) = plan.rewritings, plan.compiled
        # Laid out in variable-name order, not on the join program's slots.
        by_name = CitationProgram(rewriting, paper_engine._citation_view_by_name)
        assert by_name.variables != program.variables
        object.__setattr__(plan, "compiled", ((by_name, program), *rest))
        assert "I004" in codes(verify_citation_plan(plan))

    def test_verify_plan_catches_a_parameter_read_from_a_foreign_slot(
        self, paper_engine, paper_query
    ):
        plan = paper_engine.compile_plan(paper_query)
        citation, program = plan.compiled[0]
        slot_of = program.variables.index
        (view, sources, key), *others = citation.atoms
        assert view == "V1" and sources == (("FID", slot_of(Variable("FID"))),)
        # Text is a variable of V3's atom, not of V1's.
        citation.atoms = ((view, (("FID", slot_of(Variable("Text"))),), key), *others)
        report = verify_citation_plan(plan)
        assert codes(report) == ["I004"]
        assert any("holds no variable of its view atom" in d.message for d in report.errors)

    def test_strict_via_cite_on_healthy_engine_is_silent(self, paper_engine, paper_query):
        result = paper_engine.cite(paper_query)
        assert result.result.rows
        stats = paper_engine.analysis_stats()
        assert stats["plans_verified"] >= 1
        assert stats["verify_violations"] == 0

