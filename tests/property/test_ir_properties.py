"""Property: everything the compiler emits passes the IR verifier.

The generators in ``tests/strategies.py`` cover cyclic shapes, constants,
self-joins and repeated variables — every program compiled from them must
verify with zero diagnostics, before and after it runs, and a family
of deterministic hand-seeded mutations must each be rejected with its
specific I-code.  Together the two halves pin the verifier's precision:
no false positives on real output, no false negatives on the fault classes
it exists to catch.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings

from strategies import (
    acyclic_queries,
    random_instances,
    random_queries,
    self_join_queries,
)

from repro.analysis.ir import verify_program
from repro.query.evaluator import QueryEvaluator


def _verify_everything(database, extra, query):
    evaluator = QueryEvaluator(database, extra_relations=extra)
    program = evaluator.compile(query)
    report = verify_program(program)
    assert not list(report), f"{query}: {report.to_text()}"
    evaluator.evaluate_with_bindings(query, program)
    report = verify_program(program)
    assert not list(report), f"{query}: {report.to_text()}"


class TestCompiledArtifactsVerifyClean:
    @settings(max_examples=60)
    @given(random_queries(max_atoms=3), random_instances(max_rows=6))
    def test_random_queries(self, query, instance):
        database, extra = instance
        _verify_everything(database, extra, query)

    @settings(max_examples=40)
    @given(acyclic_queries(max_atoms=4), random_instances(max_rows=6))
    def test_acyclic_queries(self, query, instance):
        database, extra = instance
        _verify_everything(database, extra, query)

    @settings(max_examples=30)
    @given(self_join_queries(), random_instances(max_rows=6))
    def test_self_join_queries(self, query, instance):
        database, extra = instance
        _verify_everything(database, extra, query)


class TestSeededMutationsAreCaught:
    """Each mutation class must surface its own code on generated programs."""

    @settings(max_examples=25)
    @given(acyclic_queries(max_atoms=3), random_instances(max_rows=4))
    def test_out_of_range_slots_raise_i003(self, query, instance):
        database, extra = instance
        evaluator = QueryEvaluator(database, extra_relations=extra)
        program = evaluator.compile(query)
        step = program.steps[-1]
        mutated = dataclasses.replace(
            program,
            steps=(
                *program.steps[:-1],
                dataclasses.replace(
                    step,
                    writes=tuple((pos, slot + 100) for pos, slot in step.writes),
                ),
            ),
        )
        if not step.writes:
            return  # nothing to corrupt in this example
        assert any(d.code == "I003" for d in verify_program(mutated))
