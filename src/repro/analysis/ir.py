"""Dataflow verification of compiled join IR (codes ``I001``–``I004``).

The query analyzer (:mod:`repro.analysis.query_rules`) checks what goes
*into* the compiler; nothing so far checked what comes *out*.  A
:class:`~repro.query.compiler.JoinProgram` is trusted blindly by the
evaluator: a miscompiled probe slot surfaces as silently wrong answers deep
inside the nested-loop join.  This module is the other half of the
contract — a verifier over the compiled artifacts themselves:

* :func:`verify_program` — dataflow over the join steps: every slot is
  written before it is read (I001), probe keys are well-formed (I002), slot
  bookkeeping is consistent with the frame (I003), and the steps, seed and
  head faithfully reassemble the source query (I004);
* :func:`verify_citation_plan` — every program compiled onto a
  :class:`~repro.core.engine.CitationPlan`, plus a check that each
  rewriting's program was compiled from that rewriting's expansion and
  that its citation program reads that program's frames (I004).

Everything here is pure description — no relation data is read — so
verification is cheap enough to run once per plan compile.
:meth:`~repro.core.engine.CitationEngine.compile_plan` does exactly that
behind the ``verify_plans`` knob (``strict`` raises
:class:`~repro.errors.PlanVerificationError`, ``warn`` attaches trace
annotations, ``off`` skips).
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.diagnostics import AnalysisReport, Severity, diagnostic, rule
from repro.query.ast import Atom, Constant, Term, Variable
from repro.query.compiler import JoinProgram

__all__ = ["verify_program", "verify_citation_plan"]


@rule("I001", "ir", Severity.ERROR, "a compiled step reads a slot before any step writes it")
@rule("I002", "ir", Severity.ERROR, "a probe key is malformed (misaligned or overlapping accessors)")
@rule("I003", "ir", Severity.ERROR, "slot bookkeeping is inconsistent with the frame")
@rule("I004", "ir", Severity.ERROR, "compiled steps, seed or head do not reassemble the source query")
def _ir_registration() -> None:  # pragma: no cover - registry stub
    raise NotImplementedError("I-codes are emitted by the verifier walk")


# ---------------------------------------------------------------------------
# I001–I004: the join program
# ---------------------------------------------------------------------------
def _slot_variable(program: JoinProgram, slot: object) -> Variable | None:
    """The variable owning *slot*, or ``None`` when the slot is invalid."""
    if isinstance(slot, int) and not isinstance(slot, bool) and 0 <= slot < len(program.variables):
        return program.variables[slot]
    return None


def _reconstructed_atom(program: JoinProgram, step) -> Atom | None:
    """Reassemble the atom a step was compiled from (``None`` if impossible).

    Every position of the atom is claimed by exactly one accessor class
    (probe key, write, post-check); mapping each back through the slot frame
    must reproduce a body atom verbatim.
    """
    terms: dict[int, Term] = {}
    for position, slot, value in zip(step.key_positions, step.key_slots, step.key_values):
        if slot is None:
            terms[position] = Constant(value)
        else:
            variable = _slot_variable(program, slot)
            if variable is None:
                return None
            terms[position] = variable
    for position, slot in (*step.writes, *step.post_checks):
        variable = _slot_variable(program, slot)
        if variable is None or position in terms:
            return None
        terms[position] = variable
    if set(terms) != set(range(len(terms))):
        return None
    try:
        return Atom(step.predicate, tuple(terms[i] for i in range(len(terms))))
    except Exception:  # malformed predicate/terms — reported via I004
        return None


def verify_program(program: JoinProgram) -> AnalysisReport:
    """Dataflow-verify one compiled :class:`JoinProgram` (I001–I004)."""
    report = AnalysisReport()
    loc = f"program {program.query.name!r}"
    width = program.slot_count

    # Seed: every (slot, value) must be in range, and the seeded constants
    # must be exactly the query's equality atoms (faithfulness, not
    # satisfiability — conflicting equalities are the query analyzer's Q001).
    seeded: set[int] = set()
    seed_pairs: Counter = Counter()
    for slot, value in program.seed:
        variable = _slot_variable(program, slot)
        if variable is None:
            report.add(diagnostic(
                "I003", f"seed slot {slot!r} is outside the frame of width {width}", loc
            ))
            continue
        seeded.add(slot)
        seed_pairs[(variable, repr(value))] += 1
    expected_seed = Counter(
        (eq.variable, repr(eq.constant.value)) for eq in program.query.equalities
    )
    if seed_pairs != expected_seed:
        report.add(diagnostic(
            "I004", "seed constants disagree with the query's equality atoms", loc
        ))

    bound = set(seeded)
    for index, step in enumerate(program.steps):
        sloc = f"{loc}, step {index} ({step.predicate})"
        # I002: probe-key shape.
        if not (len(step.key_positions) == len(step.key_slots) == len(step.key_values)):
            report.add(diagnostic(
                "I002", "key_positions/key_slots/key_values have different lengths", sloc
            ))
        if any(b <= a for a, b in zip(step.key_positions, step.key_positions[1:])):
            report.add(diagnostic(
                "I002", "key positions are not strictly ascending", sloc
            ))
        key_set = set(step.key_positions)
        write_set = {p for p, _ in step.writes}
        check_set = {p for p, _ in step.post_checks}
        overlap = (key_set & write_set) | (key_set & check_set) | (write_set & check_set)
        if overlap:
            report.add(diagnostic(
                "I002",
                f"positions {sorted(overlap)} are claimed by more than one accessor",
                sloc,
            ))
        for slot, value in zip(step.key_slots, step.key_values):
            if slot is None:
                continue
            if value is not None:
                report.add(diagnostic(
                    "I002",
                    f"probe entry carries both slot {slot} and constant {value!r}",
                    sloc,
                ))
            if _slot_variable(program, slot) is None:
                report.add(diagnostic(
                    "I003", f"probe slot {slot!r} is outside the frame of width {width}", sloc
                ))
            elif slot not in bound:
                report.add(diagnostic(
                    "I001",
                    f"probe key reads slot {slot} before any earlier step writes it",
                    sloc,
                ))
        # I003: writes bind fresh slots, exactly once across the program.
        written_here: set[int] = set()
        for _position, slot in step.writes:
            if _slot_variable(program, slot) is None:
                report.add(diagnostic(
                    "I003", f"write targets slot {slot!r} outside the frame of width {width}", sloc
                ))
                continue
            if slot in bound or slot in written_here:
                report.add(diagnostic(
                    "I003", f"slot {slot} is written twice (or seeded and written)", sloc
                ))
            written_here.add(slot)
        # I001: post-checks compare against a slot this very step wrote.
        for _position, slot in step.post_checks:
            if _slot_variable(program, slot) is None:
                report.add(diagnostic(
                    "I003", f"post-check reads slot {slot!r} outside the frame of width {width}", sloc
                ))
            elif slot not in written_here:
                report.add(diagnostic(
                    "I001",
                    f"post-check reads slot {slot} that this step did not write",
                    sloc,
                ))
        bound |= written_here

    # I003: the frame must be fully bound by the end of the walk.
    unbound = sorted(set(range(width)) - bound)
    if unbound:
        report.add(diagnostic(
            "I003", f"slots {unbound} are never bound by the seed or any write", loc
        ))

    # I004: steps must reassemble the query body (as a multiset).
    expected_atoms = Counter(program.query.body)
    actual_atoms: Counter = Counter()
    reassembled = True
    for index, step in enumerate(program.steps):
        atom = _reconstructed_atom(program, step)
        if atom is None:
            reassembled = False
            report.add(diagnostic(
                "I004",
                "step does not reassemble into a well-formed atom "
                "(positions missing, duplicated or slots invalid)",
                f"{loc}, step {index} ({step.predicate})",
            ))
        else:
            actual_atoms[atom] += 1
    if reassembled and actual_atoms != expected_atoms:
        report.add(diagnostic(
            "I004", "compiled steps do not reassemble the query body", loc
        ))

    # I001/I004: the head projection.
    head_terms = program.query.head_terms
    if len(program.head_slots) != len(head_terms) or len(program.head_values) != len(head_terms):
        report.add(diagnostic(
            "I004", "head projection width differs from the query head", loc
        ))
    else:
        for index, term in enumerate(head_terms):
            slot = program.head_slots[index]
            value = program.head_values[index]
            hloc = f"{loc}, head position {index}"
            if slot is None:
                if not isinstance(term, Constant) or term.value != value:
                    report.add(diagnostic(
                        "I004", f"head constant {value!r} does not match the query head", hloc
                    ))
                continue
            variable = _slot_variable(program, slot)
            if variable is None:
                report.add(diagnostic(
                    "I003", f"head slot {slot!r} is outside the frame of width {width}", hloc
                ))
            elif slot not in bound:
                report.add(diagnostic(
                    "I001", f"head reads slot {slot} that no step writes", hloc
                ))
            elif variable != term:
                report.add(diagnostic(
                    "I004",
                    f"head slot {slot} holds {variable.name!r}, not the query's head term",
                    hloc,
                ))
    return report


# ---------------------------------------------------------------------------
# Whole plans
# ---------------------------------------------------------------------------
def verify_citation_plan(plan) -> AnalysisReport:
    """Verify everything compiled onto a :class:`~repro.core.engine.CitationPlan`.

    Walks ``plan.compiled``: one entry per rewriting, whose program must
    verify and must have been compiled from that rewriting's expansion.
    Its citation program reads that program's frames by slot, so it must be
    laid out on the program's variables, follow the rewriting's body atom
    by atom, and read each λ-parameter from the slot of the variable its
    view atom's term resolves to (``rewriting.resolve``), or hold the
    constant it resolves to.  Duck typed on purpose — importing the engine
    here would be an import cycle.
    """
    report = AnalysisReport()
    if len(plan.compiled) != len(plan.rewritings):
        report.add(diagnostic(
            "I004",
            f"plan carries {len(plan.compiled)} compiled rewritings "
            f"for {len(plan.rewritings)} rewritings",
            f"plan {plan.query.name!r}",
        ))
    for position, (rewriting, (citation, program)) in enumerate(
        zip(plan.rewritings, plan.compiled)
    ):
        loc = f"plan {plan.query.name!r}, rewriting {position}"
        body = rewriting.query.body
        problems = []
        if program.query != rewriting.expansion:
            problems.append(
                "program was compiled from a different query than the rewriting's expansion"
            )
        if tuple(citation.variables) != program.variables:
            problems.append("citation program is laid out on another program's variables")
        if [view for view, _, _ in citation.atoms] != [atom.predicate for atom in body]:
            problems.append("citation program does not follow the rewriting's body")
        views = {view.name: view for view in rewriting.views}
        for (view, sources, _), atom in zip(citation.atoms, body):
            positions = views[atom.predicate].parameter_positions()
            for item, slot in sources:
                name, value = item if slot is None else (item, None)
                position = positions.get(name)
                term = None if position is None else rewriting.resolve(atom.terms[position])
                if slot is not None and _slot_variable(program, slot) != term:
                    problems.append(
                        f"parameter {name!r} of {view!r} reads slot {slot!r}, which holds "
                        f"no variable of its view atom at the parameter's position ({term})"
                    )
                elif slot is None and not (isinstance(term, Constant) and term.value == value):
                    problems.append(
                        f"parameter {name!r} of {view!r} holds {value!r}, "
                        f"not its view atom's term at the parameter's position ({term})"
                    )
        for message in problems:
            report.add(diagnostic("I004", message, loc))
        report.extend(verify_program(program))
    return report
