"""Dataflow verification of compiled join IR (codes ``I001``–``I008``).

The query analyzer (:mod:`repro.analysis.query_rules`) checks what goes
*into* the compiler; nothing so far checked what comes *out*.  A
:class:`~repro.query.compiler.JoinProgram` is trusted blindly by the
evaluator: a miscompiled probe slot or a stale prelude bucket plan surfaces
as silently wrong answers deep inside the nested-loop join.  This module is
the other half of the contract — a verifier over the compiled artifacts
themselves:

* :func:`verify_program` — dataflow over the join steps: every slot is
  written before it is read (I001), probe keys are well-formed (I002), slot
  bookkeeping is consistent with the frame (I003), and the steps, seed and
  head faithfully reassemble the source query (I004);
* :func:`verify_reduced` — the semi-join analysis: edges must agree with
  GYO ear-removal order over the program's hypergraph (I005) and every
  :class:`~repro.query.compiler.StepReduction` must match what the program
  dictates — prefilters, repeats, SIP filters and exports referencing only
  live variables (I006);
* :func:`verify_prelude` — warm state: a
  :class:`~repro.query.compiler.PreludeCache` snapshot (stamps, candidates
  and the prepared bucket plan) must agree with the very steps it was
  snapshotted from (I007);
* :func:`verify_citation_plan` — all of the above over everything compiled
  onto a :class:`~repro.core.engine.CitationPlan`, plus a check that each
  rewriting's program was compiled from that rewriting;
* :func:`verify_shard_partition` — sharded execution state: the partition of
  a program's driving rows must be an exact multiset cover, with every row
  routed to the shard its join-key hash dictates (I008), so the union of
  per-shard runs provably equals the unsharded program.

Everything here is pure description — no relation data is read beyond
identity/version stamps — so verification is cheap enough to run once per
plan compile.  :meth:`~repro.core.engine.CitationEngine.compile_plan` does
exactly that behind the ``verify_plans`` knob (``strict`` raises
:class:`~repro.errors.PlanVerificationError`, ``warn`` attaches trace
annotations, ``off`` skips).

The reduction and semi-join checks deliberately use *recompute-and-diff*:
:func:`~repro.query.compiler.reduce_program` is a deterministic pure
function of the program, so any drift — a dropped prefilter, a dead SIP
filter, a reordered ear — shows up as a diff against a fresh analysis
rather than needing one hand-written rule per field.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.diagnostics import AnalysisReport, Severity, diagnostic, rule
from repro.query.ast import Atom, Constant, Term, Variable
from repro.query.compiler import (
    JoinProgram,
    PreludeCache,
    ReducedProgram,
    _PreludeSnapshot,
    reduce_program,
)

__all__ = [
    "verify_program",
    "verify_reduced",
    "verify_prelude",
    "verify_citation_plan",
    "verify_shard_partition",
]


@rule("I001", "ir", Severity.ERROR, "a compiled step reads a slot before any step writes it")
@rule("I002", "ir", Severity.ERROR, "a probe key is malformed (misaligned or overlapping accessors)")
@rule("I003", "ir", Severity.ERROR, "slot bookkeeping is inconsistent with the frame")
@rule("I004", "ir", Severity.ERROR, "compiled steps, seed or head do not reassemble the source query")
@rule("I005", "ir", Severity.ERROR, "semi-join edges disagree with GYO ear-removal order")
@rule("I006", "ir", Severity.ERROR, "a step reduction drifted from its program (dead or missing filters)")
@rule("I007", "ir", Severity.ERROR, "a prelude snapshot disagrees with the steps it was built from")
@rule("I008", "ir", Severity.ERROR, "a shard partition is not an exact, correctly-routed cover of the driving rows")
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
# I005–I006: the semi-join reduction
# ---------------------------------------------------------------------------
def _sorted_repr(pairs) -> list:
    """Order-insensitive, hash-free canonical form for accessor tuples."""
    return sorted(pairs, key=repr)


def verify_reduced(reduced: ReducedProgram) -> AnalysisReport:
    """Verify a :class:`ReducedProgram`, including its underlying program.

    ``reduce_program`` is a deterministic pure function of the program, so
    the reduction and the join tree are checked by recomputing a fresh
    analysis and diffing — any drift (mutated filters, reordered ears,
    stale subtrees) is a divergence from the recomputation.
    """
    program = reduced.program
    report = verify_program(program)
    loc = f"reduced program {program.query.name!r}"
    expected = reduce_program(program)

    # I005: acyclicity flag and the join tree.
    if reduced.acyclic != expected.acyclic:
        report.add(diagnostic(
            "I005",
            f"acyclic flag is {reduced.acyclic} but GYO ear removal says {expected.acyclic}",
            loc,
        ))
    if not reduced.acyclic and (reduced.semi_joins or reduced.subtrees):
        report.add(diagnostic(
            "I005", "a program flagged cyclic must not carry semi-join edges", loc
        ))
    if reduced.semi_joins != expected.semi_joins:
        limit = max(len(reduced.semi_joins), len(expected.semi_joins))
        for index in range(limit):
            got = reduced.semi_joins[index] if index < len(reduced.semi_joins) else None
            want = expected.semi_joins[index] if index < len(expected.semi_joins) else None
            if got != want:
                report.add(diagnostic(
                    "I005",
                    f"semi-join edge {index} disagrees with GYO ear-removal order "
                    f"(expected {want}, got {got})",
                    loc,
                ))
                break
    if reduced.subtrees and len(reduced.subtrees) != len(reduced.semi_joins):
        report.add(diagnostic(
            "I005", "child subtrees are not aligned with the semi-join edges", loc
        ))
    elif reduced.subtrees != expected.subtrees and reduced.semi_joins == expected.semi_joins:
        report.add(diagnostic(
            "I005", "recorded child subtrees disagree with the ear-removal accumulation", loc
        ))

    # I006: per-step reductions.
    if len(reduced.reductions) != len(program.steps):
        report.add(diagnostic(
            "I006", "the program does not carry one reduction per step", loc
        ))
        return report
    written_before: set[int] = set(dict(program.seed))
    for index, (step, got, want) in enumerate(
        zip(program.steps, reduced.reductions, expected.reductions)
    ):
        sloc = f"{loc}, step {index} ({step.predicate})"
        # Liveness first, for precise messages: SIP filters may only read
        # slots some *earlier* step writes, and exports must be real writes.
        write_set = set(step.writes)
        for _position, slot in got.sip_filters:
            if slot not in written_before:
                report.add(diagnostic(
                    "I006",
                    f"sip filter reads slot {slot} that no earlier step writes (dead variable)",
                    sloc,
                ))
        for position, slot in got.exports:
            if (position, slot) not in write_set:
                report.add(diagnostic(
                    "I006",
                    f"export ({position}, {slot}) is not one of the step's writes",
                    sloc,
                ))
        for field_name in ("prefilters", "repeat_pairs", "sip_filters", "exports"):
            got_field = getattr(got, field_name)
            want_field = getattr(want, field_name)
            if _sorted_repr(got_field) != _sorted_repr(want_field):
                report.add(diagnostic(
                    "I006",
                    f"{field_name} drifted from the program "
                    f"(expected {tuple(want_field)!r}, got {tuple(got_field)!r})",
                    sloc,
                ))
        written_before.update(slot for _position, slot in step.writes)
    return report


# ---------------------------------------------------------------------------
# I007: warm prelude state
# ---------------------------------------------------------------------------
def _verify_snapshot(
    snapshot: _PreludeSnapshot, reduced: ReducedProgram, loc: str
) -> AnalysisReport:
    report = AnalysisReport()
    steps = reduced.program.steps
    if len(snapshot.stamps) != len(steps):
        report.add(diagnostic(
            "I007",
            f"snapshot stamps {len(snapshot.stamps)} relations for {len(steps)} steps",
            loc,
        ))
    for index, stamp in enumerate(snapshot.stamps):
        if not (isinstance(stamp, tuple) and len(stamp) == 2 and isinstance(stamp[1], int)):
            report.add(diagnostic(
                "I007", f"stamp {index} is not a (relation, version) pair", loc
            ))
    if snapshot.candidates is not None and len(snapshot.candidates) != len(steps):
        report.add(diagnostic(
            "I007",
            f"snapshot carries {len(snapshot.candidates)} candidate lists for {len(steps)} steps",
            loc,
        ))
    plan = snapshot.plan
    if plan is None:
        return report
    if snapshot.candidates is None:
        report.add(diagnostic(
            "I007", "snapshot proved emptiness but still carries an execution plan", loc
        ))
        return report
    if len(plan) != len(steps):
        report.add(diagnostic(
            "I007", f"bucket plan has {len(plan)} entries for {len(steps)} steps", loc
        ))
        return report
    for index, entry in enumerate(plan):
        eloc = f"{loc}, plan entry {index}"
        if not (isinstance(entry, tuple) and len(entry) == 4):
            report.add(diagnostic(
                "I007", "plan entry is not a (step, kind, source, key_pairs) tuple", eloc
            ))
            continue
        step, kind, _source, key_pairs = entry
        expected_step = steps[index]
        if step is not expected_step:
            report.add(diagnostic(
                "I007",
                "plan entry was built from a foreign step object (stale bucket plan)",
                eloc,
            ))
            continue
        if kind not in ("all", "map", "scan"):
            report.add(diagnostic(
                "I007", f"unknown row-source kind {kind!r}", eloc
            ))
        elif kind == "all" and expected_step.key_positions:
            report.add(diagnostic(
                "I007", "keyed step is served by an unkeyed 'all' source", eloc
            ))
        elif kind != "all" and not expected_step.key_positions:
            report.add(diagnostic(
                "I007", f"unkeyed step is served by a keyed {kind!r} source", eloc
            ))
        if key_pairs != tuple(zip(expected_step.key_slots, expected_step.key_values)):
            report.add(diagnostic(
                "I007", "probe key pairs drifted from the step's accessors", eloc
            ))
    return report


def verify_prelude(prelude: PreludeCache) -> AnalysisReport:
    """Verify a :class:`PreludeCache`, including its reduced program (I007)."""
    reduced = prelude.reduced
    report = verify_reduced(reduced)
    loc = f"prelude for {reduced.program.query.name!r}"
    if len(prelude._step_memo) != len(reduced.program.steps):
        report.add(diagnostic(
            "I007", "per-step memo width differs from the program", loc
        ))
    for index in prelude._edge_memo:
        if not (isinstance(index, int) and 0 <= index < len(reduced.semi_joins)):
            report.add(diagnostic(
                "I007", f"edge memo references nonexistent semi-join edge {index!r}", loc
            ))
    snapshot = prelude._snapshot
    if snapshot is not None:
        report.extend(_verify_snapshot(snapshot, reduced, loc))
    return report


# ---------------------------------------------------------------------------
# I008: sharded execution state
# ---------------------------------------------------------------------------
def verify_shard_partition(
    program: JoinProgram,
    key_positions,
    parts,
    source_rows,
) -> AnalysisReport:
    """Verify a shard partition of *program*'s driving rows (I008).

    ``parts`` is the list of per-shard row lists the parallel evaluator is
    about to execute, ``source_rows`` the driving rows the partition was cut
    from, and ``key_positions`` the join-key positions it hashed on.  The
    union of per-shard runs equals the unsharded program iff the partition is
    an exact multiset cover with every row in the shard its key hash selects
    — exactly what this rule checks, so it composes with I001–I007 (which
    vouch for the per-shard program itself, unchanged by sharding).
    """
    report = AnalysisReport()
    loc = f"shard partition for {program.query.name!r}"
    shard_count = len(parts)
    if shard_count < 1:
        report.add(diagnostic("I008", "partition has no shards", loc))
        return report
    driving = program.steps[0] if program.steps else None
    width = (
        len(driving.key_positions) + len(driving.writes) + len(driving.post_checks)
        if driving is not None
        else 0
    )
    for position in key_positions:
        if not isinstance(position, int) or position < 0 or (width and position >= width):
            report.add(diagnostic(
                "I008",
                f"shard key position {position!r} is outside the driving atom's arity",
                loc,
            ))
            return report
    expected = Counter(source_rows)
    actual: Counter = Counter()
    for index, part in enumerate(parts):
        for row in part:
            actual[row] += 1
            key = tuple(row[p] for p in key_positions) if key_positions else row
            if hash(key) % shard_count != index:
                report.add(diagnostic(
                    "I008",
                    f"row {row!r} landed in shard {index}, not the shard its key hash selects",
                    loc,
                ))
    if actual != expected:
        missing = expected - actual
        extra = actual - expected
        if missing:
            report.add(diagnostic(
                "I008",
                f"{sum(missing.values())} driving row(s) are missing from the partition",
                loc,
            ))
        if extra:
            report.add(diagnostic(
                "I008",
                f"{sum(extra.values())} row(s) in the partition are duplicated or foreign",
                loc,
            ))
    return report


# ---------------------------------------------------------------------------
# Whole plans
# ---------------------------------------------------------------------------
def verify_citation_plan(plan) -> AnalysisReport:
    """Verify everything compiled onto a :class:`~repro.core.engine.CitationPlan`.

    Walks ``plan.compiled``: one entry per rewriting, whose prelude (with
    the reduced and plain programs under it) must verify and whose program
    must have been compiled from that rewriting's query.  Duck typed on
    purpose — importing the engine here would be an import cycle.
    """
    report = AnalysisReport()
    if len(plan.compiled) != len(plan.rewritings):
        report.add(diagnostic(
            "I004",
            f"plan carries {len(plan.compiled)} compiled rewritings "
            f"for {len(plan.rewritings)} rewritings",
            f"plan {plan.query.name!r}",
        ))
    for position, (rewriting, (_citation, prelude)) in enumerate(
        zip(plan.rewritings, plan.compiled)
    ):
        if prelude.reduced.program.query != rewriting.query:
            report.add(diagnostic(
                "I004",
                "program was compiled from a different query than the rewriting",
                f"plan {plan.query.name!r}, rewriting {position}",
            ))
        report.extend(verify_prelude(prelude))
    return report
