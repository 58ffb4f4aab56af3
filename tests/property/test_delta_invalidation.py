"""Property: delta-scoped cache refresh is indistinguishable from a fresh engine.

A long-lived :class:`CitationEngine` keeps its citation records across
database changes, evicting only what each logged change can reach.  After
every step of a hypothesis-drawn edit sequence over all seven GtoPdb
relations, its cited results must be byte-identical to those of an engine
built fresh on the same data, in both modes and under the drawn policy.  The
steps mix

* in-band edits (``Database.insert`` / ``delete``), among them a row
  rewritten in place: its key kept, another attribute redrawn,
* out-of-band edits on a relation the database owns (``Relation.insert`` /
  ``delete``, which the database folds in as drift),
* bursts of writes longer than the change log reaches back (the drawn
  databases get a short log, so a burst stays cheap),
* ``invalidate_caches()``.

The long-lived engine also holds one formal-mode plan per query, compiled
and executed before the edit sequence, and executes each again after every
step.  Compiled state lives only on plans, and a plan's join programs hold
no data: they must run every edit's data through the base relations and
their indexes, across ``invalidate_caches()`` too, with no epoch check.  (An
economical plan embeds a selection made against the data, so a
held one may rightly differ from a fresh engine's.)

A long-lived :class:`CitationService` over the long-lived engine has its
result cache warmed on every query in both modes before the edits; after
every step it serves every query in the step's mode, bringing cached
entries forward through the change log (re-stamped, or with the reached
rows' citations patched) where it can.  Each answer must be byte-identical
to the fresh engine's.

Two :class:`IncrementalCitationMaintainer` instances, for the paper query
and for Q6, are built on the long-lived engine before any of that warm-up.
They follow the database's change log, and after every step each
maintained result must be byte-identical to the fresh engine's formal-mode
result.  Q6 is there because its views include ``V7``, whose records a
``Ligand`` change reaches wholesale, and ``V9`` and ``V12``, which read
``Ligand``.

Besides the paper's extended views the engine carries six more:

* ``V7``, whose citation query joins ``Contributor`` (keyed by the
  parameter) with a ``Ligand`` atom that lacks it, so a ligand change must
  evict every ``V7`` record;
* ``V8``, a parameterized view with an unparameterized citation query over
  ``Committee``;
* ``V9``, an unparameterized view whose citation query reads ``Contributor``;
* ``V10``, whose head drops the key of ``Family``, so one of its bindings
  has an expansion frame per family of that name;
* ``V11``, one atom over ``Target`` with a constant, whose head keeps the
  key but drops ``FID``: it selects rows by the constant, and a target
  moved to another family keeps its ``V11`` row;
* ``V12``, a two-atom body, joined again by every execution.

Each step also reads every target's ``V4`` record under the non-canonical
key ``{"TID": t, "extra": 1}``, which must follow the data like the
canonical one.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.relational.database as database_module
from repro import (
    CitationEngine,
    CitationPolicy,
    CitationRequest,
    CitationService,
    IncrementalCitationMaintainer,
    parse_query,
)
from repro.core.citation_view import CitationView, DefaultCitationFunction
from repro.errors import IntegrityError
from repro.workloads import gtopdb

RELATIONS = gtopdb.schema().relation_names
#: The change log length the drawn databases get, short so that a burst
#: past it stays cheap.
LOG_LIMIT = 64
QUERIES = tuple(gtopdb.example_queries()) + (
    parse_query('Q7(TName) :- Target(TID, FID, TName, "GPCR")'),
    parse_query("Q8(FName) :- Family(FID, FName, Desc)"),
)
COMBINATORS = ("union", "join", "min_size", "max_coverage", "first")
#: ``join`` as ``Agg`` multiplies every row's records together; left out, as
#: in the assembly-equivalence suite.
AGGREGATES = ("union", "min_size", "max_coverage", "first")
STEPS = ("insert", "delete", "replace", "update", "drift", "burst", "invalidate")


def extra_views() -> list[CitationView]:
    function = DefaultCitationFunction(constants={"source": gtopdb.DATABASE_TITLE})
    return [
        CitationView(
            "lambda TID. V7(TID, TName) :- Target(TID, FID, TName, Type)",
            [
                "lambda TID. CV7(TID, PName, LName) :- Contributor(TID, PName), "
                "Interaction(TID, LID, Action, Affinity), Ligand(LID, LName, LType)"
            ],
            function,
        ),
        CitationView(
            "lambda FID. V8(FID, FName) :- Family(FID, FName, Desc)",
            [
                "lambda FID. CV8(FID, Text) :- FamilyIntro(FID, Text)",
                "CV8all(PName) :- Committee(F, PName)",
            ],
            function,
        ),
        CitationView(
            "V9(LID, LName) :- Ligand(LID, LName, Type)",
            ["CV9(PName) :- Contributor(T, PName)"],
            function,
        ),
        CitationView(
            "V10(FName) :- Family(FID, FName, Desc)",
            ["CV10(PName) :- Committee(F, PName)"],
            function,
        ),
        CitationView(
            'lambda TID. V11(TID, TName) :- Target(TID, FID, TName, "GPCR")',
            ["lambda TID. CV11(TID, PName) :- Contributor(TID, PName)"],
            function,
        ),
        CitationView(
            "V12(TID, LName) :- Interaction(TID, LID, Action, Affinity), "
            "Ligand(LID, LName, LType)",
            ['CV12(D) :- D = "interactions"'],
            function,
        ),
    ]


def views() -> list[CitationView]:
    return gtopdb.citation_views(extended=True) + extra_views()


def dump(result) -> list[str]:
    """The canonical text of a cited result, one line per row."""
    lines = [
        f"{tc.row!r} | {tc.expression} | {sorted(repr(r) for r in tc.records)}"
        for tc in result.tuple_citations
    ]
    citation = result.citation
    lines.append(f"{citation.expression} | {sorted(repr(r) for r in citation.records)}")
    return lines


def record_reads(engine: CitationEngine, database) -> list[str]:
    """Every target's V4 record under a non-canonical key, every target's
    V7 record, every family's V8 record and the V9 record, as text."""
    targets = sorted(row[0] for row in database.relation("Target").rows)
    families = sorted(row[0] for row in database.relation("Family").rows)
    keys = (
        [("V4", {"TID": t, "extra": 1}) for t in targets]
        + [("V7", {"TID": t}) for t in targets]
        + [("V8", {"FID": f}) for f in families]
        + [("V9", {})]
    )
    return [repr(engine.citation_record(view, values)) for view, values in keys]


def fresh_value(dtype: type, rng: random.Random) -> object:
    if dtype is int:
        return 900_000 + rng.randrange(1_000)
    if dtype is float:
        return rng.choice([0.5, 7.25, 9.0])
    return f"edit-{rng.randrange(1_000)}"


def mutated(relation, rng: random.Random, row: tuple | None = None) -> tuple:
    """An existing row with one attribute redrawn from its column or fresh;
    given *row*, that row with an attribute outside its key redrawn."""
    rows = sorted(relation.rows, key=repr)
    attributes = relation.schema.attributes
    positions = range(len(attributes))
    if row is not None:
        key = relation.schema.key_positions() or ()
        positions = [p for p in positions if p not in key] or positions
    elif not rows:
        return tuple(fresh_value(a.dtype, rng) for a in attributes)
    row = list(row if row is not None else rng.choice(rows))
    position = rng.choice(positions)
    column = sorted({r[position] for r in rows}, key=repr)
    row[position] = rng.choice(column + [fresh_value(attributes[position].dtype, rng)])
    return tuple(row)


def apply_step(engine, database, step: str, relation_name: str, rng: random.Random) -> None:
    relation = database.relation(relation_name)
    rows = sorted(relation.rows, key=repr)
    if step == "invalidate":
        engine.invalidate_caches()
    elif step == "burst":
        # One edit, then more logged changes than the log keeps, none of
        # which leaves a trace in the data.
        if rows:
            database.delete(relation_name, rng.choice(rows))
        churn = (800_000,) + tuple(
            fresh_value(a.dtype, rng) for a in relation.schema.attributes[1:]
        )
        for _ in range(LOG_LIMIT // 2 + 1):
            database.insert(relation_name, churn)
            database.delete(relation_name, churn)
    elif step == "update":
        if rows:
            row = rng.choice(rows)
            database.delete(relation_name, row)
            try:
                database.insert(relation_name, mutated(relation, rng, row))
            except IntegrityError:
                pass
    elif step == "drift":
        # Out of band: straight on the relation the database owns.
        if rows and rng.random() < 0.5:
            relation.delete(rng.choice(rows))
        try:
            relation.insert(mutated(relation, rng))
        except IntegrityError:
            pass
    else:
        if step in ("delete", "replace") and rows:
            database.delete(relation_name, rng.choice(rows))
        if step in ("insert", "replace"):
            try:
                database.insert(relation_name, mutated(relation, rng))
            except IntegrityError:
                pass


instances = st.fixed_dictionaries(dict(
    families=st.integers(4, 8),
    committee_per_family=st.integers(1, 2),
    intro_fraction=st.sampled_from([0.5, 1.0]),
    targets_per_family=st.integers(1, 2),
    ligands=st.integers(3, 8),
    interactions_per_target=st.integers(1, 2),
    duplicate_name_fraction=st.sampled_from([0.3, 0.7]),
    seed=st.integers(0, 2**16),
))
policies = st.builds(
    CitationPolicy.from_names,
    st.sampled_from(COMBINATORS),
    st.sampled_from(COMBINATORS),
    st.sampled_from(COMBINATORS),
    st.sampled_from(AGGREGATES),
)
steps = st.lists(
    st.tuples(
        st.sampled_from(STEPS),
        st.sampled_from(RELATIONS),
        st.sampled_from(QUERIES),
        st.sampled_from(["formal", "economical"]),
    ),
    min_size=1,
    max_size=6,
)


class TestDeltaInvalidation:
    @given(
        instances, policies, steps, st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_long_lived_engine_matches_a_fresh_one(
        self, instance, policy, edits, seed
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(database_module, "_CHANGE_LOG_LIMIT", LOG_LIMIT)
            database = gtopdb.generate(**instance)
        database.enforce_foreign_keys = False  # edits may leave dangling rows
        rng = random.Random(seed)
        engine = CitationEngine(database, views(), policy=policy)
        maintained = [IncrementalCitationMaintainer(engine, QUERIES[i]) for i in (0, 5)]
        with CitationService(engine, startup_lint=False) as service:
            held = [engine.compile_plan(query, "formal") for query in QUERIES]
            for query, plan in zip(QUERIES, held):
                # Warm every record, view, index and cached result the steps
                # may hit.
                engine.cite(query)
                engine.execute_plan(plan)
                for mode in ("formal", "economical"):
                    service.submit(CitationRequest(query=query, mode=mode)).unwrap()
            record_reads(engine, database)
            for step, relation_name, query, mode in edits:
                apply_step(engine, database, step, relation_name, rng)
                fresh = CitationEngine(database, views(), policy=policy)
                expected = {
                    (q, m): dump(fresh.cite(q, m))
                    for q in QUERIES
                    for m in {mode, "formal"}
                }
                # The service first, so that its refreshes find the engine's
                # caches behind the data.
                for q in QUERIES:
                    served = service.submit(CitationRequest(query=q, mode=mode)).unwrap()
                    assert dump(served) == expected[q, mode], (step, q.name, mode)
                assert dump(engine.cite(query, mode)) == expected[query, mode], step
                assert record_reads(engine, database) == record_reads(fresh, database), step
                for plan in held:
                    assert dump(engine.execute_plan(plan)) == expected[plan.query, "formal"], (
                        step, plan.query.name
                    )
                for maintainer in maintained:
                    assert dump(maintainer.result) == expected[maintainer.query, "formal"], (
                        step, maintainer.query.name
                    )
