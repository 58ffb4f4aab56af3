"""Property: compiled citation assembly is byte-identical to Definitions 2.1/2.2.

:class:`ReferenceAssembly` below is the per-binding interpreter the engine
ran before citation programs: ``citation_for_binding`` builds the joint
(``·``) citation of one binding, ``alternative`` combines a row's bindings
in ``repr`` order (``+``), ``rewrite_alternative`` combines the rewritings
(``+R``) and ``policy.evaluate`` folds the expression.  For
hypothesis-drawn GtoPdb instances, the paper and example queries with their
alpha-renamed and atom-reordered variants, both modes, and policies built
from every built-in combinator in every slot, the engine must produce the
same expression text, records, row order and aggregate citation, on a cold
and on a warm record cache.

The engine joins each rewriting's expansion over the base relations; the
reference evaluates the rewriting itself over materialized views.  Besides
the paper's identity views, drawn queries cite through views whose
expansions differ from their atoms (:func:`unfolding_views`): views that
project columns away, so one rewriting binding has several expansion
frames, and views whose λ-parameter resolves through the expansion's
unifier.  Their queries use lower-case variables, which sort after the
expansion's fresh ``_e…`` names, so ranking ``+`` on any slot but the
rewriting's variables shows.

The engine folds the policy without ``policy.evaluate``; a recording policy
checks that it still makes the reference's combinator calls, in the same
order and with equal operands — the contract custom policies rely on.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import CitationEngine, CitationPolicy, parse_query
from repro.core.citation_view import CitationView, DefaultCitationFunction
from repro.core.policy import Combinators
from repro.core.record import CitationRecord, set_size
from repro.core.expression import (
    Aggregate,
    CitationAtom,
    alternative,
    joint,
    rewrite_alternative,
)
from repro.errors import CitationError
from repro.query.ast import ConjunctiveQuery, Constant, Variable
from repro.query.evaluator import QueryEvaluator
from repro.rewriting.rewriting import Rewriting
from repro.workloads import gtopdb

COMBINATORS = ("union", "join", "min_size", "max_coverage", "first")
SLOTS = ("joint", "alternative", "rewrite_alternative", "aggregate")
#: ``join`` as ``Agg`` multiplies every row's records together, so the drawn
#: instances leave it out; the paper instance covers it below.
AGGREGATES = ("union", "min_size", "max_coverage", "first")
QUERIES = tuple(gtopdb.example_queries())
VARIANTS = ("original", "renamed", "reordered", "renamed+reordered")
#: Queries over :func:`unfolding_views`, in lower-case variables.
UNFOLDING_QUERIES = tuple(map(parse_query, (
    "Qp(fname) :- Family(fid, fname, desc)",
    "Qt(fname) :- Family(fid, fname, desc), Target(tid, fid, tname, type)",
    'Qg(tname) :- Target(tid, fid, tname, "GPCR")',
    "Qr(tid, lname) :- Interaction(tid, lid, act, aff), Ligand(lid, lname, lt)",
)))


def unfolding_views() -> list[CitationView]:
    """The extended views plus four whose expansions are not their atoms:

    * ``VP`` projects ``Desc`` away from ``Family``, as V7–V10 project;
    * ``VT`` joins ``Family`` and ``Target``, as V12 joins two relations,
      keeping one row per family: a binding has a frame per target;
    * ``VG`` fixes its head variable ``Type`` with an equality, so a
      rewriting's fresh term there resolves to the constant ``"GPCR"``;
    * ``VR`` repeats its head variable ``LID``.
    """
    function = DefaultCitationFunction(constants={"source": gtopdb.DATABASE_TITLE})
    return gtopdb.citation_views(extended=True) + [
        CitationView(
            "lambda FID. VP(FID, FName) :- Family(FID, FName, Desc)",
            ["lambda FID. CVP(FID, PName) :- Committee(FID, PName)"],
            function,
        ),
        CitationView(
            "lambda FID. VT(FID, FName) :- Family(FID, FName, Desc), "
            "Target(TID, FID, TName, Type)",
            ["lambda FID. CVT(FID, TName) :- Target(TID, FID, TName, Type)"],
            function,
        ),
        CitationView(
            'lambda Type. VG(TID, TName, Type) :- Target(TID, FID, TName, Type), Type = "GPCR"',
            ["lambda Type. CVG(Type, PName) :- Target(T, F, N, Type), Contributor(T, PName)"],
            function,
        ),
        CitationView(
            "lambda LID. VR(TID, LID, LID) :- Interaction(TID, LID, Action, Affinity)",
            ["lambda LID. CVR(LID, LName) :- Ligand(LID, LName, LType)"],
            function,
        ),
    ]


class FixedRewriter:
    """A rewriter returning given rewritings, whatever the query."""

    def __init__(self, *rewritings: Rewriting) -> None:
        self.rewritings = list(rewritings)

    def rewrite(self, query) -> list[Rewriting]:
        return self.rewritings


class ReferenceAssembly:
    """Definitions 2.1/2.2 interpreted per binding, with its own record cache."""

    def __init__(self, engine: CitationEngine) -> None:
        self.engine = engine
        self.views = {cv.name: cv for cv in engine.citation_views}
        self.records: dict = {}

    def record(self, view_name, values):
        key = (view_name, tuple(sorted(values.items(), key=repr)))
        if key not in self.records:
            self.records[key] = self.views[view_name].citation_for(
                self.engine.database, values
            )
        return self.records[key]

    def parameters(self, citation_view, terms, binding):
        values = {}
        for name, position in citation_view.view.parameter_positions().items():
            term = terms[position]
            if isinstance(term, Constant):
                values[name] = term.value
            elif term not in binding:
                raise CitationError(f"binding does not determine parameter {name!r}")
            else:
                values[name] = binding[term]
        return values

    def citation_for_binding(self, rewriting, binding):
        atoms = []
        for view_atom in rewriting.query.body:
            citation_view = self.views[view_atom.predicate]
            values = self.parameters(citation_view, view_atom.terms, binding)
            record = self.record(view_atom.predicate, values)
            atoms.append(CitationAtom(view_atom.predicate, values, record))
        return joint(atoms)

    def row_expression(self, alternatives):
        """``+R`` over the rewritings of the ``+`` over each one's bindings."""
        return rewrite_alternative([
            alternative([
                self.citation_for_binding(rewriting, binding)
                for binding in sorted(
                    bindings, key=lambda b: sorted((v.name, repr(b[v])) for v in b)
                )
            ])
            for rewriting, bindings in alternatives
        ])

    def cite(self, plan, policy):
        evaluator = QueryEvaluator(
            self.engine.database, extra_relations=self.engine.view_relations()
        )
        per_rewriting = [
            (rewriting, evaluator.evaluate_with_bindings(rewriting.query))
            for rewriting in plan.rewritings
        ]
        rows: set = set()
        for _, bindings_by_row in per_rewriting:
            rows.update(bindings_by_row)
        cited = []
        for row in sorted(rows, key=repr):
            expression = self.row_expression(
                [(r, by_row[row]) for r, by_row in per_rewriting if by_row.get(row)]
            )
            cited.append((row, expression, policy.evaluate(expression)))
        aggregate = policy.aggregate([records for _, _, records in cited])
        return cited, Aggregate([expression for _, expression, _ in cited]), aggregate


def dump(cited, aggregate_expression, aggregate_records) -> list[str]:
    """The canonical text of a cited result, one line per row."""
    lines = [
        f"{row!r} | {expression} | {sorted(repr(r) for r in records)}"
        for row, expression, records in cited
    ]
    lines.append(f"{aggregate_expression} | {sorted(repr(r) for r in aggregate_records)}")
    return lines


def recording(policy: CitationPolicy, log: list) -> CitationPolicy:
    """*policy* with every combinator logging its slot and operands first."""

    def wrap(slot):
        combinator = getattr(policy, slot)

        def record(operands):
            log.append((slot, type(operands), list(operands)))
            return combinator(operands)

        return record

    return dataclasses.replace(policy, **{slot: wrap(slot) for slot in SLOTS})


def variant(query: ConjunctiveQuery, kind: str) -> ConjunctiveQuery:
    """*query* alpha-renamed (reversing the variables' name order) and/or with
    its body atoms reversed."""
    if "renamed" in kind:
        ordered = sorted(query.variables(), key=lambda v: v.name)
        query = query.substitute(
            {v: Variable(f"R{len(ordered) - i}_{v.name}") for i, v in enumerate(ordered)}
        )
    if "reordered" in kind:
        query = ConjunctiveQuery(
            query.head, tuple(reversed(query.body)), query.equalities, query.parameters
        )
    return query


def check(engine: CitationEngine, query, mode: str, policy: CitationPolicy) -> None:
    """Engine and reference agree byte for byte and call by call, cold and warm."""
    plan = engine.compile_plan(query, mode)
    reference_log: list = []
    expected = dump(*ReferenceAssembly(engine).cite(plan, recording(policy, reference_log)))
    for _cache_state in ("cold", "warm"):
        log: list = []
        result = engine.execute_plan(plan, policy=recording(policy, log))
        cited = [(tc.row, tc.expression, tc.records) for tc in result.tuple_citations]
        assert dump(cited, result.citation.expression, result.citation.records) == expected
        assert log == reference_log


def shuffle_descriptions(database, seed: int):
    """Permute the families' descriptions, so that ordering bindings by
    ``Desc`` and by ``FID`` disagree (generated descriptions follow the id)."""
    family = database.relation("Family")  # direct: Committee rows reference it
    rows = sorted(family.rows)
    descriptions = [row[2] for row in rows]
    random.Random(seed).shuffle(descriptions)
    for row, description in zip(rows, descriptions):
        family.delete(row)
        family.insert((row[0], row[1], description))
    return database


instances = st.builds(
    shuffle_descriptions,
    st.builds(
        gtopdb.generate,
        families=st.integers(6, 14),
        committee_per_family=st.integers(1, 3),
        intro_fraction=st.sampled_from([0.5, 1.0]),
        targets_per_family=st.integers(1, 2),
        ligands=st.integers(3, 12),
        interactions_per_target=st.integers(1, 2),
        duplicate_name_fraction=st.sampled_from([0.3, 0.7]),
        seed=st.integers(0, 2**16),
    ),
    st.integers(0, 2**16),
)
policies = st.builds(
    CitationPolicy.from_names,
    st.sampled_from(COMBINATORS),
    st.sampled_from(COMBINATORS),
    st.sampled_from(COMBINATORS),
    st.sampled_from(AGGREGATES),
)


class TestAssemblyEquivalence:
    @given(
        instances,
        st.sampled_from(QUERIES),
        st.sampled_from(VARIANTS),
        st.sampled_from(["formal", "economical"]),
        policies,
    )
    @settings(max_examples=60, deadline=None)
    def test_compiled_assembly_matches_reference(self, database, query, kind, mode, policy):
        engine = CitationEngine(database, gtopdb.citation_views(extended=True))
        check(engine, variant(query, kind), mode, policy)

    @given(
        instances,
        st.sampled_from(UNFOLDING_QUERIES),
        st.sampled_from(VARIANTS),
        st.sampled_from(["formal", "economical"]),
        policies,
    )
    @settings(max_examples=60, deadline=None)
    def test_unfolded_views_match_the_reference(self, database, query, kind, mode, policy):
        engine = CitationEngine(database, unfolding_views())
        check(engine, variant(query, kind), mode, policy)

    @given(instances, st.sampled_from(["formal", "economical"]), policies)
    @settings(max_examples=20, deadline=None)
    def test_parameter_resolves_through_a_merged_head_variable(self, database, mode, policy):
        # VR's head repeats LID, so the expansion of VR(tid, l, m) merges l
        # into m: VR's λ-parameter, at l's position, is read from m's slot.
        views = unfolding_views()
        rewriting = Rewriting(
            parse_query("Qr(tid, l) :- VR(tid, l, m)"), [cv.view for cv in views]
        )
        assert rewriting.resolve(Variable("l")) == Variable("m")
        engine = CitationEngine(database, views, rewriter=FixedRewriter(rewriting))
        check(engine, parse_query("Qr(tid, l) :- Interaction(tid, l, a, f)"), mode, policy)

    @pytest.mark.parametrize("slot", SLOTS)
    @pytest.mark.parametrize("name", COMBINATORS)
    def test_every_combinator_in_every_slot(self, slot, name):
        policy = CitationPolicy.from_names(**{slot: name})
        engine = CitationEngine(gtopdb.paper_instance(), gtopdb.citation_views(extended=True))
        for query in QUERIES[:4]:
            for mode in ("formal", "economical"):
                check(engine, query, mode, policy)

    @given(instances, st.sampled_from(QUERIES), policies, st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_cite_row_drops_repeated_rewritings(self, database, query, policy, rng):
        # A repeated rewriting gives an equal +R operand, which the fold must
        # drop before folding, as rewrite_alternative drops it.
        engine = CitationEngine(database, gtopdb.citation_views(extended=True), policy=policy)
        reference = ReferenceAssembly(engine)
        evaluator = QueryEvaluator(database, extra_relations=engine.view_relations())
        rewritings = list(engine.compile_plan(query).rewritings) * 2
        rng.shuffle(rewritings)
        per_rewriting = [(r, evaluator.evaluate_with_bindings(r.query)) for r in rewritings]
        rows = {row for _, bindings_by_row in per_rewriting for row in bindings_by_row}
        for row in sorted(rows, key=repr)[:5]:
            alternatives = [(r, b[row]) for r, b in per_rewriting if row in b]
            expected = reference.row_expression(alternatives)
            cited = engine.cite_row(row, alternatives)
            assert str(cited.expression) == str(expected)
            assert cited.records == policy.evaluate(expected)


records = st.builds(
    CitationRecord,
    st.dictionaries(
        st.sampled_from(["title", "view", "year"]), st.sampled_from(["a", "b", 1]), min_size=1
    ),
)


@given(st.lists(st.frozensets(records, max_size=3), max_size=5))
def test_size_pickers_choose_as_the_full_key_does(operands):
    # min_size / max_coverage render the repr tie-break only for candidates
    # tied on size; the pick must equal the one keyed on (size, reprs).
    def key(records):
        return (set_size(records), sorted(repr(r) for r in records))

    if not operands:
        assert Combinators.min_size(operands) == Combinators.max_coverage(operands) == frozenset()
        return
    candidates = [operand for operand in operands if operand] or operands
    assert Combinators.min_size(operands) is min(candidates, key=key)
    assert Combinators.max_coverage(operands) is max(operands, key=key)
