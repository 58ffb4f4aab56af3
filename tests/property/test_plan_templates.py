"""Property: a formal plan compiled for one set of constants serves every
point query of its shape.

The service keys formal plans by the query's shape: its minimized core with
each liftable constant lifted to a typed hole, equal constants sharing one.
A plan-cache hit on a plan compiled for other constants hands out an
instantiation of it (the request's constants substituted into the
rewritings, the programs built anew).  Each example serves, through one
:class:`CitationService`, a drawn point-query shape over the GtoPdb schema
(one to three atoms, constants in key columns, non-key columns and the head,
int and str constants) under two constant assignments of one drawn equality
pattern, then under the other pattern, then an alpha-renamed and reordered
variant (automorphic when the body is the ``Target`` self-join).  The views
are the paper's extended views plus ``VK``, whose body holds the constant
``FID = 3``, which the draws use often.  The contract:

* a request whose text is another's with other constants dumps
  byte-identical to a fresh engine's ``cite``;
* a variant gets the fresh engine's rows and per-row citation records (its
  expressions may order ``Joint`` operands differently);
* formal mode runs the rewriting search once per lifted key, economical mode
  once per value key;
* every plan handed out passes the strict IR verifier (the test suite
  compiles with ``verify_plans="strict"``, instantiations included).
"""

from __future__ import annotations

import json
from functools import cache

from hypothesis import assume, event, given, settings, strategies as st

from repro import CitationEngine, CitationRequest, CitationService
from repro.core.citation_view import CitationView
from repro.errors import NoRewritingError
from repro.workloads import gtopdb

#: Connected bodies, as (relation, variables) atoms.
BODIES = [
    [("Family", "F FN FD")],
    [("Target", "T F TN TT")],
    [("Ligand", "L LN LT")],
    [("Interaction", "T L IA IF")],
    [("Family", "F FN FD"), ("FamilyIntro", "F FT")],
    [("Target", "T F TN TT"), ("Family", "F FN FD")],
    [("Target", "T F TN TT"), ("Interaction", "T L IA IF")],
    [("Interaction", "T L IA IF"), ("Ligand", "L LN LT")],
    [("Target", "T F TN TT"), ("Family", "F FN FD"), ("FamilyIntro", "F FT")],
    [("Target", "T F TN TT"), ("Interaction", "T L IA IF"), ("Ligand", "L LN LT")],
    [("Target", "T F TN TT"), ("Target", "U F UN UT")],
]
#: The constant in VK's body: a query constant equal to it keeps its value.
VIEW_CONSTANT = 3


@cache
def database():
    return gtopdb.generate(families=12, targets_per_family=2, ligands=15, seed=7)


@cache
def views() -> list[CitationView]:
    return gtopdb.citation_views(extended=True) + [
        CitationView(
            "lambda TID. VK(TID, TName) :- Target(TID, 3, TName, Type)",
            citation_queries=["lambda TID. CVK(TID, PName) :- Contributor(TID, PName)"],
        )
    ]


@cache
def domains() -> dict[str, list]:
    """Per variable, the values its first column holds (floats excluded)."""
    found: dict[str, list] = {}
    for body in BODIES:
        for relation, names in body:
            rows = database().relation(relation).rows
            for position, name in enumerate(names.split()):
                values = sorted({row[position] for row in rows}, key=repr)
                if name not in found and not isinstance(values[0], float):
                    found[name] = values
    return found


def literal(value: object) -> str:
    return json.dumps(value) if isinstance(value, str) else repr(value)


def query_text(body, head, values, rename="", order=None) -> str:
    """The query over *body* with *values* (variable → constant) inlined,
    ``"#"`` in *head* standing for the head constant."""

    def term(name: str) -> str:
        return literal(values[name]) if name in values else name + rename

    atoms = [f"{relation}({', '.join(map(term, names.split()))})" for relation, names in body]
    if order is not None:
        atoms = [atoms[i] for i in order]
    return f"Q({', '.join(term(name) for name in head)}) :- {', '.join(atoms)}"


@st.composite
def shapes(draw):
    """A body, its constant slots, their equality pattern and head."""
    body = draw(st.sampled_from(BODIES))
    names = list(dict.fromkeys(n for _, names in body for n in names.split()))
    slots = draw(st.lists(st.sampled_from([n for n in names if n in domains()]),
                          min_size=1, max_size=2, unique=True))
    same_type = len(slots) == 2 and type(domains()[slots[0]][0]) is type(domains()[slots[1]][0])
    equal = same_type and draw(st.booleans())
    rest = [n for n in names if n not in slots]
    head = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        head.insert(draw(st.integers(0, len(head))), "#")
    return body, slots, equal, head


def assignment(draw, slots, equal, head) -> dict:
    """Values for the slots under the pattern (and for the head constant)."""
    values = {}
    for slot in slots:
        domain = domains()[slot]
        if isinstance(domain[0], int) and VIEW_CONSTANT in domain and draw(st.booleans()):
            values[slot] = VIEW_CONSTANT
        else:
            values[slot] = draw(st.sampled_from(domain))
    if len(slots) == 2:
        if equal:
            values[slots[1]] = values[slots[0]]
        else:
            assume(values[slots[0]] != values[slots[1]])
    if "#" in head:
        values["#"] = draw(st.sampled_from(["tag", "other tag", slots[0]]))
        if values["#"] == slots[0]:
            values["#"] = values[slots[0]]
    return values


def signature(slots, values) -> tuple:
    """What a value key keeps of an assignment beyond its shape: the view
    constant by value, every other constant as its equality class."""
    classes: dict = {}
    return tuple(
        values[s] if values[s] == VIEW_CONSTANT else classes.setdefault(values[s], len(classes))
        for s in (*slots, "#") if s in values
    )


def dump(result) -> list[str]:
    lines = [
        f"{tc.row!r} | {tc.expression} | {sorted(repr(r) for r in tc.records)}"
        for tc in result.tuple_citations
    ]
    citation = result.citation
    lines.append(f"{citation.expression} | {sorted(repr(r) for r in citation.records)}")
    return lines


def records(result) -> dict:
    return {tc.row: tc.records for tc in result.tuple_citations}


def fresh(text: str, mode: str = "formal"):
    """A fresh engine's ``cite`` of *text*, or the name of the error it raises."""
    try:
        return CitationEngine(database(), views()).cite(text, mode)
    except NoRewritingError as error:
        return type(error).__name__


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_templates_cite_like_a_fresh_compile(data):
    body, slots, equal, head = data.draw(shapes())
    first = assignment(data.draw, slots, equal, head)
    second = assignment(data.draw, slots, equal, head)
    assume(sorted(map(repr, first.values())) != sorted(map(repr, second.values())))
    engine = CitationEngine(database(), views())
    searches = []
    rewrite = engine.rewriter.rewrite
    engine.rewriter.rewrite = lambda query, *args: searches.append(query) or rewrite(query, *args)
    # Searches expected: one per key compiled, one per request that fails
    # (nothing is cached for it).
    keys: set = set()
    failures = 0
    with CitationService(engine, startup_lint=False) as service:

        def serve(values, mode="formal", **variant):
            """Serve the query under *values*; return its result and the
            fresh engine's, or ``None`` when both raise the same error."""
            nonlocal failures
            text = query_text(body, head, values, **variant)
            request = CitationRequest(query=text, mode=mode, metadata={"no_result_cache": True})
            response = service.submit(request)
            reference = fresh(text, mode)
            if isinstance(reference, str):
                assert type(response.error).__name__ == reference
                failures += 1
                return None
            assert response.ok, response.error
            plan, hit = service.plan_for(text, mode)
            assert hit and not engine.verify_plan(plan).has_errors
            assert plan.constants == engine.shape(text).constants
            return response.result, reference

        # Two assignments of one pattern, then one of the other pattern.
        flipped = None
        if len(slots) == 2 and type(first[slots[0]]) is type(first[slots[1]]):
            flipped = assignment(data.draw, slots, not equal, head)
        for values in (first, second, flipped):
            if values is not None and (served := serve(values)) is not None:
                assert dump(served[0]) == dump(served[1])
                keys.add(signature(slots, values))
        # A renamed, reordered variant (automorphic for the self-join).
        order = data.draw(st.permutations(range(len(body))))
        if (served := serve(second, rename="_v", order=order)) is not None:
            assert served[0].rows() == served[1].rows()
            assert records(served[0]) == records(served[1])
            keys.add(signature(slots, second))
        assert len(searches) == len(keys) + failures
        counters = service.stats()["counters"]
        event(f"formal instantiations: {counters['plan_instantiations']}")
        event(f"view constant drawn: {VIEW_CONSTANT in [*first.values(), *second.values()]}")
        # Economical plans read the data: keyed by value.
        del searches[:]
        for values in (first, second):
            if (served := serve(values, mode="economical")) is not None:
                assert dump(served[0]) == dump(served[1])
        assert len(searches) == 2
