"""Pinned per-step join counters (``JoinProfile``) on the paper instance.

One query, three runs: the plain program, and the reduced program behind a
cold and then a warm prelude cache.  Each counter below was checked by hand against the paper instance:

* ``Family`` holds (11, Calcitonin, C1), (12, Calcitonin, C2),
  (13, Adenosine, A1); ``FamilyIntro`` holds (11, 1st), (12, 2nd),
  (13, ...); ``Committee`` holds two rows for family 11 and one each for
  12 and 13.
* The compiled order is Family (its constant first, ties broken by body
  position), FamilyIntro (FID and its constant bound), Committee.
* The plain program scans both Calcitonin families; family 12 dies at the
  FamilyIntro probe, and family 11 joins its two committee members.
* The reduction prelude prunes family 12 before the join (only intro
  "1st" survives the constant, and the semi-joins carry FID 11 to every
  step), so the reduced join scans one Family row.

A step's ``frames_out`` is the number of entries into the next depth, and
``results`` the number of entries past the last one.
"""


import pytest

from repro.observability import RingBufferSink, Tracer, use_tracer
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.workloads import gtopdb

QUERY = (
    'Q(D, P) :- Family(FID, "Calcitonin", D), Committee(FID, P), '
    'FamilyIntro(FID, "1st")'
)

ORDER = ["Family", "FamilyIntro", "Committee"]
RELATION_ROWS = [3, 3, 4]

PLAIN = {
    "rows_in": [3, 3, 4],
    "rows_scanned": [2, 1, 2],
    "frames_out": [2, 1, 2],
    "results": 2,
}
REDUCED = {
    "rows_in": [1, 1, 2],
    "rows_scanned": [1, 1, 2],
    "frames_out": [1, 1, 2],
    "results": 2,
}


def _traced(evaluate):
    """Run *evaluate* under a fresh tracer; return its ``query.evaluate`` span."""
    sink = RingBufferSink()
    with use_tracer(Tracer(sinks=[sink])):
        evaluate()
    span = sink.last()
    assert span is not None and span.name == "query.evaluate"
    return span


def _counters(span):
    steps = span.find_all("join.step")
    assert [step.attributes["predicate"] for step in steps] == ORDER
    assert [step.attributes["relation_rows"] for step in steps] == RELATION_ROWS
    return {
        "rows_in": [step.attributes["rows_in"] for step in steps],
        "rows_scanned": [step.attributes["rows_scanned"] for step in steps],
        "frames_out": [step.attributes["frames_out"] for step in steps],
        "results": span.attributes["results"],
    }


@pytest.fixture
def query():
    return parse_query(QUERY)


@pytest.fixture
def db():
    return gtopdb.paper_instance()


class TestPinnedJoinProfile:
    def test_plain_program(self, db, query):
        evaluator = QueryEvaluator(db, strategy="program")
        span = _traced(lambda: evaluator.evaluate_with_bindings(query))
        assert span.attributes["executor"] == "program"
        assert "prelude" not in span.attributes
        assert _counters(span) == PLAIN

    def test_reduced_with_a_cold_then_a_warm_prelude(self, db, query):
        evaluator = QueryEvaluator(db, strategy="reduced")
        prelude = evaluator.prelude_for(query, evaluator.reduce(query))
        for outcome in ("miss", "hit"):
            span = _traced(
                lambda: evaluator.evaluate_with_bindings(query, prelude=prelude)
            )
            assert span.attributes["executor"] == "reduced"
            assert span.attributes["prelude"] == outcome
            assert _counters(span) == REDUCED, outcome
