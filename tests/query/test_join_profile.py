"""Pinned per-step join counters (``JoinProfile``) on the paper instance.

One query, one run of its compiled program.  Each counter below was checked
by hand against the paper instance:

* ``Family`` holds (11, Calcitonin, C1), (12, Calcitonin, C2),
  (13, Adenosine, A1); ``FamilyIntro`` holds (11, 1st), (12, 2nd),
  (13, ...); ``Committee`` holds two rows for family 11 and one each for
  12 and 13.
* The compiled order is Family (its constant first, ties broken by body
  position), FamilyIntro (FID and its constant bound), Committee.
* The program scans both Calcitonin families; family 12 dies at the
  FamilyIntro probe, and family 11 joins its two committee members.

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
    "rows_scanned": [2, 1, 2],
    "frames_out": [2, 1, 2],
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
        evaluator = QueryEvaluator(db)
        span = _traced(lambda: evaluator.evaluate_with_bindings(query))
        assert span.attributes["query"] == "Q"
        assert _counters(span) == PLAIN
