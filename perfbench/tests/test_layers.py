"""Self-time arithmetic of the layer tracer, on synthetic and real frames."""

import pytest

from perfbench import layers


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(layers.time, "perf_counter", fake)
    return fake


def test_self_time_is_span_minus_child_spans(clock):
    tracer = layers.LayerTracer(engine=None)

    def leaf():
        clock.advance(2.0)

    traced_leaf = tracer._wrap(leaf, "leaf", ["span"])

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(0.5)
        traced_leaf()
        clock.advance(3.0)

    traced_middle = tracer._wrap(middle, "middle", ["span"])

    def submit():
        clock.advance(0.25)
        traced_middle()

    tracer.op("read", 1, tracer._wrap(submit, "submit", ["span"]))
    assert tracer.calls("leaf") == 2
    assert (tracer.total("leaf"), tracer.self_time("leaf")) == (4.0, 4.0)
    assert (tracer.total("middle"), tracer.self_time("middle")) == (8.5, 4.5)
    assert (tracer.total("submit"), tracer.self_time("submit")) == (8.75, 0.25)
    assert (tracer.total("bench.read"), tracer.self_time("bench.read")) == (8.75, 0.0)
    by_id = {span[1]: span for span in tracer.spans}
    for span in tracer.spans:
        if span[2]:
            parent = by_id[span[2]]
            assert parent[4] <= span[4] and span[4] + span[5] <= parent[4] + parent[5]
    assert sum(tracer.self_time(name) for name in tracer.totals) == 8.75


def test_recursive_layer_counts_only_its_outermost_frame(clock):
    tracer = layers.LayerTracer(engine=None)

    def evaluate(depth):
        clock.advance(1.0)
        if depth:
            traced(depth - 1)
            traced(depth - 1)

    traced = tracer._wrap(evaluate, "core.policy", ["hot", "outer"])
    tracer.op("read", 1, traced, 3)
    assert tracer.calls("core.policy") == 1
    assert tracer.total("core.policy") == 15.0
    assert tracer.spans == [(1, 1, 0, "bench.read", 0.0, 15.0, 0.0)]


def test_opaque_layer_hides_inner_calls_and_new_rule_skips_cached_returns(clock):
    tracer = layers.LayerTracer(engine=None)
    cached = {}

    def inner():
        clock.advance(1.0)

    traced_inner = tracer._wrap(inner, "inner", ["span"])

    def materialize(fresh):
        clock.advance(2.0)
        traced_inner()
        return {} if fresh else cached

    traced = tracer._wrap(materialize, "materialize", ["span", "opaque", "new"])
    tracer._last_new["materialize"] = cached
    tracer.op("read", 1, traced, False)
    tracer.op("read", 2, traced, True)
    assert tracer.calls("inner") == 0
    assert tracer.calls("materialize") == 1
    assert tracer.total("materialize") == 3.0
    # The cached call's 3 s stay with the op that made it.
    assert tracer.self_time("bench.read") == 3.0


def test_real_policy_evaluate_counts_one_frame_per_tuple_plus_aggregate():
    from repro import CitationEngine
    from repro.workloads import gtopdb

    engine = CitationEngine(gtopdb.paper_instance(), gtopdb.citation_views())
    plan = engine.compile_plan(gtopdb.paper_query())
    engine.execute_plan(plan)
    policy = engine.policy
    tracer = layers.LayerTracer(engine)
    tracer.install()
    try:
        result = tracer.op("read", 1, engine.execute_plan, plan)
    finally:
        tracer.uninstall()
    assert len(result) == 2
    assert tracer.calls("core.policy") == len(result) + 1
    assert tracer.calls("core.assembly") == 1
    assert tracer.calls("query.join") == len(plan.rewritings)
    assert tracer.calls("rewriting.materialize") == 0
    assert tracer.calls("core.record") > 0
    assert abs(sum(tracer.self_time(n) for n in tracer.totals)
               - tracer.total("bench.read")) < 1e-9
    assert engine.policy is policy
    assert not hasattr(type(policy).evaluate, "__wrapped__")
    assert not hasattr(type(engine).citation_record, "__wrapped__")
