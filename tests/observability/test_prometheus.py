"""Histogram snapshots and Prometheus text exposition validity."""

import json
import re

import pytest

from repro.observability.prometheus import (
    PrometheusRenderer,
    escape_label_value,
    flatten_numeric,
    sanitize_name,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics

#: One exposition line: comment, blank, or ``name{labels} value``.
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$"
)


def _assert_valid_exposition(text: str) -> list[str]:
    """Every line must be a comment or a well-formed sample; returns samples."""
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _SAMPLE.match(line), f"malformed exposition line: {line!r}"
        samples.append(line)
    return samples


class TestLatencyHistogramSnapshot:
    def test_buckets_are_cumulative_and_monotone(self):
        histogram = LatencyHistogram(bounds_ms=(1.0, 10.0, 100.0))
        for seconds in (0.0005, 0.005, 0.005, 0.05, 5.0):
            histogram.observe(seconds)
        buckets = histogram.cumulative_buckets()
        assert buckets == [(1.0, 1), (10.0, 3), (100.0, 4)]
        counts = [count for _bound, count in buckets]
        assert counts == sorted(counts)
        assert histogram.count == 5  # +Inf bucket, emitted by the renderer

    def test_snapshot_includes_buckets_and_total(self):
        histogram = LatencyHistogram(bounds_ms=(1.0, 10.0))
        histogram.observe(0.0005)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == [
            {"le_ms": 1.0, "count": 1},
            {"le_ms": 10.0, "count": 1},
            {"le_ms": "+Inf", "count": 1},
        ]
        assert snapshot["total_ms"] == pytest.approx(0.5)

    def test_empty_histogram_serializes_without_infinity(self):
        snapshot = LatencyHistogram().snapshot()
        text = json.dumps(snapshot)
        assert "Infinity" not in text
        assert snapshot["min_ms"] == 0.0
        json.loads(text)  # round-trips as strict JSON

    def test_observed_min_ms_tracks_real_minimum(self):
        histogram = LatencyHistogram()
        assert histogram.observed_min_ms() == 0.0
        histogram.observe(0.002)
        histogram.observe(0.001)
        assert histogram.observed_min_ms() == pytest.approx(1.0)


class TestRenderer:
    def test_counter_gauge_histogram_shapes(self):
        renderer = PrometheusRenderer()
        renderer.counter("x_total", 3, help_text="Three.")
        renderer.gauge("g", 0.5)
        renderer.histogram(
            "h_seconds", [(0.1, 1), (1.0, 2)], total=0.7, count=3,
            labels={"phase": "request"},
        )
        text = renderer.render()
        samples = _assert_valid_exposition(text)
        assert "# TYPE x_total counter" in text
        assert "# HELP x_total Three." in text
        assert "x_total 3" in samples
        assert 'h_seconds_bucket{phase="request",le="+Inf"} 3' in samples
        assert 'h_seconds_sum{phase="request"} 0.7' in samples
        assert 'h_seconds_count{phase="request"} 3' in samples

    def test_family_header_emitted_once_for_many_label_sets(self):
        renderer = PrometheusRenderer()
        renderer.histogram("h", [(1.0, 1)], total=1.0, count=1, labels={"phase": "a"})
        renderer.histogram("h", [(1.0, 2)], total=2.0, count=2, labels={"phase": "b"})
        assert renderer.render().count("# TYPE h histogram") == 1

    def test_kind_conflict_raises(self):
        renderer = PrometheusRenderer()
        renderer.counter("m", 1)
        with pytest.raises(ValueError):
            renderer.gauge("m", 1)

    def test_name_sanitization_and_label_escaping(self):
        assert sanitize_name("a.b-c") == "a_b_c"
        assert sanitize_name("1x") == "_1x"
        assert escape_label_value('say "hi"\n') == 'say \\"hi\\"\\n'

    def test_flatten_numeric_keeps_numbers_drops_the_rest(self):
        flat = dict(
            flatten_numeric(
                "ns",
                {
                    "hits": 3,
                    "rate": 0.5,
                    "enabled": True,
                    "name": "ignored",
                    "items": [1, 2],
                    "nested": {"depth": 2},
                },
            )
        )
        assert flat == {
            "ns_hits": 3.0,
            "ns_rate": 0.5,
            "ns_enabled": 1.0,
            "ns_nested_depth": 2.0,
        }


class TestServiceMetricsExposition:
    def _metrics(self):
        metrics = ServiceMetrics()
        metrics.increment("requests", 4)
        metrics.increment("result_cache_hits")
        metrics.increment_backend("relational", "executions", 2)
        metrics.observe("request", 0.002)
        metrics.observe("request", 0.2)
        metrics.observe("execute", 0.001)
        metrics.register_gauge_source("evaluation", lambda: {"sharding": {"serial": 7}})
        return metrics

    def test_exposition_is_well_formed(self):
        text = self._metrics().to_prometheus()
        samples = _assert_valid_exposition(text)
        assert "repro_requests_total 4" in samples
        assert 'repro_backend_events_total{backend="relational",event="executions"} 2' in samples
        assert "repro_evaluation_sharding_serial 7" in samples

    def test_histograms_expose_bucket_sum_count_per_phase(self):
        text = self._metrics().to_prometheus()
        assert 'repro_latency_seconds_bucket{phase="request",le="+Inf"} 2' in text
        assert 'repro_latency_seconds_count{phase="request"} 2' in text
        assert 'repro_latency_seconds_count{phase="execute"} 1' in text
        # Bounds are converted from internal milliseconds to seconds.
        assert 'repro_latency_seconds_bucket{phase="execute",le="5e-05"} 0' in text
        assert text.count("# TYPE repro_latency_seconds histogram") == 1

    def test_inf_bucket_matches_count(self):
        text = self._metrics().to_prometheus()
        inf = re.findall(r'_bucket\{phase="request",le="\+Inf"\} (\d+)', text)
        count = re.findall(r'_count\{phase="request"\} (\d+)', text)
        assert inf == count == ["2"]

    def test_extra_payloads_become_gauges(self):
        metrics = ServiceMetrics()
        text = metrics.to_prometheus(extra={"plan_cache": {"hits": 5, "name": "x"}})
        assert "repro_plan_cache_hits 5" in text
        assert "repro_plan_cache_name" not in text
