"""BENCHMARK.json agrees with the benchmark's own tables."""

import json
from pathlib import Path

from perfbench import layers, run

CONFIG = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_the_layer_table():
    assert CONFIG["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, *_ in layers.LAYER_METRICS
    ]


def test_every_layer_metric_states_what_it_wraps_and_should_move():
    for name, _unit, _better, around, moves in layers.LAYER_METRICS:
        assert around and moves, name


def test_workloads_match_the_runner():
    assert [w["name"] for w in CONFIG["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONFIG["workloads"])


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
