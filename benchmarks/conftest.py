"""Shared fixtures and reporting helpers for the benchmark suite.

Each ``bench_eN_*.py`` file regenerates one experiment from DESIGN.md's
experiment index.  The paper (a vision paper) publishes no numeric tables, so
the benchmarks measure the quantities its arguments rely on — citation sizes,
rewriting-search effort, incremental-maintenance speed-ups — and print the
rows that EXPERIMENTS.md records.  Assertions check the qualitative *shape*
(who wins, how things scale), never absolute timings.

Besides the human-readable tables (:func:`report`), experiments can record
**machine-readable** results with :func:`record_json`: at session end every
recorded experiment is written to ``BENCH_<id>.json`` (in
``$REPRO_BENCH_JSON_DIR`` or the working directory).  CI uploads these files
as artifacts, so the perf trajectory — cold/warm timings, speed-ups,
strategy picks — is tracked across PRs instead of scrolling away in logs.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from collections.abc import Callable, Iterator, Mapping

import pytest

from repro import CitationEngine, CitationPolicy
from repro.workloads import gtopdb

#: Experiments this process has already (re)started a JSON file for, so a
#: session's first record truncates any stale file from an earlier run while
#: later records within the session append.
_WRITTEN_EXPERIMENTS: set[str] = set()


def report(title: str, rows: list[dict]) -> None:
    """Print an experiment table (captured by pytest -s and the bench logs)."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0])
    print(" | ".join(f"{c:>24}" for c in columns))
    for row in rows:
        print(" | ".join(f"{str(row[c]):>24}" for c in columns))


def record_json(experiment: str, rows: list[dict], **extra) -> None:
    """Write machine-readable rows through to ``BENCH_<experiment>.json``.

    *rows* are JSON-friendly dicts (op, cold/warm timings, speedups, picks,
    ...); *extra* key/values land at the payload's top level (e.g. gate
    thresholds).  Repeated calls for one experiment within a session append
    rows; the file lands in ``$REPRO_BENCH_JSON_DIR`` (default: the working
    directory) and is written immediately, so results survive even when a
    later gate in the same run fails.
    """
    out_dir = os.environ.get("REPRO_BENCH_JSON_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{experiment}.json")
    payload: dict | None = None
    if experiment in _WRITTEN_EXPERIMENTS and os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = None
    if payload is None:
        payload = {
            "experiment": experiment,
            "rows": [],
            "smoke": os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0"),
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
    payload["rows"].extend(rows)
    payload.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _WRITTEN_EXPERIMENTS.add(experiment)
    print(f"[bench] recorded {len(rows)} row(s) -> {path}", file=sys.stderr)


_DONE = object()


def paired_rounds(
    passes: Mapping[str, Callable[[], Iterator[None]]],
    rounds: int,
    numerator: str,
    denominator: str,
) -> tuple[dict[str, float], list[float]]:
    """Each side's best pass time and the rounds' *numerator*/*denominator*
    ratios of pass time.  ``passes[side]()`` starts a pass that yields after
    each step.

    Machine noise on shared runners comes in bursts of a few to tens of
    milliseconds, longer than one request, and two back-to-back passes can
    disagree by 30% with identical code.  So a round runs the sides' passes
    step by step, alternating which side takes each step first, and a burst
    lands on both.  Gates read the median of the rounds' ratios, which
    ignores the rounds a burst still skewed.
    """
    best = dict.fromkeys(passes, float("inf"))
    ratios = []
    for _ in range(rounds):
        running_passes = {side: start() for side, start in passes.items()}
        spent = dict.fromkeys(passes, 0.0)
        order = list(passes)
        running = True
        while running:
            for side in order:
                started = time.perf_counter()
                running = next(running_passes[side], _DONE) is not _DONE
                spent[side] += time.perf_counter() - started
            order.reverse()
        for side in passes:
            best[side] = min(best[side], spent[side])
        ratios.append(spent[numerator] / spent[denominator])
    return best, ratios


@pytest.fixture(scope="session")
def paper_db():
    return gtopdb.paper_instance()


@pytest.fixture(scope="session")
def paper_views():
    return gtopdb.citation_views()


@pytest.fixture(scope="session")
def medium_gtopdb():
    """A medium synthetic GtoPdb instance shared across benchmarks."""
    return gtopdb.generate(families=300, targets_per_family=3, ligands=300, seed=17)


@pytest.fixture(scope="session")
def paper_query():
    return gtopdb.paper_query()


@pytest.fixture
def default_engine(medium_gtopdb, paper_views):
    return CitationEngine(medium_gtopdb, paper_views, policy=CitationPolicy.default())


@pytest.fixture
def union_engine(medium_gtopdb, paper_views):
    return CitationEngine(
        medium_gtopdb, paper_views, policy=CitationPolicy.union_everywhere()
    )
