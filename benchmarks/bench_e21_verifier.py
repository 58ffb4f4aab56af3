"""E21: IR-verifier overhead on a dangling four-relation chain.

The ``verify_plans`` knob must be cheap enough to leave on outside tests:
verification runs once per plan compile (never on the warm per-request
path), over the programs ``compile_plan`` builds for every plan anyway.  This experiment measures
the knob both where it is most visible (compile-heavy traffic: every
request compiles a fresh plan) and where production traffic actually lives
(serving-shaped: one compile, many executions), and gates the
serving-shaped overhead at **≤ 5%**.

Results land in ``BENCH_e21.json`` (uploaded by CI) next to the timing
table on stdout.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterator
from functools import partial

import os

from repro import CitationEngine
from repro.core.spec import default_views_for_schema

from benchmarks.conftest import (
    CHAIN_QUERY as QUERY,
    CHAIN_SCHEMA as SCHEMA,
    dangling_chain,
    paired_rounds,
    record_json,
    report,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Hard gate: verify_plans="warn" may cost at most 5% on serving-shaped
#: traffic (compile once, execute many — the production profile).
OVERHEAD_GATE = 1.05

SERVE_REQUESTS = 60 if SMOKE else 150
COMPILE_REPEATS = 10 if SMOKE else 25
#: Paired off/warn rounds per shape; the gate reads their median ratio.
RATIO_ROUNDS = (3 if SMOKE else 5) + 12


def _engine(database, verify: str) -> CitationEngine:
    return CitationEngine(
        database,
        default_views_for_schema(SCHEMA),
        verify_plans=verify,
    )


def _serving_pass(engine: CitationEngine) -> Iterator[None]:
    """One compile, then warm executions — the production profile.  Yields
    after each request, so two engines' passes can be interleaved."""
    plan = engine.compile_plan(QUERY)
    yield
    for _ in range(SERVE_REQUESTS):
        engine.execute_plan(plan)
        yield


def _compile_pass(engine: CitationEngine) -> Iterator[None]:
    """Compile-heavy traffic: every iteration compiles a fresh plan.

    The analysis cache is cleared between compiles so each one pays the
    full rewriting search *and* (under warn) the verification — the
    worst case the knob can exhibit.
    """
    for _ in range(COMPILE_REPEATS):
        engine.invalidate_caches()
        engine.compile_plan(QUERY)
        yield


def test_e21_verifier_overhead_is_bounded():
    database = dangling_chain(600 if SMOKE else 1500, seed=31)

    rows = []
    ratios: dict[str, float] = {}
    for shape, workload in (("serving", _serving_pass), ("compile", _compile_pass)):
        engines = {verify: _engine(database, verify) for verify in ("off", "warn")}
        for engine in engines.values():
            for _ in workload(engine):  # warm-up: indexes, statistics, view caches
                pass
        best, round_ratios = paired_rounds(
            {verify: partial(workload, engine) for verify, engine in engines.items()},
            RATIO_ROUNDS, "warn", "off",
        )
        ratios[shape] = statistics.median(round_ratios)
        for verify, engine in engines.items():
            stats = engine.analysis_stats()
            rows.append(
                {
                    "op": f"{shape}_verify_{verify}",
                    "best_s": round(best[verify], 6),
                    "plans_verified": stats["plans_verified"],
                    "verify_violations": stats["verify_violations"],
                }
            )

    serving_ratio = ratios["serving"]
    compile_ratio = ratios["compile"]
    ratio_row = {
        "op": "overhead_ratio",
        "serving_warn_over_off": round(serving_ratio, 4),
        "compile_warn_over_off": round(compile_ratio, 4),
        "gate": OVERHEAD_GATE,
    }
    report("E21: verify_plans=warn overhead vs off", rows)
    report("E21: median per-round overhead ratios (gate applies to serving)", [ratio_row])
    rows.append(ratio_row)
    record_json(
        "e21",
        rows,
        overhead_gate=OVERHEAD_GATE,
        serve_requests=SERVE_REQUESTS,
        compile_repeats=COMPILE_REPEATS,
        ratio_rounds=RATIO_ROUNDS,
    )

    # Sanity: warn actually verified plans, and found the compiler clean.
    assert any(row.get("plans_verified", 0) > 0 for row in rows)
    assert all(row.get("verify_violations", 0) == 0 for row in rows)
    # The gate: production-shaped traffic pays at most 5%.
    assert serving_ratio <= OVERHEAD_GATE, (
        f"verify_plans='warn' costs {serving_ratio:.3f}x on serving traffic "
        f"(gate {OVERHEAD_GATE}x)"
    )
