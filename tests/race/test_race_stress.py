"""Race-stress harness: concurrent serving under live writes (``-m race``).

Two suites.  :class:`TestServiceUnderChurn` drives ``submit_batch`` from
many threads while a writer thread inserts and deletes rows — bumping the
database generation, so that cached results are brought forward through the
change log concurrently, mid-flight — and then audits the aftermath: no lost
requests (the metrics counters balance exactly), no cross-request plan
corruption (every plan in sight passes the IR verifier), stable answers (the
churned relation feeds none of the queries), and stable records (it feeds no
citation query either, so the engine's delta-scoped refreshes must keep
every record object).
:class:`TestEngineCacheRaces` is the regression suite for the
engine/evaluator cache locks: a tiny analysis-cache cap plus many distinct
query shapes force concurrent FIFO eviction, which without
``_analysis_lock`` raced destructively (``RuntimeError: dictionary changed
size during iteration``, lost stats updates).

CI runs this module as its own step (``pytest -m race``); the tier-1 run
deselects it.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.core.engine as engine_module
from repro import CitationEngine, CitationRequest, parse_query
from repro.service.service import CitationService
from repro.workloads import gtopdb

pytestmark = pytest.mark.race

THREADS = 8
BATCHES_PER_THREAD = 12

#: Queries over Family / FamilyIntro only.  The writer churns Ligand, which
#: neither the queries nor the (non-extended) views V1–V3 ever read — the
#: in-memory store has no reader/writer isolation per relation, so reading
#: a relation *while* mutating it is out of contract.  Churning an unread
#: relation still bumps the database generation on every op, so every
#: cached result is stale mid-flight and is brought forward (re-stamped)
#: through the change log, which is the contention the harness is after.
QUERIES = [
    "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
    "Q2(FID, Text) :- FamilyIntro(FID, Text)",
    "Q3(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
    "Q4(FID) :- Family(FID, FName, Desc)",
]


@pytest.fixture
def database():
    return gtopdb.generate(
        families=12, targets_per_family=2, ligands=20, seed=7
    )


@pytest.fixture
def engine(database):
    return CitationEngine(database, gtopdb.citation_views())


class TestServiceUnderChurn:
    def test_submit_batch_with_writer_churn(self, database, engine):
        with CitationService(engine, max_workers=THREADS) as service:
            expected = {
                query: frozenset(engine.cite(query).result.rows) for query in QUERIES
            }
            pre_churn = {
                query: cited_records(engine.cite(query)) for query in QUERIES
            }
            stop = threading.Event()
            writer_ops = 0

            def churn():
                nonlocal writer_ops
                row_id = 100_000
                while not stop.is_set():
                    database.insert("Ligand", (row_id, f"L{row_id}", "synthetic"))
                    writer_ops += 1
                    if row_id % 3 == 0:
                        database.delete("Ligand", (row_id, f"L{row_id}", "synthetic"))
                        writer_ops += 1
                    row_id += 1

            writer = threading.Thread(target=churn)
            writer.start()
            try:
                batches = []
                with ThreadPoolExecutor(max_workers=THREADS) as pool:
                    futures = [
                        pool.submit(
                            service.submit_batch,
                            # Intra-batch dedup is a no-op: distinct shapes.
                            [CitationRequest(query=query) for query in QUERIES],
                        )
                        for _ in range(THREADS * BATCHES_PER_THREAD)
                    ]
                    for future in futures:
                        batches.append(future.result(timeout=120))
            finally:
                stop.set()
                writer.join(timeout=30)
            assert not writer.is_alive()
            assert writer_ops > 0

            # 1. No lost or broken responses: every request answered, correctly.
            assert len(batches) == THREADS * BATCHES_PER_THREAD
            for responses in batches:
                assert len(responses) == len(QUERIES)
                for query, response in zip(QUERIES, responses):
                    assert response.error is None, repr(response.error)
                    assert frozenset(response.result.result.rows) == expected[query]

            # 2. Metric conservation: the served counters balance exactly.
            counters = service.metrics.stats()["counters"]
            total = THREADS * BATCHES_PER_THREAD * len(QUERIES)
            assert counters["requests"] == total
            assert counters["errors"] == 0
            assert counters["timeouts"] == 0
            assert (
                counters["executions"]
                + counters["result_cache_hits"]
                + counters["deduplicated"]
                == total
            )
            assert counters["batch_requests"] == THREADS * BATCHES_PER_THREAD
            # Stale entries are brought forward and served as hits; the
            # churned relation reaches no record, so none is patched.
            assert counters["result_cache_hits"] > 0
            assert counters["result_cache_patches"] == 0
            # Every writer op was observed by the mutation listener.
            assert counters["mutations_observed"] == writer_ops

            # 3. No cross-request plan corruption: everything compiled during
            # the stampede — plans, join and citation programs — still
            # passes the IR verifier.
            for query in QUERIES:
                plan = engine.compile_plan(parse_query(query))
                engine.execute_plan(plan)
                report = engine.verify_plan(plan)
                assert not list(report), report.to_text()
            stats = engine.analysis_stats()
            assert stats["verify_violations"] == 0
            assert stats["plans_verified"] >= len(QUERIES)

            # 4. Delta-scoped refresh: the churned Ligand feeds no citation
            # query, so concurrent refreshes kept every record object.
            for query in QUERIES:
                after = cited_records(engine.cite(query))
                assert after.keys() == pre_churn[query].keys()
                assert all(after[key] is record for key, record in pre_churn[query].items())
            refresh = engine.refresh_stats()
            assert refresh["full_drops"] == refresh["records_evicted"] == 0


def cited_records(result) -> dict:
    """``(view, parameter items) -> record`` of every atom a result cites."""
    return {
        (atom.view_name, tuple(sorted(atom.parameter_values.items()))): atom.record
        for tc in result.tuple_citations
        for atom in tc.expression.atoms()
    }


class TestEngineCacheRaces:
    """Regression: the engine/evaluator cache locks under forced eviction."""

    def test_concurrent_cite_many_with_tiny_caches(self, database, monkeypatch):
        monkeypatch.setattr(engine_module, "_ANALYSIS_CACHE_LIMIT", 4)
        engine = CitationEngine(database, gtopdb.citation_views(extended=True))

        # Distinct head predicates make distinct cache keys: every shape
        # compiles, analyzes and (at the tiny caps) evicts concurrently.
        shapes = [
            f"Q{i}(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, T)"
            for i in range(24)
        ] + [
            f"P{i}(FID, Text) :- FamilyIntro(FID, Text)" for i in range(24)
        ]
        reference = {shape: engine.cite(shape).result.rows for shape in shapes[:4]}

        with CitationService(engine, max_workers=THREADS) as service:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                futures = [
                    pool.submit(
                        service.submit_batch,
                        [CitationRequest(query=shape) for shape in shapes],
                    )
                    for _ in range(THREADS)
                ]
                results = [future.result(timeout=120) for future in futures]

        for responses in results:
            assert len(responses) == len(shapes)
            for response in responses:
                assert response.error is None, repr(response.error)
        for shape, rows in reference.items():
            assert engine.cite(shape).result.rows == rows
        # The analysis cache honoured its (patched) cap under concurrency.
        assert len(engine._analysis_cache) <= 4
        assert engine.analysis_stats()["verify_violations"] == 0
