"""Race-stress harness: concurrent serving under live writes (``-m race``).

Three suites.  :class:`TestServiceUnderChurn` drives ``submit_batch`` from
many threads while a writer thread inserts and deletes rows — bumping the
database generation, invalidating plan/result caches mid-flight — and then
audits the aftermath: no lost requests (the metrics counters balance
exactly), no cross-request plan corruption (every plan in sight passes the
IR verifier), stable answers (the churned relation feeds none of the
queries), and stable records (it feeds no citation query either, so the
engine's delta-scoped refreshes must keep every record object).
:class:`TestEngineCacheRaces` is the regression suite for the
engine/evaluator cache locks: tiny cache caps plus many distinct query
shapes force concurrent FIFO eviction, which without ``_cache_lock`` /
``_analysis_lock`` raced destructively (``RuntimeError: dictionary changed
size during iteration``, lost stats updates).
:class:`TestShardedEvaluationUnderChurn` repeats the service stampede with
``strategy="parallel"`` so every execution fans out across the shard pool
*while* the writer churns: cached shard partitions must repartition on
version bumps (never serve stale slices), the I008 partition verifier runs
on every fresh partition (strict mode), and the merged answers and metric
conservation must be byte-identical to the serial harness's guarantees.

CI runs this module as its own step (``pytest -m race``); the tier-1 run
deselects it.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.core.engine as engine_module
from repro import CitationEngine, parse_query
from repro.query.evaluator import QueryEvaluator
from repro.service.service import CitationService
from repro.workloads import gtopdb

pytestmark = pytest.mark.race

THREADS = 8
BATCHES_PER_THREAD = 12

#: Queries over Family / FamilyIntro only.  The writer churns Ligand, which
#: neither the queries nor the (non-extended) views V1–V3 ever read — the
#: in-memory store has no reader/writer isolation per relation, so reading
#: a relation *while* mutating it is out of contract.  Churning an unread
#: relation still bumps the database generation on every op, invalidating
#: plan tokens, result-cache entries and materialised views mid-flight,
#: which is the contention the harness is after.
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
                            service.cite_many,
                            QUERIES,  # intra-batch dedup is a no-op: distinct shapes
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
            # Every writer op was observed by the mutation listener.
            assert counters["mutations_observed"] == writer_ops

            # 3. No cross-request plan corruption: everything compiled during
            # the stampede — plans, programs, reductions, warm preludes —
            # still passes the IR verifier.
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


class TestShardedEvaluationUnderChurn:
    """The service stampede again, with every execution sharded in parallel.

    ``strategy="parallel"`` forces the shard path regardless of the cost
    model, ``verify_plans="strict"`` (the suite default) turns on the I008
    partition verifier, and the churn writer invalidates cached partitions
    mid-flight.  The audit demands the *same* exact conservation the serial
    harness gets, plus evidence the shard path actually ran."""

    def test_sharded_cite_many_with_writer_churn(self, database):
        engine = CitationEngine(
            database,
            gtopdb.citation_views(),
            strategy="parallel",
            workers=2,
            parallel_backend="thread",
        )
        with CitationService(engine, max_workers=THREADS) as service:
            expected = {
                query: frozenset(engine.cite(query).result.rows) for query in QUERIES
            }
            stop = threading.Event()
            writer_ops = 0

            def churn():
                nonlocal writer_ops
                row_id = 300_000
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
                        pool.submit(service.cite_many, QUERIES)
                        for _ in range(THREADS * BATCHES_PER_THREAD)
                    ]
                    for future in futures:
                        batches.append(future.result(timeout=120))
            finally:
                stop.set()
                writer.join(timeout=30)
            assert not writer.is_alive()
            assert writer_ops > 0

            # 1. Sharded answers are exact under churn.
            assert len(batches) == THREADS * BATCHES_PER_THREAD
            for responses in batches:
                assert len(responses) == len(QUERIES)
                for query, response in zip(QUERIES, responses):
                    assert response.error is None, repr(response.error)
                    assert frozenset(response.result.result.rows) == expected[query]

            # 2. Exact metric conservation — identical to the serial audit.
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
            assert counters["mutations_observed"] == writer_ops

            # 3. The shard path really ran, and sharded executions conserve
            # exactly: every execution was either parallel or serial, no
            # double counting, and parallel runs fanned out into shards.
            sharding = service.stats()["evaluation"]["sharding"]
            assert sharding["parallel"] > 0
            assert sharding["parallel"] + sharding["serial"] == sum(
                sharding["reasons"].values()
            )
            assert sharding["shards_executed"] >= 2 * sharding["parallel"]

            # 4. Every plan still verifies clean — the strict-mode partition
            # verifier (I008) already ran on every fresh partition above.
            for query in QUERIES:
                plan = engine.compile_plan(parse_query(query))
                engine.execute_plan(plan)
                report = engine.verify_plan(plan)
                assert not list(report), report.to_text()
            assert engine.analysis_stats()["verify_violations"] == 0


class TestEngineCacheRaces:
    """Regression: the engine/evaluator cache locks under forced eviction."""

    def test_concurrent_cite_many_with_tiny_caches(self, database, monkeypatch):
        monkeypatch.setattr(engine_module, "_ANALYSIS_CACHE_LIMIT", 4)
        engine = CitationEngine(database, gtopdb.citation_views(extended=True))
        evaluator = engine._execution_evaluator()
        evaluator.max_cached_queries = 3  # force FIFO eviction on every miss

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
                    pool.submit(service.cite_many, shapes)
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

    def test_concurrent_sharded_evaluator_under_drift(self, database):
        """Sharded evaluation races its own partition cache: many threads
        evaluate through one parallel evaluator while another thread bumps
        relation versions.  Verification is on, so any stale or misrouted
        partition raises instead of silently dropping rows."""
        evaluator = QueryEvaluator(
            database,
            strategy="parallel",
            workers=2,
            verify_partitions=True,
        )
        queries = [parse_query(text) for text in QUERIES]
        expected = {
            query: frozenset(evaluator.evaluate(query).rows) for query in queries
        }
        stop = threading.Event()

        def churn():
            row_id = 500_000
            while not stop.is_set():
                database.insert("Ligand", (row_id, f"L{row_id}", "synthetic"))
                database.delete("Ligand", (row_id, f"L{row_id}", "synthetic"))
                row_id += 1

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            def hammer() -> int:
                count = 0
                for _ in range(BATCHES_PER_THREAD):
                    for query in queries:
                        rows = frozenset(evaluator.evaluate(query).rows)
                        assert rows == expected[query]
                        count += 1
                return count

            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                futures = [pool.submit(hammer) for _ in range(THREADS)]
                counts = [future.result(timeout=120) for future in futures]
        finally:
            stop.set()
            writer.join(timeout=30)
            evaluator.close()
        assert counts == [BATCHES_PER_THREAD * len(queries)] * THREADS

    def test_concurrent_evaluator_cache_eviction(self, database):
        evaluator = QueryEvaluator(database, max_cached_queries=3)
        shapes = [
            parse_query(f"Q{i}(FName) :- Family(FID, FName, Desc)")
            for i in range(30)
        ]

        def hammer(offset: int) -> int:
            count = 0
            for index in range(len(shapes)):
                query = shapes[(index + offset) % len(shapes)]
                program = evaluator.compile(query)
                reduced = evaluator.reduction_of(query, program)
                assert reduced.program is program
                prelude = evaluator.prelude_for(query, reduced)
                assert prelude.reduced is reduced
                evaluator.evaluate(query)
                count += 1
            return count

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(hammer, i * 3) for i in range(THREADS)]
            counts = [future.result(timeout=120) for future in futures]
        assert counts == [len(shapes)] * THREADS
        assert len(evaluator._programs) <= 3
        assert len(evaluator._reduced) <= 3
        assert len(evaluator._preludes) <= 3
