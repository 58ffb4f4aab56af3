"""Tests for sharded parallel evaluation: planning, partitioning, execution.

Covers the shard planner (:func:`shard_key_positions`,
:func:`partition_driving_rows`, :meth:`JoinProgram.driving_rows_from_plan`), the I008
partition verifier, the ``"parallel"`` strategy on forked shards (and serial
without ``os.fork``), the cost model's parallel crossover (``auto`` stays
serial on small inputs), the shard-partition cache, the concurrency-lint
registration of the shared state, and a forked shard's independence from
locks other threads hold at the fork.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.analysis.ir import verify_shard_partition
from repro.concurrency import MAX_DEFAULT_WORKERS, declared_shared_state, default_worker_count
from repro.core.engine import CitationEngine
from repro.query.compiler import (
    compile_query,
    partition_driving_rows,
    shard_key_positions,
)
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.query.stats import CostModel, EvaluationMetrics, StatisticsCatalog
from repro.relational.index import IndexManager
from repro.service.service import CitationService
from repro.workloads import gtopdb

JOIN = "Q(FName, Text) :- Family(FID, FName, D), FamilyIntro(FID, Text)"
CARTESIAN = "Q(A, B) :- Family(A, X, Y), FamilyIntro(B, T)"
THREE_WAY = (
    "Q(FName, PName, Text) :- Family(FID, FName, D), Committee(FID, PName), "
    "FamilyIntro(FID, Text)"
)


@pytest.fixture
def db():
    return gtopdb.paper_instance()


def _program(db, text):
    query = parse_query(text)
    relations = {atom.predicate: db.relation(atom.predicate) for atom in query.body}
    return query, compile_query(query, relations), relations


class TestShardPlanning:
    def test_key_positions_follow_downstream_probes(self, db):
        """The partition hashes the join key itself, so co-joining rows land
        in the same shard and downstream probes stay local."""
        _query, program, _relations = _program(db, JOIN)
        driving = program.steps[0]
        consumed = {
            slot for step in program.steps[1:] for slot in step.key_slots
            if slot is not None
        }
        positions = shard_key_positions(program)
        assert positions
        for position in positions:
            assert dict(driving.writes)[position] in consumed

    def test_cartesian_falls_back_to_all_writes(self, db):
        _query, program, _relations = _program(db, CARTESIAN)
        assert shard_key_positions(program) == tuple(
            p for p, _slot in program.steps[0].writes
        )

    def test_partition_is_disjoint_complete_and_routed(self, db):
        _query, program, relations = _program(db, JOIN)
        rows = list(relations["Family"])
        positions = shard_key_positions(program)
        parts = partition_driving_rows(rows, positions, 3)
        assert len(parts) == 3
        flattened = [row for part in parts for row in part]
        assert sorted(flattened) == sorted(rows)
        for index, part in enumerate(parts):
            for row in part:
                assert hash(tuple(row[p] for p in positions)) % 3 == index

    def test_partition_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            partition_driving_rows([], (0,), 0)

    def test_driving_rows_match_the_relation(self, db):
        _query, program, relations = _program(db, JOIN)
        plan = program.prepared_plan(relations, IndexManager(db))
        assert sorted(program.driving_rows_from_plan(plan)) == sorted(relations["Family"])

    def test_driving_rows_respect_constant_seeds(self, db):
        query, program, relations = _program(db, "Q(FName) :- Family(11, FName, D)")
        plan = program.prepared_plan(relations, IndexManager(db))
        rows = program.driving_rows_from_plan(plan)
        assert rows == [row for row in relations["Family"] if row[0] == 11]


class TestPartitionVerifier:
    def _fixture(self, db, shards=3):
        _query, program, relations = _program(db, JOIN)
        rows = list(relations["Family"])
        positions = shard_key_positions(program)
        parts = partition_driving_rows(rows, positions, shards)
        return program, positions, parts, rows

    def test_clean_partition_verifies(self, db):
        program, positions, parts, rows = self._fixture(db)
        assert not verify_shard_partition(program, positions, parts, rows).has_errors

    def test_dropped_row_is_flagged(self, db):
        program, positions, parts, rows = self._fixture(db)
        tampered = [list(part) for part in parts]
        next(part for part in tampered if part).pop()
        report = verify_shard_partition(program, positions, tampered, rows)
        assert any("missing" in d.message for d in report.errors)

    def test_duplicated_row_is_flagged(self, db):
        program, positions, parts, rows = self._fixture(db)
        tampered = [list(part) for part in parts]
        donor = next(part for part in tampered if part)
        donor.append(donor[0])
        report = verify_shard_partition(program, positions, tampered, rows)
        assert any("duplicated or foreign" in d.message for d in report.errors)

    def test_misrouted_row_is_flagged(self, db):
        program, positions, parts, rows = self._fixture(db)
        tampered = [list(part) for part in parts]
        source = next(i for i, part in enumerate(tampered) if part)
        row = tampered[source].pop()
        tampered[(source + 1) % len(tampered)].append(row)
        report = verify_shard_partition(program, positions, tampered, rows)
        assert any("hash selects" in d.message for d in report.errors)

    def test_codes_are_i008(self, db):
        program, positions, parts, rows = self._fixture(db)
        report = verify_shard_partition(program, positions, [], rows)
        assert report.has_errors
        assert {d.code for d in report.errors} == {"I008"}


class TestParallelExecution:
    def _serial_reference(self, db, text):
        return QueryEvaluator(db, strategy="program").evaluate(parse_query(text)).rows

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork backend is POSIX-only")
    @pytest.mark.parametrize("text", [JOIN, CARTESIAN, THREE_WAY])
    def test_fork_backend_matches_serial(self, db, text):
        evaluator = QueryEvaluator(
            db, strategy="parallel", workers=2, verify_partitions=True
        )
        assert evaluator.evaluate(parse_query(text)).rows == (
            self._serial_reference(db, text)
        )

    def test_binding_sets_survive_sharding(self, db):
        query = parse_query(JOIN)
        serial = QueryEvaluator(db, strategy="program").evaluate_with_bindings(query)
        sharded = QueryEvaluator(
            db, strategy="parallel", workers=2
        ).evaluate_with_bindings(query)
        assert set(serial) == set(sharded)
        for row, bindings in serial.items():
            assert {frozenset(b.items()) for b in bindings} == {
                frozenset(b.items()) for b in sharded[row]
            }

    def test_auto_stays_serial_below_the_crossover(self, db):
        """The acceptance gate: on a small instance ``auto`` must keep
        picking serial — shard setup dwarfs the divided join work."""
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(db, strategy="auto", workers=4, metrics=metrics)
        evaluator.evaluate(parse_query(JOIN))
        sharding = metrics.snapshot()["sharding"]
        assert sharding["parallel"] == 0
        assert sharding["serial"] == 1
        assert "cost_model" in sharding["reasons"]

    def test_parallel_strategy_records_forced_sharding(self, db):
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(
            db, strategy="parallel", workers=2, metrics=metrics
        )
        evaluator.evaluate(parse_query(JOIN))
        sharding = metrics.snapshot()["sharding"]
        assert sharding["parallel"] == 1
        assert sharding["shards_executed"] == 2
        assert sharding["reasons"] == {"forced": 1}

    def test_single_atom_never_shards(self, db):
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(db, strategy="parallel", workers=4, metrics=metrics)
        evaluator.evaluate(parse_query("Q(F) :- Family(FID, F, D)"))
        assert metrics.snapshot()["sharding"]["reasons"] == {"single_atom": 1}

    def test_one_worker_never_shards(self, db):
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(db, strategy="parallel", workers=1, metrics=metrics)
        evaluator.evaluate(parse_query(JOIN))
        assert metrics.snapshot()["sharding"]["reasons"] == {"no_workers": 1}

    def test_forced_serial_strategies_never_shard(self, db):
        for strategy in ("program", "reduced"):
            metrics = EvaluationMetrics()
            evaluator = QueryEvaluator(
                db, strategy=strategy, workers=4, metrics=metrics
            )
            evaluator.evaluate(parse_query(JOIN))
            assert metrics.snapshot()["sharding"]["reasons"] == {"forced_serial": 1}

    def test_without_os_fork_every_strategy_runs_serial(self, db, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        for strategy in ("parallel", "auto"):
            metrics = EvaluationMetrics()
            evaluator = QueryEvaluator(
                db, strategy=strategy, workers=2, metrics=metrics
            )
            assert evaluator.evaluate(parse_query(JOIN)).rows == (
                self._serial_reference(db, JOIN)
            )
            assert metrics.snapshot()["sharding"]["reasons"] == {"no_fork": 1}

    def test_unknown_backend_rejected(self, db):
        """The shard backend is not an option: fork where it exists."""
        with pytest.raises(TypeError):
            QueryEvaluator(db, parallel_backend="thread")
        with pytest.raises(TypeError):
            CitationEngine(db, gtopdb.citation_views(), parallel_backend="fork")

    def test_bad_worker_count_rejected(self, db):
        with pytest.raises(ValueError):
            QueryEvaluator(db, workers=0)


class TestParallelCostModel:
    def _model(self, db):
        return CostModel(StatisticsCatalog(IndexManager(db)))

    def test_small_input_prefers_serial(self, db):
        estimate = self._model(db).parallel_estimate(100.0, 10, 4, 10.0)
        assert not estimate.prefers_parallel
        assert estimate.as_dict()["strategy"] == "serial"

    def test_large_input_prefers_parallel(self, db):
        estimate = self._model(db).parallel_estimate(1_000_000.0, 1_000, 4, 1_000.0)
        assert estimate.prefers_parallel
        assert estimate.as_dict()["strategy"] == "parallel"

    def test_crossover_is_monotone_in_serial_cost(self, db):
        model = self._model(db)
        costs = [model.parallel_estimate(c, 100, 4, 100.0) for c in (1e2, 1e4, 1e6)]
        flips = [e.prefers_parallel for e in costs]
        assert flips == sorted(flips)  # serial → parallel, never back

    def test_output_bound_join_stays_serial_at_any_size(self, db):
        """Shipping a frame back costs about what producing it did, so a
        join whose frames match its work never pays for forking."""
        model = self._model(db)
        for cost in (1e3, 1e5, 1e7):
            assert not model.parallel_estimate(cost, 1_000, 2, cost).prefers_parallel

    @pytest.mark.parametrize("families", [300, 1_000, 3_000])
    def test_auto_keeps_warm_cite_q6_join_serial(self, families):
        """Q6's join (V4 ⋈ V6 ⋈ V5) measured slower forked than serial."""
        database = gtopdb.generate(families=families, targets_per_family=3, seed=17)
        engine = CitationEngine(database, gtopdb.citation_views(extended=True))
        plan = engine.compile_plan(gtopdb.example_queries()[5])
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(
            database,
            extra_relations=engine.view_relations(),
            workers=2,
            metrics=metrics,
        )
        for rewriting in plan.rewritings:
            evaluator.evaluate(rewriting.query)
        sharding = metrics.snapshot()["sharding"]
        assert sharding["parallel"] == 0
        assert sharding["reasons"] == {"cost_model": len(plan.rewritings)}


class TestPartitionCache:
    def test_warm_traffic_reuses_the_partition(self, db):
        query = parse_query(JOIN)
        evaluator = QueryEvaluator(db, strategy="parallel", workers=2)
        evaluator.evaluate(query)
        first = evaluator._shard_parts[query][4]
        evaluator.evaluate(query)
        assert evaluator._shard_parts[query][4] is first

    def test_drift_recomputes_the_partition(self, db):
        query = parse_query(JOIN)
        evaluator = QueryEvaluator(db, strategy="parallel", workers=2)
        evaluator.evaluate(query)
        first = evaluator._shard_parts[query][4]
        db.insert("Family", (77, "NewFam", "ND"))
        db.insert("FamilyIntro", (77, "text"))
        assert (
            evaluator.evaluate(query).rows
            == QueryEvaluator(db, strategy="program").evaluate(query).rows
        )
        assert evaluator._shard_parts[query][4] is not first

    def test_invalidate_caches_drops_partitions(self, db):
        query = parse_query(JOIN)
        evaluator = QueryEvaluator(db, strategy="parallel", workers=2)
        evaluator.evaluate(query)
        assert evaluator._shard_parts
        evaluator.invalidate_caches()
        assert not evaluator._shard_parts


class TestWorkerPool:
    def test_shared_state_registration(self):
        assert declared_shared_state(QueryEvaluator) == {"_shard_parts": "_cache_lock"}

    def test_default_worker_count_is_bounded(self):
        count = default_worker_count()
        assert 2 <= count <= MAX_DEFAULT_WORKERS


class TestEngineWiring:
    def test_strict_engine_verifies_partitions(self, db):
        engine = CitationEngine(
            db, gtopdb.citation_views(), verify_plans="strict", workers=3
        )
        assert engine._execution_evaluator().verify_partitions

    def test_off_engine_skips_partition_verification(self, db):
        engine = CitationEngine(db, gtopdb.citation_views(), verify_plans="off")
        assert not engine._execution_evaluator().verify_partitions

    def test_engine_threads_workers_and_backend(self, db):
        engine = CitationEngine(db, gtopdb.citation_views(), workers=3)
        assert engine._execution_evaluator().workers == 3
        with CitationService(engine) as service:
            backend = service.stats()["engine"]["parallel_backend"]
        assert backend == ("fork" if hasattr(os, "fork") else "serial")

    def test_parallel_engine_citations_match_serial(self):
        """Forked shards hand frames back in another order than the serial
        join; no row's ``+`` order, expression or records may move."""
        database = gtopdb.generate(
            families=24, targets_per_family=3, duplicate_name_fraction=0.5, seed=11
        )
        serial = CitationEngine(database, gtopdb.citation_views(extended=True))
        parallel = CitationEngine(
            database, gtopdb.citation_views(extended=True), strategy="parallel", workers=2
        )
        queries = {q.name: q for q in gtopdb.example_queries()}
        for name in ("Q", "Q5", "Q6"):  # the paper query, Q5, Q6
            left = serial.cite(queries[name])
            right = parallel.cite(queries[name])
            assert [(t.row, str(t.expression), t.records) for t in right.tuple_citations] == [
                (t.row, str(t.expression), t.records) for t in left.tuple_citations
            ], name
            assert str(left.citation.to_text()) == str(right.citation.to_text())
            if name == "Q":  # rows cited through several V1 records: + order
                assert any(" + " in str(t.expression) for t in left.tuple_citations)
        assert parallel.evaluation_metrics.snapshot()["sharding"]["serial"] == 0


#: Runs a forced-parallel plain-program join while, at every fork, another
#: thread holds ``Database._sync_lock`` and the fault registry's lock (a
#: fault is armed, so firing one takes it): a child that took either lock
#: would inherit it held and block forever.
_LOCKS_HELD_ACROSS_FORK = """
import os
import threading

from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.resilience import faults
from repro.workloads import gtopdb

db = gtopdb.generate(families=60, targets_per_family=3, seed=5)
query = parse_query(
    "Q(FName, TName) :- Family(FID, FName, D), Target(TID, FID, TName, TT)"
)
serial = QueryEvaluator(db, strategy="program").evaluate(query).rows
evaluator = QueryEvaluator(db, strategy="parallel", workers=2)
assert evaluator.select_strategy(query) == "program"
faults.inject(faults.FaultSpec("fork.child", key=-1, exit_status=1))
real_fork = os.fork


def fork_while_another_thread_holds_the_locks():
    held, release = threading.Event(), threading.Event()

    def writer():
        with db._sync_lock, faults.registry()._lock:
            held.set()
            release.wait()

    thread = threading.Thread(target=writer)
    thread.start()
    held.wait()
    pid = real_fork()
    if pid:
        release.set()
        thread.join()
    return pid


os.fork = fork_while_another_thread_holds_the_locks
assert evaluator.evaluate(query).rows == serial
print("ok")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork backend is POSIX-only")
class TestForkChildTakesNoLock:
    def test_shards_finish_while_another_thread_holds_their_locks(self):
        source = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (source, env.get("PYTHONPATH")) if path
        )
        # Its own session: on a hang, one killpg takes the stuck shard
        # children down with the interpreter.
        process = subprocess.Popen(
            [sys.executable, "-c", _LOCKS_HELD_ACROSS_FORK],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("a forked shard child blocked on a lock held at the fork")
        assert process.returncode == 0, err
        assert out.strip() == "ok"
