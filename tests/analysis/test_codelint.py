"""The concurrency code lint (C001–C004) and the repo-wide gate.

Rule-by-rule fixtures exercise the AST walk on small synthetic classes; the
final test runs the lint over ``src/repro`` itself — the same gate CI
enforces — so any shared-state regression in the package fails the suite
before it fails CI.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.codelint import lint_paths, lint_source
from repro.concurrency import declared_shared_state, shared_state

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint(snippet: str):
    return lint_source(textwrap.dedent(snippet), "fixture.py")


def codes(report):
    return sorted(diagnostic.code for diagnostic in report)


# ---------------------------------------------------------------------------
# The runtime half of the contract
# ---------------------------------------------------------------------------
class TestSharedStateDecorator:
    def test_registry_accumulates_across_applications(self):
        @shared_state("_b", lock="_other_lock")
        @shared_state("_a")
        class Thing:
            pass

        assert declared_shared_state(Thing) == {"_a": "_lock", "_b": "_other_lock"}

    def test_rejects_empty_declarations(self):
        import pytest

        with pytest.raises(ValueError):
            shared_state()
        with pytest.raises(TypeError):
            shared_state("")


# ---------------------------------------------------------------------------
# C001: registered field mutated outside its lock
# ---------------------------------------------------------------------------
class TestC001:
    def test_unlocked_mutation_flagged(self):
        report = lint(
            """
            @shared_state("_counts", lock="_lock")
            class Metrics:
                def bump(self, key):
                    self._counts[key] = 1
            """
        )
        assert codes(report) == ["C001"]
        assert "with self._lock" in report.errors[0].message

    def test_locked_mutation_clean(self):
        report = lint(
            """
            @shared_state("_counts", lock="_lock")
            class Metrics:
                def bump(self, key):
                    with self._lock:
                        self._counts[key] = 1
            """
        )
        assert not list(report)

    def test_wrong_lock_flagged(self):
        report = lint(
            """
            @shared_state("_counts", lock="_lock")
            class Metrics:
                def bump(self, key):
                    with self._other_lock:
                        self._counts[key] = 1
            """
        )
        assert codes(report) == ["C001"]

    def test_mutator_method_calls_count_as_mutations(self):
        report = lint(
            """
            @shared_state("_items", lock="_lock")
            class Box:
                def a(self):
                    self._items.append(1)
                def b(self):
                    self._items.clear()
                def c(self):
                    self._items.setdefault("k", []).pop()
            """
        )
        assert codes(report) == ["C001", "C001", "C001"]

    def test_del_and_augassign_flagged(self):
        report = lint(
            """
            @shared_state("_items", lock="_lock")
            class Box:
                def a(self):
                    del self._items["k"]
                def b(self):
                    self._items += [1]
            """
        )
        assert codes(report) == ["C001", "C001"]

    def test_init_and_locked_suffix_exempt(self):
        report = lint(
            """
            @shared_state("_items", lock="_lock")
            class Box:
                def __init__(self):
                    self._items = []
                def _drain_locked(self):
                    self._items.clear()
                def reset(self):
                    with self._lock:
                        self._drain_locked()
            """
        )
        assert not list(report)

    def test_unregistered_class_not_checked(self):
        report = lint(
            """
            class Plain:
                def bump(self):
                    self._counts = {}
            """
        )
        assert not list(report)


# ---------------------------------------------------------------------------
# C002: inconsistent lock acquisition order
# ---------------------------------------------------------------------------
class TestC002:
    def test_inverted_order_flagged_once(self):
        report = lint(
            """
            class Engine:
                def a(self):
                    with self._lock:
                        with self._cache_lock:
                            pass
                def b(self):
                    with self._cache_lock:
                        with self._lock:
                            pass
            """
        )
        assert codes(report) == ["C002"]

    def test_consistent_order_clean(self):
        report = lint(
            """
            class Engine:
                def a(self):
                    with self._lock:
                        with self._cache_lock:
                            pass
                def b(self):
                    with self._lock:
                        with self._cache_lock:
                            pass
            """
        )
        assert not list(report)

    def test_non_lock_contexts_ignored(self):
        report = lint(
            """
            class Engine:
                def a(self):
                    with self._lock:
                        with self.tracer.span("x"):
                            pass
                def b(self):
                    with self.tracer.span("x"):
                        with self._lock:
                            pass
            """
        )
        assert not list(report)


# ---------------------------------------------------------------------------
# C003: pool-reachable methods touching unregistered state
# ---------------------------------------------------------------------------
class TestC003:
    def test_direct_submit_target_flagged(self):
        report = lint(
            """
            class Service:
                def run(self, pool):
                    pool.submit(self._worker, 1)
                def _worker(self, item):
                    self._seen.append(item)
            """
        )
        assert codes(report) == ["C003"]
        assert report.warnings and not report.errors

    def test_transitive_callee_flagged(self):
        report = lint(
            """
            class Service:
                def run(self, pool):
                    pool.submit(self._worker)
                def _worker(self):
                    self._helper()
                def _helper(self):
                    self._state = 1
            """
        )
        assert codes(report) == ["C003"]

    def test_local_function_thread_target_flagged(self):
        report = lint(
            """
            import threading
            class Service:
                def run(self):
                    def worker():
                        self._seen.append(1)
                    threading.Thread(target=worker).start()
            """
        )
        assert codes(report) == ["C003"]

    def test_registered_or_locked_mutations_clean(self):
        report = lint(
            """
            @shared_state("_seen", lock="_lock")
            class Service:
                def run(self, pool):
                    pool.submit(self._worker)
                def _worker(self):
                    with self._lock:
                        self._seen.append(1)
                    with self._state_lock:
                        self._other = 1
            """
        )
        assert not list(report)

    def test_unreachable_mutation_not_flagged(self):
        report = lint(
            """
            class Service:
                def run(self, pool):
                    pool.submit(self._worker)
                def _worker(self):
                    pass
                def configure(self):
                    self._state = 1
            """
        )
        assert not list(report)


# ---------------------------------------------------------------------------
# C004: suppressions need a justification
# ---------------------------------------------------------------------------
class TestC004:
    def test_justified_suppression_silences(self):
        report = lint(
            """
            @shared_state("_counts", lock="_lock")
            class Metrics:
                def bump(self):
                    self._counts["x"] = 1  # codelint: ignore[C001] -- startup, single-threaded
            """
        )
        assert not list(report)

    def test_unjustified_suppression_is_an_error_and_does_not_suppress(self):
        report = lint(
            """
            @shared_state("_counts", lock="_lock")
            class Metrics:
                def bump(self):
                    self._counts["x"] = 1  # codelint: ignore[C001]
            """
        )
        assert codes(report) == ["C001", "C004"]

    def test_suppression_only_covers_named_codes(self):
        report = lint(
            """
            @shared_state("_counts", lock="_lock")
            class Metrics:
                def bump(self):
                    self._counts["x"] = 1  # codelint: ignore[C003] -- wrong code
            """
        )
        assert codes(report) == ["C001"]

    def test_syntax_error_reported_not_raised(self):
        report = lint_source("def broken(:\n", "broken.py")
        assert report.has_errors


# ---------------------------------------------------------------------------
# The repo-wide gate CI enforces
# ---------------------------------------------------------------------------
class TestRepoGate:
    def test_src_repro_lints_clean(self):
        report = lint_paths([SRC_ROOT])
        assert not report.has_errors, report.to_text()
        assert not report.warnings, report.to_text()

    def test_decorated_classes_really_registered(self):
        from repro.core.engine import CitationEngine
        from repro.query.evaluator import QueryEvaluator
        from repro.query.stats import EvaluationMetrics
        from repro.relational.database import Database
        from repro.service.metrics import ServiceMetrics
        from repro.service.plan_cache import GenerationalLRU

        assert declared_shared_state(CitationEngine) == {
            "_analysis_cache": "_analysis_lock",
            "_analysis_stats": "_analysis_lock",
            "_atom_cache": "_refresh_lock",
            "_view_relations": "_refresh_lock",
            "_cache_generation": "_refresh_lock",
            "_refresh_stats": "_refresh_lock",
        }
        assert declared_shared_state(Database) == {
            "_generation": "_sync_lock",
            "_changes": "_sync_lock",
        }
        assert declared_shared_state(QueryEvaluator) == {"_shard_parts": "_cache_lock"}
        assert set(declared_shared_state(ServiceMetrics)) == {
            "_counters", "_histograms", "_gauge_sources",
        }
        assert set(declared_shared_state(GenerationalLRU)) == {"_entries", "_info"}
        assert "_by_query" in declared_shared_state(EvaluationMetrics)
