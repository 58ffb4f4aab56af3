"""Tests for the generation-stamped LRU plan cache."""

from __future__ import annotations

import pytest

from repro import CitationEngine
from repro.service.plan_cache import GenerationalLRU, PlanCache
from repro.workloads import gtopdb


class TestGenerationalLRU:
    def test_basic_hit_and_miss(self):
        cache = GenerationalLRU(maxsize=4)
        assert cache.get("a", token=0) is None
        cache.put("a", "value", token=0)
        assert cache.get("a", token=0) == "value"
        info = cache.info()
        assert info.hits == 1 and info.misses == 1

    def test_stale_token_is_a_miss_and_evicts(self):
        cache = GenerationalLRU(maxsize=4)
        cache.put("a", "old", token=0)
        assert cache.get("a", token=1) is None
        assert "a" not in cache
        info = cache.info()
        assert info.invalidations == 1 and info.misses == 1 and info.hits == 0

    def test_refreshed_entry_is_a_hit_stored_under_its_new_token(self):
        cache = GenerationalLRU(maxsize=4)
        cache.put("a", "old", token=0)
        seen = []

        def refresh(value, stamp):
            seen.append((value, stamp))
            return "new", 1

        assert cache.get("a", token=1, refresh=refresh) == "new"
        assert seen == [("old", 0)]
        assert cache.get("a", token=1) == "new"  # stored, no second refresh
        info = cache.info()
        assert info.hits == 2 and info.misses == 0 and info.invalidations == 0

    def test_unrefreshable_entry_is_a_miss_and_evicts(self):
        cache = GenerationalLRU(maxsize=4)
        cache.put("a", "old", token=0)
        assert cache.get("a", token=1, refresh=lambda value, stamp: None) is None
        assert "a" not in cache
        info = cache.info()
        assert info.invalidations == 1 and info.misses == 1 and info.hits == 0

    def test_refresh_runs_unlocked_and_its_error_keeps_the_entry(self):
        cache = GenerationalLRU(maxsize=4)
        cache.put("a", "old", token=0)

        def refresh(value, stamp):
            # Another thread can use the cache meanwhile.
            cache.put("b", "other", token=1)
            raise TimeoutError("out of time")

        with pytest.raises(TimeoutError):
            cache.get("a", token=1, refresh=refresh)
        assert cache.get_stale("a", token=1) == ("old", False)
        assert cache.get("b", token=1) == "other"

    def test_lru_eviction_order(self):
        cache = GenerationalLRU(maxsize=2)
        cache.put("a", 1, token=0)
        cache.put("b", 2, token=0)
        assert cache.get("a", token=0) == 1  # refresh a
        cache.put("c", 3, token=0)  # evicts b (least recently used)
        assert "b" not in cache
        assert cache.get("a", token=0) == 1
        assert cache.get("c", token=0) == 3
        assert cache.info().evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = GenerationalLRU(maxsize=2)
        cache.put("a", 1, token=0)
        cache.put("b", 2, token=0)
        cache.put("a", 10, token=1)
        cache.put("c", 3, token=0)  # b is now the LRU entry
        assert "b" not in cache
        assert cache.get("a", token=1) == 10

    def test_invalidate_drops_everything(self):
        cache = GenerationalLRU(maxsize=8)
        for key in "abc":
            cache.put(key, key, token=0)
        assert cache.invalidate() == 3
        assert len(cache) == 0

    def test_prune_drops_only_stale_entries(self):
        cache = GenerationalLRU(maxsize=8)
        cache.put("old", 1, token=0)
        cache.put("new", 2, token=1)
        assert cache.prune(token=1) == 1
        assert "old" not in cache and "new" in cache

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            GenerationalLRU(maxsize=0)

    def test_stats_shape(self):
        cache = GenerationalLRU(maxsize=8)
        cache.put("a", 1, token=0)
        cache.get("a", token=0)
        stats = cache.stats()
        assert stats["size"] == 1 and stats["maxsize"] == 8
        assert stats["hits"] == 1 and stats["hit_rate"] == 1.0


class TestPlanCacheWithEngine:
    @pytest.fixture
    def engine(self):
        return CitationEngine(gtopdb.paper_instance(), gtopdb.citation_views())

    def test_store_stamps_with_plan_token(self, engine):
        cache = PlanCache(maxsize=8)
        plan = engine.compile_plan(gtopdb.paper_query())
        cache.store("key", plan)
        assert cache.get("key", engine.plan_token()) is plan

    def test_database_mutation_invalidates_stored_plan(self, engine):
        cache = PlanCache(maxsize=8)
        plan = engine.compile_plan(gtopdb.paper_query())
        cache.store("key", plan)
        engine.database.insert("Family", (99, "New family", "d"))
        assert not engine.is_current(plan)
        assert cache.get("key", engine.plan_token()) is None
        assert cache.info().invalidations == 1

    def test_forced_invalidation_bumps_epoch_and_invalidates(self, engine):
        cache = PlanCache(maxsize=8)
        plan = engine.compile_plan(gtopdb.paper_query())
        cache.store("key", plan)
        engine.invalidate_caches()
        assert cache.get("key", engine.plan_token()) is None

    def test_recompiled_plan_is_current_again(self, engine):
        cache = PlanCache(maxsize=8)
        engine.database.delete("Committee", (13, "E. Faccenda"))
        plan = engine.compile_plan(gtopdb.paper_query())
        cache.store("key", plan)
        assert cache.get("key", engine.plan_token()) is plan
