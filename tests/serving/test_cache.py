"""Tests for the serving LRU cache."""

import threading
import time

import pytest

from repro.serving import LRUCache


class TestLRUCache:
    def test_get_miss_then_hit(self):
        cache = LRUCache(capacity=2)
        found, _ = cache.get("a")
        assert not found
        cache.put("a", 1)
        found, value = cache.get("a")
        assert found and value == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_none_is_a_cacheable_value(self):
        cache = LRUCache(capacity=2)
        cache.put("a", None)
        found, value = cache.get("a")
        assert found and value is None

    def test_lru_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a": now "b" is the LRU entry
        cache.put("c", 3)
        assert cache.get("a")[0]
        assert not cache.get("b")[0]
        assert cache.get("c")[0]
        assert cache.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert not cache.get("a")[0]
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=-1)

    def test_clear_empties_but_keeps_counters(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_stats_and_hit_rate(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_concurrent_puts_stay_bounded(self):
        cache = LRUCache(capacity=16)

        def hammer(base):
            for i in range(300):
                cache.put((base, i), i)
                cache.get((base, i))

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 16


class TestSingleFlight:
    """Satellite regression: concurrent misses on one key compute once."""

    def test_recheck_counts_separately_from_hits(self):
        cache = LRUCache(capacity=4)
        assert cache.recheck("a") == (False, None)
        cache.put("a", 1)
        found, value = cache.recheck("a")
        assert found and value == 1
        # recheck is not a first-look hit: hit_rate keeps meaning "answered
        # without entering the scoring path at all".
        assert cache.hits == 0
        assert cache.inflight_coalesced == 1
        assert cache.stats()["inflight_coalesced"] == 1

    def test_recheck_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.recheck("a")      # "b" becomes the LRU entry
        cache.put("c", 3)
        assert cache.get("a")[0]
        assert not cache.get("b")[0]

    def test_reset_stats_zeroes_coalesced(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.recheck("a")
        cache.reset_stats()
        assert cache.inflight_coalesced == 0

    def test_concurrent_same_key_misses_score_once(self):
        """The stampede test: N threads miss the same key at once; exactly one
        enters the scoring path and the rest coalesce onto its result."""
        from repro.registry import ModelSpec, build_model
        from repro.serving import InferenceEngine

        model = build_model(ModelSpec(model="transe", formulation="sparse",
                                      n_entities=30, n_relations=4,
                                      embedding_dim=8), rng=0)
        engine = InferenceEngine(model, cache_size=32)
        original = model.top_k

        def slow_score(*args, **kwargs):
            time.sleep(0.1)     # hold the score lock so every rider queues up
            return original(*args, **kwargs)

        model.top_k = slow_score
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait()
            results.append(engine.top_k_tails(3, 1, k=5))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(results) == 8
        assert len({r.entities for r in results}) == 1
        assert engine.stats()["scoring_calls"] == 1
        assert engine.cache.stats()["inflight_coalesced"] >= 1
