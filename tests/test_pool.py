"""Tests for repro.parallel.pool.

The warm pool's contract is that reuse is invisible except in latency:
warm runs return the same results as cold runs, a model handle names
exactly one live log pair (appends and concurrent callers get fresh
keys), and the bounded caches (handles, models) evict instead of
growing.
"""

import pickle
import sys
import threading

import pytest

from repro.core.bounds import BoundKind
from repro.core.scoring import build_pattern_set
from repro.datagen.random_logs import generate_random_pair
from repro.log.eventlog import EventLog
from repro.parallel.pool import (
    _MODEL_CACHE,
    LruCache,
    ModelHandle,
    WarmPool,
    close_warm_pool,
    current_warm_pool,
    get_warm_pool,
    materialize_model,
    warm_pool_stats,
)


@pytest.fixture(autouse=True, scope="module")
def _close_pool_after_module():
    yield
    close_warm_pool()


# ----------------------------------------------------------------------
# LruCache
# ----------------------------------------------------------------------


class TestLruCache:
    def test_eviction_order_and_counter(self):
        cache = LruCache(2)
        assert cache.put("a", 1) == []
        assert cache.put("b", 2) == []
        assert cache.get("a") == 1  # refresh a; b is now oldest
        assert cache.put("c", 3) == [2]
        assert cache.evictions == 1
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_pop_and_clear(self):
        cache = LruCache(3)
        cache.put("x", 10)
        assert cache.pop("x") == 10
        assert cache.pop("x") is None
        cache.put("y", 20)
        assert cache.clear() == [20]
        assert len(cache) == 0

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            LruCache(0)


# ----------------------------------------------------------------------
# WarmPool
# ----------------------------------------------------------------------


class TestWarmPool:
    def test_singleton_reuse_and_growth(self):
        close_warm_pool()
        assert current_warm_pool() is None
        pool = get_warm_pool(1)
        assert get_warm_pool(1) is pool  # large enough: reused
        grown = get_warm_pool(2)  # too small: replaced
        assert grown is not pool and pool.closed
        assert get_warm_pool(1) is grown  # shrink requests still reuse
        stats = warm_pool_stats()
        assert stats["live"] and stats["workers"] == 2
        close_warm_pool()
        assert current_warm_pool() is None
        assert not warm_pool_stats()["live"]

    def test_handle_for_keyed_by_generation(self):
        pool = WarmPool(1)
        try:
            log_1 = EventLog([["a", "b"], ["b"]], name="gen")
            log_2 = EventLog([["c"]], name="two")
            handle = pool.handle_for(log_1, log_2, (), BoundKind.TIGHT)
            assert pool.handle_for(log_1, log_2, (), BoundKind.TIGHT) is handle
            log_1.append_trace(["a"])
            fresh = pool.handle_for(log_1, log_2, (), BoundKind.TIGHT)
            assert fresh.key != handle.key
            assert pickle.loads(fresh.payload)[0].traces == log_1.traces
        finally:
            pool.close()

    def test_handle_for_keys_stable_per_log(self):
        pool = WarmPool(1)
        try:
            log_1 = EventLog([["a"]], name="one")
            log_2 = EventLog([["b"]], name="two")
            handle = pool.handle_for(log_1, log_2, (), BoundKind.TIGHT)
            again = pool.handle_for(log_1, log_2, (), BoundKind.TIGHT)
            assert again.key == handle.key
            swapped = pool.handle_for(log_2, log_1, (), BoundKind.TIGHT)
            assert swapped.key != handle.key
        finally:
            pool.close()

    def test_submit_runs_in_worker(self):
        pool = get_warm_pool(1)
        assert pool.submit(pow, 2, 10).result() == 1024


class TestHandleKeyMinting:
    def test_concurrent_callers_never_share_a_key(self):
        # More threads than cores, with a tiny switch interval to force
        # interleavings inside the mint: every distinct live log must
        # get its own key, or a warm worker could serve one log pair's
        # cached model for another.
        threads_n, per_thread = 4, 4000
        pool = WarmPool(1)
        other = EventLog([["z"]], name="other")
        logs: list[EventLog] = []  # keep every log alive (no id reuse)
        keys: list[list[str]] = [[] for _ in range(threads_n)]

        def mint(slot: int) -> None:
            for i in range(per_thread):
                log = EventLog([["a"]], name=f"{slot}-{i}")
                logs.append(log)
                handle = pool.handle_for(log, other, (), BoundKind.TIGHT)
                keys[slot].append(handle.key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=mint, args=(slot,))
                for slot in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        minted = [key for slot_keys in keys for key in slot_keys]
        assert len(minted) == threads_n * per_thread
        assert len(set(minted)) == len(minted)


class TestModelCache:
    def test_cache_hit_never_reads_the_payload(self):
        task = generate_random_pair(num_events=4, num_traces=10, seed=5)
        patterns = tuple(
            build_pattern_set(task.log_1, complex_patterns=task.patterns)
        )
        pool = WarmPool(1)
        try:
            handle = pool.handle_for(
                task.log_1, task.log_2, patterns, BoundKind.TIGHT
            )
        finally:
            pool.close()
        try:
            model, hit = materialize_model(handle)
            assert not hit
            cached, hit = materialize_model(ModelHandle(handle.key, b"garbage"))
            assert hit and cached is model
        finally:
            _MODEL_CACHE.pop(handle.key)
