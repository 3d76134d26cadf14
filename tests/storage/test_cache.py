"""Unit tests for the storage-side single-flight LRU caches."""

import threading

import pytest

from repro.errors import ReproError
from repro.storage import ArrayCache, SelectionCache, SingleFlightCache


class TestBasics:
    def test_miss_then_hit(self):
        calls = []
        cache = SingleFlightCache(1024)
        v1 = cache.get_or_load("k", lambda: calls.append(1) or b"abc")
        v2 = cache.get_or_load("k", lambda: calls.append(2) or b"xyz")
        assert v1 == v2 == b"abc"
        assert calls == [1]
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "evictions": 0, "coalesced": 0,
        }

    def test_distinct_keys_load_separately(self):
        cache = SingleFlightCache(1024)
        assert cache.get_or_load("a", lambda: b"1") == b"1"
        assert cache.get_or_load("b", lambda: b"2") == b"2"
        assert len(cache) == 2

    def test_invalid_budget(self):
        with pytest.raises(ReproError, match="budget"):
            SingleFlightCache(0)

    def test_invalidate_and_clear(self):
        cache = SingleFlightCache(1024)
        cache.get_or_load("k", lambda: b"abc")
        assert cache.invalidate("k")
        assert not cache.invalidate("k")
        cache.get_or_load("k", lambda: b"abc")
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0

    def test_peek_does_not_count_a_hit(self):
        cache = SingleFlightCache(1024)
        cache.get_or_load("k", lambda: b"abc")
        assert cache.peek("k") == b"abc"
        assert cache.peek("missing") is None
        assert cache.stats.get("hits") == 0

    def test_info_shape(self):
        cache = SingleFlightCache(1024, name="c")
        cache.get_or_load("k", lambda: b"abcd")
        info = cache.info()
        assert info["enabled"] is True
        assert info["entries"] == 1
        assert info["current_bytes"] == 4
        assert info["max_bytes"] == 1024
        assert info["misses"] == 1


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache = SingleFlightCache(10)
        cache.get_or_load("a", lambda: b"xxxx")  # 4 bytes
        cache.get_or_load("b", lambda: b"yyyy")  # 4 bytes
        cache.get_or_load("a", lambda: b"?")     # touch a: b is now LRU
        cache.get_or_load("c", lambda: b"zzzz")  # 12 > 10: evict b
        assert cache.peek("a") is not None
        assert cache.peek("b") is None
        assert cache.peek("c") is not None
        assert cache.stats.get("evictions") == 1
        assert cache.current_bytes == 8

    def test_oversize_value_is_not_cached(self):
        cache = SingleFlightCache(4)
        cache.get_or_load("big", lambda: b"12345678")
        assert cache.peek("big") is None
        assert cache.current_bytes == 0
        # ...but it is still returned to the caller, and recomputed next time.
        calls = []
        cache.get_or_load("big2", lambda: calls.append(1) or b"12345678")
        cache.get_or_load("big2", lambda: calls.append(2) or b"12345678")
        assert calls == [1, 2]

    def test_byte_budget_respected(self):
        cache = SingleFlightCache(100)
        for i in range(50):
            cache.get_or_load(i, lambda: b"0123456789")
        assert cache.current_bytes <= 100
        assert len(cache) == 10


class TestSingleFlight:
    def test_concurrent_identical_loads_coalesce(self):
        """N threads missing on one key run the loader exactly once."""
        cache = SingleFlightCache(1 << 20)
        n = 6
        gate = threading.Event()
        in_loader = threading.Event()
        calls = []

        def loader():
            calls.append(threading.get_ident())
            in_loader.set()
            gate.wait(5.0)  # hold the flight open until followers queue up
            return b"value"

        results = []
        errors = []

        def worker():
            try:
                results.append(cache.get_or_load("k", loader))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        leader = threading.Thread(target=worker)
        leader.start()
        assert in_loader.wait(5.0)
        followers = [threading.Thread(target=worker) for _ in range(n - 1)]
        for t in followers:
            t.start()
        # Followers must register as coalesced waiters before release.
        deadline = threading.Event()
        for _ in range(100):
            if cache.stats.get("coalesced") == n - 1:
                break
            deadline.wait(0.02)
        gate.set()
        leader.join(5.0)
        for t in followers:
            t.join(5.0)

        assert not errors
        assert results == [b"value"] * n
        assert len(calls) == 1
        stats = cache.stats.as_dict()
        assert stats["misses"] == 1
        assert stats["coalesced"] == n - 1

    def test_loader_error_propagates_to_all_waiters_and_is_not_cached(self):
        cache = SingleFlightCache(1 << 20)
        gate = threading.Event()
        in_loader = threading.Event()

        def failing_loader():
            in_loader.set()
            gate.wait(5.0)
            raise ValueError("boom")

        caught = []

        def worker():
            try:
                cache.get_or_load("k", failing_loader)
            except ValueError as exc:
                caught.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        threads[0].start()
        assert in_loader.wait(5.0)
        for t in threads[1:]:
            t.start()
        for _ in range(100):
            if cache.stats.get("coalesced") == 2:
                break
            threading.Event().wait(0.02)
        gate.set()
        for t in threads:
            t.join(5.0)

        assert caught == ["boom"] * 3
        assert cache.peek("k") is None
        # The key is loadable again after the failed flight.
        assert cache.get_or_load("k", lambda: b"ok") == b"ok"


class TestSpecializedCaches:
    def test_array_cache_sizes_by_raw_bytes(self):
        class Entry:
            raw_bytes = 4096

        cache = ArrayCache(10_000)
        cache.get_or_load("k", lambda: ("grid", Entry()))
        assert cache.current_bytes == 4096

    def test_selection_cache_sizes_reply_dicts(self):
        cache = SelectionCache(10_000)
        cache.get_or_load("k", lambda: {"payload": b"x" * 100, "count": 7})
        assert cache.current_bytes >= 100


class TestCacheStats:
    def test_unknown_event_rejected(self):
        stats = SingleFlightCache(100).stats
        with pytest.raises(ReproError, match="unknown count 'nope'"):
            stats.record("nope")

    def test_get_unknown_event_rejected(self):
        # get() used to silently return 0 for a typo'd event name while
        # record() raised; both directions now share the same contract.
        stats = SingleFlightCache(100).stats
        with pytest.raises(ReproError, match="unknown count 'hit'"):
            stats.get("hit")  # singular typo for "hits"
        assert stats.get("hits") == 0

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            SingleFlightCache(100).stats.record("hits", -1)

    def test_hit_rate(self):
        cache = SingleFlightCache(100)
        assert cache.hit_rate == 0.0
        cache.stats.record("misses")
        cache.stats.record("hits", 2)
        cache.stats.record("coalesced")
        assert cache.hit_rate == pytest.approx(3 / 4)
