"""The byte-counting and resilience-counting contracts, held by the one
bag (:class:`repro.obs.metrics.Tally`) and by ``FallbackPolicy``."""

import pytest

from repro.core import FallbackPolicy
from repro.errors import ReproError
from repro.obs.metrics import Tally


class TestByteCounter:
    def test_accumulates_by_category(self):
        c = Tally()
        c.record("net", 100)
        c.record("net", 50)
        c.record("ssd", 10)
        assert c.get("net") == 150
        assert c.as_dict() == {"net": 150, "ssd": 10}

    def test_missing_category_zero(self):
        assert Tally().get("x") == 0

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            Tally().record("net", -1)

    def test_thread_safety_under_concurrent_adds(self):
        # An unlocked get+assign loses increments when several worker
        # threads record bytes concurrently.
        import threading

        c = Tally()

        def hammer():
            for _ in range(1000):
                c.record("net", 1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.as_dict() == {"net": 8000}


class TestResilienceStats:
    def test_records_and_reads_events(self):
        s = Tally()
        s.record("retries")
        s.record("retries")
        s.record("fallback_bytes", 4096)
        assert s.get("retries") == 2
        assert s.get("fallback_bytes") == 4096
        assert s.get("unknown") == 0
        assert s.as_dict() == {"retries": 2, "fallback_bytes": 4096}
        assert "retries=2" in repr(s)

    def test_negative_count_rejected(self):
        with pytest.raises(ReproError):
            Tally().record("retries", -1)

    def test_fallback_rate(self):
        policy = FallbackPolicy(fs=None)
        assert policy.fallback_rate == 0.0  # no traffic yet
        policy.stats.record("ndp_successes", 3)
        policy.stats.record("fallbacks", 1)
        assert policy.fallback_rate == pytest.approx(0.25)

    def test_thread_safety_under_concurrent_records(self):
        import threading

        s = Tally()

        def hammer():
            for _ in range(1000):
                s.record("attempts")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert s.get("attempts") == 8000
