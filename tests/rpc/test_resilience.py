"""Resilient-transport tests: every retry/backoff/breaker/fallback branch.

All timing is driven by :class:`tests.faults.FakeClock` — an autouse
fixture asserts ``time.sleep`` is never called, so the whole module runs
in milliseconds regardless of the backoff/deadline values under test.
"""

import random
import time

import numpy as np
import pytest

from repro.core import FallbackPolicy, NDPServer, ndp_contour
from repro.errors import (
    CircuitOpenError,
    RPCError,
    RPCTimeoutError,
    RPCTransportError,
)
from repro.filters.contour import contour_grid
from repro.io import write_vgf
from repro.rpc import CircuitBreaker, InProcessTransport, ResilientTransport, RetryPolicy, RPCClient
from repro.obs.metrics import Tally
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid
from tests.faults import (
    Delay,
    Drop,
    FakeClock,
    FaultSchedule,
    FaultyTransport,
    Ok,
    drops,
)


@pytest.fixture(autouse=True)
def no_real_sleeps(monkeypatch):
    def _forbidden(seconds):
        raise AssertionError(f"real time.sleep({seconds}) during a resilience test")

    monkeypatch.setattr(time, "sleep", _forbidden)


@pytest.fixture
def env():
    grid = make_sphere_grid(10)
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    fs.write_object("g.vgf", write_vgf(grid, codec="gzip"))
    return grid, store, fs, NDPServer(fs)


def build_client(
    server,
    schedule,
    clock,
    retry=None,
    breaker=None,
    stats=None,
    seed=7,
):
    faulty = FaultyTransport(InProcessTransport(server.dispatch), schedule, clock)
    resilient = ResilientTransport(
        faulty,
        retry=retry if retry is not None else RetryPolicy(jitter=0.0),
        breaker=breaker,
        clock=clock,
        sleep=clock.sleep,
        rng=random.Random(seed),
        stats=stats,
    )
    return RPCClient(resilient), faulty, resilient


def assert_same_geometry(a, b):
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.polys.connectivity, b.polys.connectivity)
    assert np.array_equal(a.lines.connectivity, b.lines.connectivity)
    assert a.point_data.get("contour_value") == b.point_data.get("contour_value")


# ---------------------------------------------------------------------------
# Retry + backoff
# ---------------------------------------------------------------------------


class TestRetry:
    def test_two_drops_then_success_completes_without_fallback(self, env):
        """Acceptance: '2 transport drops then success' rides the retries."""
        grid, _, fs, server = env
        clock = FakeClock()
        stats = Tally()
        client, faulty, _ = build_client(
            server, FaultSchedule(drops(2)), clock,
            retry=RetryPolicy(max_attempts=4, jitter=0.0), stats=stats,
        )
        fallback = FallbackPolicy(fs, stats=stats)

        pd, st = ndp_contour(client, "g.vgf", "r", [3.0], fallback=fallback)

        assert_same_geometry(pd, contour_grid(grid, "r", [3.0]))
        assert st["path"] == "ndp"
        assert faulty.attempts == 3  # 2 drops + 1 success, all through the wire
        assert stats.get("retries") == 2
        assert stats.get("fallbacks") == 0
        assert stats.get("ndp_successes") == 1
        assert len(clock.sleeps) == 2  # backoffs were injected, not real

    def test_retries_exhausted_reraises_last_transport_error(self, env):
        _, _, _, server = env
        clock = FakeClock()
        client, faulty, _ = build_client(
            server, FaultSchedule.permanently_down("gone"), clock,
            retry=RetryPolicy(max_attempts=3, jitter=0.0),
        )
        with pytest.raises(RPCTransportError, match="gone"):
            client.call("list_objects", "")
        assert faulty.attempts == 3

    def test_backoff_progression_exponential_and_capped(self, env):
        _, _, _, server = env
        clock = FakeClock()
        client, _, _ = build_client(
            server,
            FaultSchedule(drops(4)),
            clock,
            retry=RetryPolicy(
                max_attempts=5, base_delay=0.1, multiplier=2.0,
                max_delay=0.5, jitter=0.0, deadline=None,
            ),
        )
        client.call("list_objects", "")
        assert clock.sleeps == [0.1, 0.2, 0.4, 0.5]  # capped at max_delay

    def test_jitter_is_seed_deterministic_and_bounded(self, env):
        _, _, _, server = env
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.2, multiplier=2.0,
            max_delay=10.0, jitter=0.5, deadline=None,
        )
        runs = []
        for _ in range(2):
            clock = FakeClock()
            client, _, _ = build_client(
                server, FaultSchedule(drops(3)), clock, retry=policy, seed=123,
            )
            client.call("list_objects", "")
            runs.append(clock.sleeps)
        assert runs[0] == runs[1]  # same seed, same schedule
        for i, slept in enumerate(runs[0]):
            full = 0.2 * 2.0**i
            assert full * 0.5 <= slept <= full

    def test_non_transport_errors_are_not_retried(self, env):
        """Remote handler failures are deterministic: one attempt only."""
        _, _, _, server = env
        clock = FakeClock()
        client, faulty, _ = build_client(server, FaultSchedule(), clock)
        from repro.errors import RPCRemoteError

        with pytest.raises(RPCRemoteError):
            client.call("prefilter_contour", "missing.vgf", "r", [1.0])
        assert faulty.attempts == 1
        assert clock.sleeps == []


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_retry_budget_exhaustion_is_timeout(self, env):
        """When the next backoff would overshoot the deadline, stop early."""
        _, _, _, server = env
        clock = FakeClock()
        client, faulty, _ = build_client(
            server,
            FaultSchedule.permanently_down(),
            clock,
            retry=RetryPolicy(
                max_attempts=10, base_delay=0.4, multiplier=2.0,
                max_delay=10.0, jitter=0.0, deadline=1.0,
            ),
        )
        with pytest.raises(RPCTimeoutError, match="deadline"):
            client.call("list_objects", "")
        # attempt(0) -> sleep 0.4, attempt(1) -> sleep 0.8 would pass 1.0s
        assert faulty.attempts == 2
        assert clock.sleeps == [0.4]

    def test_late_response_is_timeout(self, env):
        """A reply that arrives past the deadline is discarded as timed out."""
        _, _, _, server = env
        clock = FakeClock()
        client, faulty, _ = build_client(
            server,
            FaultSchedule([Delay(5.0, then=Ok())]),
            clock,
            retry=RetryPolicy(max_attempts=3, jitter=0.0, deadline=1.0),
        )
        with pytest.raises(RPCTimeoutError, match="arrived after"):
            client.call("list_objects", "")
        assert faulty.attempts == 1

    def test_timeout_triggers_fallback(self, env):
        grid, _, fs, server = env
        clock = FakeClock()
        stats = Tally()
        client, _, _ = build_client(
            server,
            FaultSchedule([Delay(5.0)]),
            clock,
            retry=RetryPolicy(max_attempts=2, jitter=0.0, deadline=1.0),
            stats=stats,
        )
        fallback = FallbackPolicy(fs, stats=stats)
        pd, st = ndp_contour(client, "g.vgf", "r", [3.0], fallback=fallback)
        assert st["path"] == "fallback"
        assert "RPCTimeoutError" in st["fallback_reason"]
        assert_same_geometry(pd, contour_grid(grid, "r", [3.0]))


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_and_rejects_locally(self, env):
        _, _, _, server = env
        clock = FakeClock()
        stats = Tally()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=30.0, clock=clock)
        client, faulty, _ = build_client(
            server,
            FaultSchedule.permanently_down(),
            clock,
            retry=RetryPolicy(max_attempts=5, jitter=0.0, deadline=None),
            breaker=breaker,
            stats=stats,
        )
        with pytest.raises(CircuitOpenError, match="3 consecutive failures"):
            client.call("list_objects", "")
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        assert stats.get("breaker_trips") == 1
        # Only the 3 tripping attempts touched the wire; attempts 4-5 were
        # rejected locally.
        assert faulty.attempts == 3

        # While open, requests never reach the transport at all.
        with pytest.raises(CircuitOpenError):
            client.call("list_objects", "")
        assert faulty.attempts == 3
        assert stats.get("breaker_rejections") == 2

    def test_half_open_probe_success_closes(self, env):
        _, _, _, server = env
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0, clock=clock)
        schedule = FaultSchedule(drops(2))  # heals after the trip
        client, faulty, _ = build_client(
            server, schedule, clock,
            retry=RetryPolicy(max_attempts=2, jitter=0.0), breaker=breaker,
        )
        with pytest.raises((RPCTransportError, CircuitOpenError)):
            client.call("list_objects", "")
        assert breaker.state == CircuitBreaker.OPEN

        clock.advance(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert client.call("list_objects", "") == ["g.vgf"]
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.failures == 0

    def test_half_open_probe_failure_reopens(self, env):
        _, _, _, server = env
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0, clock=clock)
        client, faulty, _ = build_client(
            server,
            FaultSchedule(drops(3)),  # the half-open probe also fails
            clock,
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
            breaker=breaker,
        )
        with pytest.raises((RPCTransportError, CircuitOpenError)):
            client.call("list_objects", "")
        assert breaker.trips == 1

        clock.advance(10.0)
        with pytest.raises(CircuitOpenError):
            client.call("list_objects", "")
        assert breaker.trips == 2
        assert breaker.state == CircuitBreaker.OPEN
        # The backoff sleep after the probe failure already consumed a bit
        # of the fresh reset window.
        assert 0.0 < breaker.retry_after() <= 10.0

    def test_retry_after_counts_down_on_injected_clock(self, env):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=8.0, clock=clock)
        breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(8.0)
        clock.advance(3.0)
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(5.0)
        assert breaker.retry_after() is None  # half-open now


# ---------------------------------------------------------------------------
# Fallback
# ---------------------------------------------------------------------------


class TestFallback:
    def test_server_permanently_down_falls_back_with_identical_geometry(self, env):
        """Acceptance: breaker trips, baseline s3fs read serves the contour."""
        grid, _, fs, server = env
        clock = FakeClock()
        stats = Tally()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60.0, clock=clock)
        client, faulty, _ = build_client(
            server,
            FaultSchedule.permanently_down(),
            clock,
            retry=RetryPolicy(max_attempts=5, jitter=0.0, deadline=None),
            breaker=breaker,
            stats=stats,
        )
        fallback = FallbackPolicy(fs, stats=stats)

        values = [2.0, 4.0]
        pd, st = ndp_contour(client, "g.vgf", "r", values, fallback=fallback)

        assert_same_geometry(pd, contour_grid(grid, "r", values))
        assert st["path"] == "fallback"
        assert breaker.state == CircuitBreaker.OPEN
        assert stats.get("fallbacks") == 1
        assert stats.get("fallback_bytes") == st["stored_bytes"] > 0
        assert fallback.fallback_rate == 1.0
        assert clock.sleeps  # retried with injected backoff first

        # Subsequent calls short-circuit on the open breaker: no new wire
        # attempts, still correct geometry.
        wire_attempts = faulty.attempts
        pd2, st2 = ndp_contour(client, "g.vgf", "r", values, fallback=fallback)
        assert_same_geometry(pd2, pd)
        assert st2["path"] == "fallback"
        assert "CircuitOpenError" in st2["fallback_reason"]
        assert faulty.attempts == wire_attempts

    def test_fallback_supports_roi(self, env):
        grid, _, fs, server = env
        from repro.grid.bounds import Bounds

        clock = FakeClock()
        client, _, _ = build_client(
            server, FaultSchedule.permanently_down(), clock,
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
        )
        roi = Bounds(2.0, 8.0, 2.0, 8.0, 2.0, 8.0)
        pd, st = ndp_contour(
            client, "g.vgf", "r", [3.0], roi=roi, fallback=FallbackPolicy(fs)
        )
        assert st["path"] == "fallback"
        assert_same_geometry(pd, contour_grid(grid, "r", [3.0], roi=roi))

    def test_remote_errors_do_not_fall_back(self, env):
        """Deterministic remote failures must surface, not be masked."""
        _, _, fs, server = env
        from repro.errors import RPCRemoteError

        clock = FakeClock()
        stats = Tally()
        client, _, _ = build_client(server, FaultSchedule(), clock, stats=stats)
        with pytest.raises(RPCRemoteError):
            ndp_contour(
                client, "missing.vgf", "r", [3.0],
                fallback=FallbackPolicy(fs, stats=stats),
            )
        assert stats.get("fallbacks") == 0

    def test_no_fallback_policy_raises_as_before(self, env):
        _, _, _, server = env
        clock = FakeClock()
        client, _, _ = build_client(
            server, FaultSchedule.permanently_down(), clock,
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
        )
        with pytest.raises(RPCTransportError):
            ndp_contour(client, "g.vgf", "r", [3.0])


# ---------------------------------------------------------------------------
# Health endpoint + glue
# ---------------------------------------------------------------------------


class TestHealthAndStats:
    def test_health_endpoint_reports_ok_through_resilient_client(self, env):
        _, _, _, server = env
        clock = FakeClock()
        client, _, _ = build_client(server, FaultSchedule(drops(1)), clock)
        report = client.call("health")
        assert report["status"] == "ok"
        assert report["store_reachable"] is True
        assert report["requests_served"] >= 0

    def test_health_degraded_when_store_unreachable(self, env):
        _, store, fs, server = env

        class BrokenFS:
            def listdir(self, prefix=""):
                raise OSError("mount gone")

        server.fs = BrokenFS()
        client = RPCClient(InProcessTransport(server.dispatch))
        report = client.call("health")
        assert report["status"] == "degraded"
        assert report["store_reachable"] is False

    def test_stats_events_accumulate(self, env):
        _, _, _, server = env
        clock = FakeClock()
        stats = Tally()
        client, _, _ = build_client(
            server, FaultSchedule(drops(2)), clock,
            retry=RetryPolicy(max_attempts=4, jitter=0.0), stats=stats,
        )
        client.call("list_objects", "")
        events = stats.as_dict()
        assert events["attempts"] == 3
        assert events["failures"] == 2
        assert events["retries"] == 2
        assert events["successes"] == 1

    def test_invalid_policies_rejected(self):
        with pytest.raises(RPCError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(RPCError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(RPCError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(RPCError):
            CircuitBreaker(failure_threshold=0)
