"""Pool-level replication primitives: addresses, health, hedged calls.

Everything here is deterministic: hedge timing runs on a
:class:`~tests.faults.FakeClock` only where the arbitration loop allows
an injectable clock, and the racing attempts themselves are scripted
callables — no sockets, no real servers, except in the one late-reply
test that needs a real connection to leave a reply on.
"""

import threading
import time

import pytest

from repro.errors import (
    CircuitOpenError,
    ReproError,
    RPCTimeoutError,
    RPCTransportError,
    ServerOverloadedError,
)
from repro.obs.flightrec import FlightRecorder
from repro.rpc.pool import (
    HEDGE_CAP,
    HEDGE_FLOOR,
    EndpointPool,
    HedgedCall,
    parse_address,
)
from repro.rpc.resilience import CircuitBreaker, RetryPolicy
from repro.rpc.server import RPCServer
from repro.rpc.transport import InProcessTransport


# ---------------------------------------------------------------------------
# parse_address
# ---------------------------------------------------------------------------


class TestParseAddress:
    @pytest.mark.parametrize("addr,expect", [
        ("localhost:8080", ("localhost", 8080)),
        ("127.0.0.1:1", ("127.0.0.1", 1)),
        ("example.com:65535", ("example.com", 65535)),
        ("[::1]:9000", ("::1", 9000)),
        ("[fe80::2%eth0]:9000", ("fe80::2%eth0", 9000)),
        (("10.0.0.1", 9000), ("10.0.0.1", 9000)),
        (("10.0.0.1", "9000"), ("10.0.0.1", 9000)),
    ])
    def test_accepts(self, addr, expect):
        assert parse_address(addr) == expect

    @pytest.mark.parametrize("addr", [
        "host:007",          # leading-zero port: a typo, not an endpoint
        "host:", ":80",      # empty port / empty host
        "host", "",          # no separator at all
        "::1:9000",          # unbracketed IPv6 is ambiguous
        "[::1:9000",         # unclosed bracket
        "[::1]9000",         # bracket without :port
        "host:0",            # port 0 is "ephemeral", never a dial target
        "host:70000",        # above 65535
        "host:8a", "host:-1", "host:８０",  # non-decimal digits
        ("host",), ("host", 1, 2), ("host", "x"),
        None, 12,
    ])
    def test_rejects_with_typed_error(self, addr):
        with pytest.raises(ReproError):
            parse_address(addr)

    def test_error_message_names_the_address(self):
        with pytest.raises(ReproError, match="007"):
            parse_address("host:007")


# ---------------------------------------------------------------------------
# Pool health, ranking, close accounting
# ---------------------------------------------------------------------------


def _echo_pool(n=3, **kwargs):
    def dispatch(payload):
        return payload

    return EndpointPool(
        [InProcessTransport(dispatch) for _ in range(n)],
        resilient=False, **kwargs,
    )


class TestEndpointPool:
    def test_rank_is_stable_on_equal_health(self):
        pool = _echo_pool(3)
        assert pool.rank([2, 0, 1]) == [2, 0, 1]

    def test_rank_puts_open_breaker_last(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)
        pool = _echo_pool(3)
        pool.health(0).breaker = breaker
        breaker.record_failure()
        assert breaker.state == "open"
        assert pool.rank([0, 1, 2]) == [1, 2, 0]
        assert pool.endpoint_state(0) == "open"
        assert pool.endpoint_state(1) == "none"

    def test_rank_prefers_observed_faster_endpoint(self):
        pool = _echo_pool(2)
        for _ in range(8):
            pool.health(0).observe(0.5)
            pool.health(1).observe(0.01)
        assert pool.rank([0, 1]) == [1, 0]

    def test_hedge_delay_clamps_cold_and_hot(self):
        pool = _echo_pool(2)
        # Cold sketch: no observations -> the floor.
        assert pool.hedge_delay(0) == HEDGE_FLOOR == 0.005
        for _ in range(10):
            pool.health(1).observe(5.0)
        # Pathological latency is capped.
        assert pool.hedge_delay(1) == HEDGE_CAP == 1.0

    def test_call_feeds_health_counters(self):
        pool = _echo_pool(1)

        class Boom:
            def request(self, payload):
                raise RPCTransportError("injected")

            def close(self):
                pass

        pool._transports[0] = Boom()
        pool._clients[0]._transport = Boom()
        with pytest.raises(RPCTransportError):
            pool.call(0, "health")
        snap = pool.health(0).snapshot()
        assert snap["errors"] == 1

    def test_close_errors_are_counted_and_recorded(self):
        recorder = FlightRecorder(capacity=16)

        class BadClose:
            def __init__(self):
                self.closed = False

            def request(self, payload):
                return payload

            def close(self):
                raise OSError("fd already gone")

        good_closed = []

        class GoodClose(BadClose):
            def close(self):
                good_closed.append(True)

        pool = EndpointPool([BadClose(), GoodClose()], resilient=False,
                            recorder=recorder)
        pool.close()  # must not raise
        # The failure is evidence, not noise: counter + flight event,
        # and the healthy peer still got closed.
        assert pool.stats.as_dict()["close_errors"] == 1
        assert good_closed == [True]
        events = [e for e in recorder.snapshot()
                  if e["kind"] == "pool.close_error"]
        assert len(events) == 1
        assert "fd already gone" in events[0]["error"]
        assert events[0]["endpoint"] == 0

    def test_timed_out_call_leaves_the_endpoint_answering_correctly(self):
        """The slow call's late reply must not become the next call's
        answer (nor a msgid mismatch, which is no failover error)."""
        release, answered = threading.Event(), threading.Event()

        def slow():
            release.wait(timeout=5.0)
            answered.set()
            return "slow reply"

        listener = RPCServer({"slow": slow, "echo": lambda x: x}).serve_tcp()
        pool = EndpointPool.connect_tcp(
            [(listener.host, listener.port)], timeout=0.1,
            retry=RetryPolicy(max_attempts=1))
        try:
            with pytest.raises(RPCTimeoutError):
                pool.call(0, "slow")
            release.set()
            assert answered.wait(timeout=5.0)  # the late reply is on its way
            assert pool.call(0, "echo", "next") == "next"
        finally:
            release.set()
            pool.close()
            listener.stop()

    def test_info_carries_addresses_and_counters(self):
        pool = _echo_pool(2, addresses=["a:1", "b:2"])
        pool.health(1).record_hedge()
        info = pool.info()
        assert info[0]["address"] == "a:1"
        assert info[1]["hedges"] == 1
        assert {row["breaker"] for row in info} == {"none"}


# ---------------------------------------------------------------------------
# HedgedCall arbitration
# ---------------------------------------------------------------------------


def run_hedged(replicas, attempt, delay=0.005, **kwargs):
    call = HedgedCall(lambda e: delay, **kwargs)
    return call, call.run(replicas, attempt)


class TestHedgedCall:
    def test_primary_success_needs_no_hedge(self):
        calls = []

        def attempt(endpoint, cancel, kind):
            calls.append((endpoint, kind))
            return f"from-{endpoint}"

        _, result = run_hedged([0, 1, 2], attempt, delay=5.0)
        assert result.value == "from-0"
        assert result.winner == 0
        assert result.winner_kind == "primary"
        assert result.hedges == 0 and result.failovers == 0
        assert calls == [(0, "primary")]

    def test_error_fails_over_immediately(self):
        order = []

        def attempt(endpoint, cancel, kind):
            order.append((endpoint, kind))
            if endpoint == 0:
                raise RPCTransportError("injected down")
            return endpoint

        _, result = run_hedged([0, 1], attempt, delay=60.0)
        # A huge hedge delay must not slow the ladder down: errors
        # fail over without waiting out the timer.
        assert result.value == 1
        assert result.winner_kind == "failover"
        assert result.failovers == 1 and result.hedges == 0
        assert order == [(0, "primary"), (1, "failover")]
        assert [e for e, _ in result.errors] == [0]

    def test_shed_walks_the_whole_chain(self):
        def attempt(endpoint, cancel, kind):
            if endpoint < 2:
                raise ServerOverloadedError("injected shed", retry_after=0.1)
            return "served"

        _, result = run_hedged([0, 1, 2], attempt, delay=60.0)
        assert result.value == "served"
        assert result.failovers == 2

    def test_slow_primary_gets_hedged_and_loser_cancelled(self):
        release = threading.Event()
        cancelled = {}

        def attempt(endpoint, cancel, kind):
            if endpoint == 0:
                # Slow primary: wait until cancelled (or test failure).
                cancel.wait(timeout=5.0)
                cancelled[0] = cancel.is_set()
                return "late"
            return "fast"

        call, result = run_hedged([0, 1], attempt, delay=0.01)
        release.set()
        assert result.value == "fast"
        assert result.winner == 1
        assert result.winner_kind == "hedge"
        assert result.hedges == 1
        # The loser's cancel event fired, and its late result was
        # discarded; the ledger drains once it unwinds.
        assert call._ledger.wait_drained(timeout=5.0)
        assert cancelled.get(0) is True
        assert call.outstanding == 0

    def test_all_replicas_failed_raises_last_failover_error(self):
        def attempt(endpoint, cancel, kind):
            if endpoint == 2:
                raise CircuitOpenError("injected: breaker open")
            raise RPCTransportError(f"injected down {endpoint}")

        # A long hedge delay makes every launch failure-driven, so the
        # attempts run strictly in chain order and the *last* recorded
        # error is deterministically endpoint 2's (failover on hard
        # failure never waits out the hedge delay).
        call = HedgedCall(lambda e: 60.0)
        with pytest.raises(CircuitOpenError):
            call.run([0, 1, 2], attempt)
        assert call._ledger.wait_drained(timeout=5.0)

    def test_fatal_error_propagates_without_failover(self):
        attempts = []

        def attempt(endpoint, cancel, kind):
            attempts.append(endpoint)
            raise ValueError("remote handler bug: deterministic")

        call = HedgedCall(lambda e: 60.0)
        with pytest.raises(ValueError):
            call.run([0, 1, 2], attempt)
        # Deterministic errors must not walk the chain: every replica
        # would fail identically.
        assert attempts == [0]

    def test_empty_chain_is_a_typed_error(self):
        call = HedgedCall(lambda e: 0.0)
        with pytest.raises(ReproError):
            call.run([], lambda *a: None)

    def test_hedge_timing_respects_delay(self):
        started = {}

        def attempt(endpoint, cancel, kind):
            started[endpoint] = time.monotonic()
            if endpoint == 0:
                cancel.wait(timeout=5.0)
                return "late"
            return "fast"

        t0 = time.monotonic()
        call, result = run_hedged([0, 1], attempt, delay=0.05)
        assert result.winner == 1
        # The hedge launched no earlier than the delay (scheduling may
        # add slack on top, never take it away).
        assert started[1] - t0 >= 0.05
        assert call._ledger.wait_drained(timeout=5.0)

    def test_callbacks_fire_per_launch_kind(self):
        hedged, failed_over = [], []

        def attempt(endpoint, cancel, kind):
            if endpoint == 0:
                raise RPCTransportError("injected")
            if endpoint == 1:
                cancel.wait(timeout=5.0)
                return "slow"
            return "fast"

        call = HedgedCall(lambda e: 0.01, on_hedge=hedged.append,
                          on_failover=failed_over.append)
        result = call.run([0, 1, 2], attempt)
        assert result.value == "fast"
        assert failed_over == [1]   # endpoint 1 launched as failover
        assert hedged == [2]        # endpoint 2 hedged past slow 1
        assert call._ledger.wait_drained(timeout=5.0)

    def test_pool_hedged_factory_shares_ledger_and_stats(self):
        pool = _echo_pool(2)

        def attempt(endpoint, cancel, kind):
            if endpoint == 0:
                raise RPCTransportError("injected")
            return "ok"

        result = pool.hedged().run([0, 1], attempt)
        assert result.value == "ok"
        assert pool.stats.as_dict()["failovers"] == 1
        assert pool.health(1).snapshot()["failovers"] == 1
        assert pool.wait_drained(timeout=5.0)
        assert pool.outstanding == 0
