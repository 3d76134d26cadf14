"""Per-tenant fair queuing: weighted shares, caps, and no starvation.

Scheduler units run against an inline dispatcher (no sockets); the
flood-vs-trickle suite runs end to end over the TCP listener and
pins the satellite guarantee: a tenant staying under its share is never
shed and sees bounded latency while another tenant floods, and every
shed reply carries a ``retry_after`` hint.
"""

import threading
import time

import pytest

from repro.errors import ServerOverloadedError
from repro.rpc import RPCClient, RPCServer, pack, unpack
from repro.rpc.envelope import (
    DEFAULT_TENANT,
    parse_error,
    parse_request,
    peek_error,
    with_ctx,
)
from repro.rpc.fairshare import MAX_TENANTS, FairScheduler
from repro.rpc.mux import AsyncServerTransport


def req(msgid, method="m", params=None, ctx=None):
    frame = [0, msgid, method, params or []]
    if ctx is not None:
        frame.append(ctx)
    return pack(frame)


# ---------------------------------------------------------------------------
# Frame classification and tenant injection
# ---------------------------------------------------------------------------


class TestSniffRequest:
    def test_classic_frame_is_default_tenant(self):
        info = parse_request(req(3))
        assert (info.kind, info.msgid, info.tenant) == (0, 3, DEFAULT_TENANT)

    def test_tenant_ctx_extracted(self):
        info = parse_request(req(4, ctx={"tenant": "gold", "deadline": 1.0}))
        assert (info.msgid, info.tenant) == (4, "gold")

    def test_malformed_and_foreign_frames_tolerated(self):
        for payload in (b"", b"\xc1garbage", pack("hi"), pack([2, "m", []])):
            info = parse_request(payload)
            assert info.tenant == DEFAULT_TENANT
            assert info.msgid is None

    def test_non_string_tenant_ignored(self):
        info = parse_request(req(5, ctx={"tenant": 42}))
        assert info.tenant == DEFAULT_TENANT


class TestInjectTenant:
    def test_adds_ctx_map(self):
        out = unpack(with_ctx(req(1, "m", [7]), tenant="gold"))
        assert out == [0, 1, "m", [7], {"tenant": "gold"}]

    def test_merges_with_existing_ctx(self):
        out = unpack(with_ctx(req(1, ctx={"deadline": 2.0}), tenant="gold"))
        assert out[4] == {"deadline": 2.0, "tenant": "gold"}

    def test_non_request_passes_through(self):
        notify = pack([2, "m", []])
        assert with_ctx(notify, tenant="gold") == notify


# ---------------------------------------------------------------------------
# Scheduler units (inline dispatcher, no sockets)
# ---------------------------------------------------------------------------


def gather_responses():
    responses = []
    lock = threading.Lock()

    def respond(payload):
        with lock:
            responses.append(payload)

    return responses, respond


class TestFairSchedulerUnits:
    def test_weighted_share_under_contention(self):
        served_by = {"gold": 0, "bronze": 0}
        gate = threading.Event()

        def dispatcher(info):
            gate.wait(timeout=10.0)
            served_by[info.tenant] += 1
            time.sleep(0.001)
            return pack([1, info.msgid, None, None])

        sched = FairScheduler(dispatcher, workers=1, weights={"gold": 3.0})
        responses, respond = gather_responses()
        # Backlog both tenants before any service happens.
        for i in range(40):
            sched.submit(req(i + 1, ctx={"tenant": "gold"}), respond)
            sched.submit(req(i + 101, ctx={"tenant": "bronze"}), respond)
        sched.start()
        gate.set()
        deadline = time.monotonic() + 10.0
        while sum(served_by.values()) < 40 and time.monotonic() < deadline:
            time.sleep(0.01)
        gold, bronze = served_by["gold"], served_by["bronze"]
        assert gold + bronze >= 40
        # Weight 3 vs 1: gold should get about 3x the service.  The
        # window is wide to stay robust on slow CI.
        assert gold >= 2 * bronze, (gold, bronze)
        sched.stop(timeout=5.0, finish=False)

    def test_every_backlogged_tenant_advances(self):
        served = set()

        def dispatcher(info):
            served.add(info.tenant)
            return pack([1, info.msgid, None, None])

        sched = FairScheduler(dispatcher, workers=2,
                              weights={"big": 1000.0})
        responses, respond = gather_responses()
        for i in range(50):
            sched.submit(req(i + 1, ctx={"tenant": "big"}), respond)
        sched.submit(req(999, ctx={"tenant": "tiny"}), respond)
        sched.start()
        deadline = time.monotonic() + 10.0
        while len(responses) < 51 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(responses) == 51
        # Even a weight-1 tenant against weight-1000 gets served.
        assert served == {"big", "tiny"}
        sched.stop(timeout=5.0)

    def test_pending_cap_sheds_with_retry_after(self):
        release = threading.Event()

        def dispatcher(info):
            release.wait(timeout=10.0)
            return pack([1, info.msgid, None, "ok"])

        sched = FairScheduler(dispatcher, workers=1, max_tenant_pending=2,
                              retry_after=0.123)
        responses, respond = gather_responses()
        sched.start()
        for i in range(6):
            sched.submit(req(i + 1, ctx={"tenant": "flood"}), respond)
        # Shed replies arrive synchronously, before any dispatch ran.
        sheds = [r for r in responses if b"ServerOverloadedError" in r]
        assert len(sheds) >= 3
        for raw in sheds:
            cls, retry_after = parse_error(peek_error(raw))
            assert cls is ServerOverloadedError
            assert retry_after == pytest.approx(0.123)
        # ... and they are the gate's one overload ledger.
        assert sched.info()["shed"] == len(sheds)
        assert sched.admission_info()["shed"] == len(sheds)
        release.set()
        deadline = time.monotonic() + 10.0
        while len(responses) < 6 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(responses) == 6
        sched.stop(timeout=5.0)

    def test_tenant_inflight_cap_queues_not_sheds(self):
        running = []
        release = threading.Event()
        lock = threading.Lock()

        def dispatcher(info):
            with lock:
                running.append(info.tenant)
            release.wait(timeout=10.0)
            return pack([1, info.msgid, None, None])

        sched = FairScheduler(dispatcher, workers=4, max_tenant_inflight=1)
        responses, respond = gather_responses()
        sched.start()
        for i in range(4):
            sched.submit(req(i + 1, ctx={"tenant": "capped"}), respond)
        time.sleep(0.2)
        with lock:
            assert running == ["capped"]  # cap holds: one inflight
        assert sched.pending == 3       # the rest queued, not shed
        release.set()
        deadline = time.monotonic() + 10.0
        while len(responses) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(responses) == 4
        assert sched.info()["shed"] == 0
        sched.stop(timeout=5.0)

    def test_dispatcher_exception_becomes_error_reply(self):
        def dispatcher(payload):
            raise RuntimeError("kaboom")

        sched = FairScheduler(dispatcher, workers=1)
        responses, respond = gather_responses()
        sched.start()
        sched.submit(req(7), respond)
        deadline = time.monotonic() + 5.0
        while not responses and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(responses) == 1
        decoded = unpack(responses[0])
        assert decoded[1] == 7
        assert "RuntimeError" in decoded[2]
        assert sched.quiescent()
        sched.stop(timeout=5.0)

    def test_tenant_table_is_bounded(self):
        """Tenant names come off the wire: 10 000 of them must not grow
        the table the picker walks, and ``health`` must still answer."""
        server = RPCServer({"ping": lambda: "pong"})
        sched = FairScheduler(server.handle, workers=2,
                              weights={"gold": 3.0})
        server.bind("health", sched.info)
        listener = server.serve_tcp(scheduler=sched)
        try:
            done = threading.Semaphore(0)
            sched.submit(req(0, "ping", ctx={"tenant": "gold"}),
                         lambda _: done.release())
            for i in range(10_000):
                sched.submit(req(i + 1, "ping", ctx={"tenant": f"t{i}"}),
                             lambda _: done.release())
                if i % 1000 == 0:
                    assert len(sched.info()["tenants"]) <= MAX_TENANTS
            for _ in range(10_001):
                assert done.acquire(timeout=10.0)
            client = RPCClient.connect_tcp(listener.host, listener.port)
            health = client.call("health")
            client.close()
            assert health["served"] >= 10_001
            assert len(health["tenants"]) <= MAX_TENANTS
            assert health["tenants"]["gold"]["weight"] == 3.0  # kept
        finally:
            listener.stop()

    def test_full_table_of_busy_tenants_shares_the_default_queue(self):
        gate = threading.Event()

        def dispatcher(info):
            gate.wait(timeout=10.0)
            return pack([1, info.msgid, None, "ok"])

        sched = FairScheduler(dispatcher, workers=1)
        responses, respond = gather_responses()
        sched.start()
        for i in range(MAX_TENANTS + 50):  # every tenant keeps a backlog
            sched.submit(req(i, ctx={"tenant": f"busy{i}"}), respond)
        tenants = sched.info()["tenants"]
        assert len(tenants) == MAX_TENANTS + 1
        assert tenants[DEFAULT_TENANT]["pending"] == 50
        gate.set()
        deadline = time.monotonic() + 10.0
        while len(responses) < MAX_TENANTS + 50 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(responses) == MAX_TENANTS + 50  # nobody was dropped
        sched.stop(timeout=5.0)


# ---------------------------------------------------------------------------
# End to end: flood vs trickle over the TCP listener
# ---------------------------------------------------------------------------


class TestFloodVsTrickle:
    def test_trickle_tenant_never_starves_never_shed(self):
        server = RPCServer(
            {"work": lambda ms: (time.sleep(ms / 1000.0), "done")[1]},
        )
        sched = FairScheduler(server.handle, workers=2,
                              weights={"trickle": 1.0, "flood": 1.0},
                              max_tenant_pending=16)
        listener = AsyncServerTransport(server.handle, scheduler=sched).start()
        try:
            flood = RPCClient.connect_tcp(listener.host, listener.port,
                                          timeout=30.0, tenant="flood")
            trickle = RPCClient.connect_tcp(listener.host, listener.port,
                                            timeout=30.0, tenant="trickle")
            # Flood: 200 pipelined 5 ms requests — far over its share.
            flooding = [flood.call_async("work", 5) for _ in range(200)]

            # Trickle: sequential requests, staying way under its share.
            latencies = []
            for _ in range(10):
                t0 = time.monotonic()
                assert trickle.call("work", 5) == "done"
                latencies.append(time.monotonic() - t0)
                time.sleep(0.01)

            flood_ok = flood_shed = 0
            retry_hints = []
            for p in flooding:
                try:
                    p.result(timeout=30.0)
                    flood_ok += 1
                except ServerOverloadedError as exc:
                    flood_shed += 1
                    retry_hints.append(exc.retry_after)

            info = sched.info()["tenants"]
            # The satellite guarantee: the under-share tenant is never
            # shed and its worst-case latency stays bounded while the
            # flood rages (queue depth 16 * 5 ms / 2 workers plus
            # scheduling noise — nowhere near the flood's backlog).
            assert info["trickle"]["shed"] == 0
            assert max(latencies) < 1.0
            # The flood paid for its own flood, with usable hints.
            assert flood_shed > 0
            assert all(hint is not None and hint > 0 for hint in retry_hints)
            assert flood_ok + flood_shed == 200
            flood.close()
            trickle.close()
        finally:
            listener.stop()


# ---------------------------------------------------------------------------
# A shed must reach the client's retry loop, whatever its size
# ---------------------------------------------------------------------------


class TestShedReachesTheRetryLoop:
    """``ResilientTransport`` used to ignore any reply over 512 bytes, and
    tenant names came off the wire unbounded: a shed naming a 600-character
    tenant counted as a *successful* exchange (no backoff, no ``overloads``
    count, a success on the breaker) and failed later, unretried."""

    def test_long_tenant_shed_is_retried_and_counted(self):
        import queue

        from repro.rpc import CircuitBreaker, ResilientTransport, RetryPolicy
        from repro.rpc.envelope import MAX_TENANT_LEN
        from repro.rpc.transport import Transport
        from repro.obs.metrics import Tally

        gate = threading.Event()
        server = RPCServer({"work": lambda: gate.wait(timeout=10.0) and "done"})
        sched = FairScheduler(server.handle, workers=1,
                              max_tenant_pending=1).start()

        class ViaScheduler(Transport):
            def __init__(self):
                self.replies = []

            def request(self, payload):
                box = queue.Queue()
                sched.submit(payload, box.put)
                self.replies.append(box.get(timeout=10.0))
                return self.replies[-1]

        def backoff(_delay):  # the client waits; the backlog drains
            gate.set()
            deadline = time.monotonic() + 10.0
            while not sched.quiescent() and time.monotonic() < deadline:
                time.sleep(0.005)

        tenant = "t" * 600
        try:
            _, respond = gather_responses()
            sched.submit(req(1, "work", ctx={"tenant": tenant}), respond)
            deadline = time.monotonic() + 5.0
            while sched.inflight < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            sched.submit(req(2, "work", ctx={"tenant": tenant}), respond)

            wire, stats = ViaScheduler(), Tally()
            breaker = CircuitBreaker(failure_threshold=1)
            transport = ResilientTransport(
                wire, retry=RetryPolicy(max_attempts=3, deadline=None),
                breaker=breaker, sleep=backoff, stats=stats)
            reply = transport.request(req(3, "work", ctx={"tenant": tenant}))
            assert unpack(reply) == [1, 3, None, "done"]
            assert stats.get("overloads") == 1
            assert stats.get("retries") == 1
            assert stats.get("successes") == 1
            assert breaker.failures == 0  # a live server asking for backoff
            # The over-long name never became a table key or a shed line.
            assert list(sched.info()["tenants"]) == [DEFAULT_TENANT]
            assert len(wire.replies[0]) < 200 + MAX_TENANT_LEN
        finally:
            gate.set()
            sched.stop(timeout=5.0)

    def test_a_shed_line_of_any_length_is_seen(self):
        from repro.rpc import InProcessTransport, ResilientTransport, RetryPolicy
        from repro.obs.metrics import Tally

        shed = pack([1, 7, "ServerOverloadedError: tenant '" + "t" * 600 + "' "
                     "over fair-share capacity (pending=16/16); "
                     "retry_after=0.05", None])
        replies = [shed, pack([1, 7, None, "done"])]
        slept, stats = [], Tally()
        transport = ResilientTransport(
            InProcessTransport(lambda _: replies.pop(0)),
            retry=RetryPolicy(max_attempts=2, deadline=None, jitter=0.0),
            sleep=slept.append, stats=stats)
        assert unpack(transport.request(req(7))) == [1, 7, None, "done"]
        assert stats.get("overloads") == 1
        assert slept and slept[0] >= 0.05  # the hint floors the backoff
