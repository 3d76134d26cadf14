"""The TCP listener and the pipelined client: pipelining, compat, drain, retry isolation.

Families:

* frame peeking / incremental framing units (``envelope.peek``,
  ``FrameBuffer``),
* pipelining over one connection — out-of-order completion rehydrated by
  correlation id, thread-shared transports, callers sharing a msgid, NOTIFY,
* wire compatibility — a classic blocking client gets, over the
  listener, byte-identical responses to in-process dispatch,
* lifecycle — graceful drain with requests in flight, connection caps,
* retry isolation — a resilient wrapper retrying over a shared
  socket must not re-dial it out from under other in-flight
  requests (regression for the ``reconnect_if_broken`` contract),
* end-to-end — NDP contour geometry byte-identical pipelined or not.
"""

import itertools
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import NDPServer
from repro.errors import (
    FormatError,
    RPCTimeoutError,
    RPCTransportError,
    ServerOverloadedError,
)
from repro.io import write_vgf
from repro.rpc import RPCClient, RPCServer, pack, unpack
from repro.rpc.fairshare import FairScheduler
from repro.rpc.envelope import peek
from repro.rpc import transport as transport_mod
from repro.rpc.resilience import ResilientTransport, RetryPolicy
from repro.rpc.transport import (
    FrameBuffer,
    InProcessTransport,
    TCPTransport,
    read_frame,
    write_frame,
)
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem
from repro.obs.metrics import Tally

from tests.conftest import make_sphere_grid


def echo(x):
    return x


def add(a, b):
    return a + b


def sleep_ms(ms, tag=None):
    time.sleep(ms / 1000.0)
    return tag if tag is not None else ms


def make_server(**kwargs):
    return RPCServer(
        {"echo": echo, "add": add, "sleep_ms": sleep_ms,
         "boom": lambda: 1 / 0},
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Frame peeking and incremental framing
# ---------------------------------------------------------------------------


class TestPeekFrame:
    def test_request_fixint_msgid(self):
        assert peek(pack([0, 7, "m", []])) == (0, 7)

    def test_response_wide_msgids(self):
        for msgid in (0, 127, 128, 255, 256, 65535, 65536, 2**32 - 1, 2**32):
            assert peek(pack([1, msgid, None, "x"])) == (1, msgid)

    def test_notify_has_no_msgid(self):
        assert peek(pack([2, "m", []])) == (2, None)

    def test_array16_header(self):
        # Hand-built array16 encoding of [0, 5, "m", []] — legal msgpack
        # even though the canonical packer would use a fixarray.
        frame = b"\xdc\x00\x04" + pack(0)[0:1] + pack(5) + pack("m") + pack([])
        assert peek(frame) == (0, 5)

    def test_garbage_rejected(self):
        for bad in (b"", b"\xc0", b"\x93", pack("hello"), pack([9, 1, "m", []])):
            with pytest.raises(FormatError):
                peek(bad)

    def test_large_payload_is_not_decoded(self):
        big = pack([1, 42, None, b"\x00" * 4_000_000])
        t0 = time.perf_counter()
        assert peek(big) == (1, 42)
        assert time.perf_counter() - t0 < 0.01  # O(1), not O(payload)


class TestFrameBuffer:
    def frame(self, body: bytes) -> bytes:
        import struct

        return struct.pack(">I", len(body)) + body

    def test_byte_at_a_time(self):
        buf = FrameBuffer()
        wire = self.frame(b"abc") + self.frame(b"") + self.frame(b"xy")
        got = []
        for i in range(len(wire)):
            buf.feed(wire[i : i + 1])
            got.extend(buf.drain())
        assert got == [b"abc", b"", b"xy"]
        assert len(buf) == 0

    def test_partial_frame_retained(self):
        buf = FrameBuffer()
        wire = self.frame(b"hello")
        buf.feed(wire[:6])
        assert list(buf.drain()) == []
        buf.feed(wire[6:])
        assert list(buf.drain()) == [b"hello"]

    def test_oversize_length_rejected(self):
        import struct

        buf = FrameBuffer()
        buf.feed(struct.pack(">I", 1 << 31))
        with pytest.raises(RPCTransportError):
            list(buf.drain())


# ---------------------------------------------------------------------------
# Pipelining over one connection
# ---------------------------------------------------------------------------


class TestPipelining:
    def test_out_of_order_responses_rehydrated_by_id(self):
        listener = make_server().serve_tcp(workers=4)
        try:
            client = RPCClient.connect_tcp(listener.host, listener.port,
                                           timeout=10.0)
            # First request is the slowest: its response returns last,
            # but collecting in issue order still matches by msgid.
            pending = [client.call_async("sleep_ms", ms, f"tag{ms}")
                       for ms in (80, 5, 40, 1)]
            results = [p.result(timeout=10.0) for p in pending]
            assert results == ["tag80", "tag5", "tag40", "tag1"]
            client.close()
        finally:
            listener.stop()

    def test_pipeline_overlaps_server_time(self):
        listener = make_server().serve_tcp(workers=8)
        try:
            client = RPCClient.connect_tcp(listener.host, listener.port,
                                           timeout=10.0)
            t0 = time.monotonic()
            results = client.pipeline([("sleep_ms", 50, i) for i in range(8)])
            elapsed = time.monotonic() - t0
            assert results == list(range(8))
            # Serial execution would take >= 400 ms.
            assert elapsed < 0.3
            client.close()
        finally:
            listener.stop()

    def test_transport_shared_across_threads(self):
        listener = make_server().serve_tcp(workers=8)
        try:
            client = RPCClient.connect_tcp(listener.host, listener.port,
                                           timeout=10.0)
            results = [None] * 16

            def worker(i):
                results[i] = client.call("add", i, 1000)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert results == [1000 + i for i in range(16)]
            assert client._transport.pending == 0
            client.close()
        finally:
            listener.stop()

    def test_notify_produces_no_response(self):
        seen = []
        server = RPCServer({"note": seen.append, "echo": echo})
        listener = server.serve_tcp(workers=2)
        try:
            client = RPCClient.connect_tcp(listener.host, listener.port,
                                           timeout=5.0)
            client.notify("note", "fire-and-forget")
            # A subsequent request round-trips fine: the notify neither
            # produced a response nor desynchronized the stream.
            assert client.call("echo", "still-alive") == "still-alive"
            deadline = time.monotonic() + 5.0
            while not seen and time.monotonic() < deadline:
                time.sleep(0.01)
            assert seen == ["fire-and-forget"]
            client.close()
        finally:
            listener.stop()

    def test_remote_errors_map_per_call(self):
        listener = make_server().serve_tcp(workers=4)
        try:
            client = RPCClient.connect_tcp(listener.host, listener.port,
                                           timeout=10.0)
            good = client.call_async("add", 1, 2)
            bad = client.call_async("boom")
            assert good.result(timeout=5.0) == 3
            with pytest.raises(Exception) as exc_info:
                bad.result(timeout=5.0)
            assert "ZeroDivisionError" in str(exc_info.value)
            client.close()
        finally:
            listener.stop()

    def test_callers_sharing_a_msgid_each_get_their_own_reply(self):
        """Clients forwarded onto one connection all number their first
        call 1: the connection's own wire ids keep them apart (a lost
        update on the id counter would cross two replies), and each reply
        comes back under the msgid its caller sent."""
        listener = make_server().serve_tcp(workers=4)
        transport = TCPTransport(listener.host, listener.port, timeout=10.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        replies = {}

        def caller(i):
            for j in range(20):
                raw = transport.request(pack([0, 1, "echo", [f"{i}.{j}"]]))
                replies[f"{i}.{j}"] = unpack(raw)

        try:
            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
            transport.close()
            listener.stop()
        assert len(replies) == 160
        assert all(reply == [1, 1, None, tag] for tag, reply in replies.items())

    def test_request_timeout_abandons_slot(self):
        listener = make_server().serve_tcp(workers=2)
        try:
            transport = TCPTransport(listener.host, listener.port, timeout=0.1)
            with pytest.raises(RPCTimeoutError):
                transport.request(pack([0, 1, "sleep_ms", [500]]))
            assert transport.pending == 0
            transport.close()
        finally:
            listener.stop()

    def test_wire_id_still_pending_after_the_counter_wraps_is_skipped(self):
        listener = make_server().serve_tcp(workers=2)
        transport = TCPTransport(listener.host, listener.port, timeout=10.0)
        try:
            slow = transport.submit(pack([0, 1, "sleep_ms", [200, "slow"]]))
            # The next draw wraps onto wire id 1, which ``slow`` still holds.
            transport._wire_ids = itertools.count(transport_mod._WIRE_IDS + 1)
            fast = unpack(transport.request(pack([0, 2, "echo", ["fast"]])))
            assert fast == [1, 2, None, "fast"]
            assert unpack(slow.result(timeout=5.0)) == [1, 1, None, "slow"]
        finally:
            transport.close()
            listener.stop()

    def test_widely_spelled_response_reaches_its_caller(self):
        """A peer may spell a reply with wider headers than ``pack`` picks
        (array32, the msgid as int8).  A full decode reads it fine, so the
        reader must route it — not kill the whole multiplexed connection
        over an "undecodable response frame"."""
        server = socket.create_server(("127.0.0.1", 0))

        def answer_one():
            conn, _ = server.accept()
            with conn:
                msgid = unpack(read_frame(conn))[1]
                write_frame(conn, b"\xdd\x00\x00\x00\x04\x01\xd0" + bytes([msgid])
                            + pack(None) + pack("routed"))

        peer = threading.Thread(target=answer_one, daemon=True)
        peer.start()
        transport = TCPTransport(*server.getsockname(), timeout=5.0)
        try:
            raw = transport.request(pack([0, 5, "echo", ["x"]]))
        finally:
            transport.close()
            peer.join(5.0)
            server.close()
        assert unpack(raw) == [1, 5, None, "routed"]


# ---------------------------------------------------------------------------
# Wire compatibility with classic clients
# ---------------------------------------------------------------------------


class TestClassicCompat:
    CALLS = [
        pack([0, 1, "echo", ["hello"]]),
        pack([0, 2, "add", [3, 4]]),
        pack([0, 3, "echo", [b"\x00\x01\x02"]]),
        pack([0, 4, "echo", [{"k": [1, 2.5, None, True]}]]),
        pack([0, 5, "nope", []]),                      # unknown method
        pack([0, 6, "add", [1]]),                      # handler TypeError
        pack([0, 7, "echo", ["x"], {"deadline": 30.0}]),   # deadline ctx
        pack([0, 8, "echo", ["y"], {"tenant": "gold"}]),   # tenant ctx
    ]

    def test_listener_matches_in_process_dispatch_byte_for_byte(self):
        reference = InProcessTransport(make_server().dispatch)
        listener = make_server().serve_tcp(workers=4)
        try:
            want = [reference.request(frame) for frame in self.CALLS]
            transport = TCPTransport(listener.host, listener.port, timeout=10.0)
            try:
                got = [transport.request(frame) for frame in self.CALLS]
            finally:
                transport.close()
            assert got == want
            for raw in got:
                decoded = unpack(raw)
                assert len(decoded) == 4  # classic 4-element responses
        finally:
            listener.stop()

    def test_one_at_a_time_client_sees_ordered_responses(self):
        listener = make_server().serve_tcp(workers=4)
        try:
            transport = TCPTransport(listener.host, listener.port, timeout=10.0)
            for i in range(20):
                raw = transport.request(pack([0, i + 1, "add", [i, i]]))
                assert unpack(raw) == [1, i + 1, None, 2 * i]
            transport.close()
        finally:
            listener.stop()


# ---------------------------------------------------------------------------
# Lifecycle: drain and connection caps
# ---------------------------------------------------------------------------


class TestAsyncLifecycle:
    def test_drain_finishes_inflight_pipeline(self):
        listener = make_server().serve_tcp(workers=4)
        client = RPCClient.connect_tcp(listener.host, listener.port,
                                       timeout=10.0)
        pending = [client.call_async("sleep_ms", 100, i) for i in range(4)]
        time.sleep(0.02)  # requests reach the server
        stop_result = {}
        stopper = threading.Thread(
            target=lambda: stop_result.update(
                clean=listener.stop(drain_timeout=10.0)
            ),
            daemon=True,
        )
        stopper.start()
        results = [p.result(timeout=10.0) for p in pending]
        stopper.join(timeout=10.0)
        assert results == list(range(4))
        assert stop_result["clean"] is True
        client.close()

    def test_draining_refuses_new_connections(self):
        release = threading.Event()
        server = RPCServer({"wait": lambda: release.wait(10.0) and "done"})
        listener = server.serve_tcp(workers=2)
        client = RPCClient.connect_tcp(listener.host, listener.port,
                                       timeout=10.0)
        pending = client.call_async("wait")
        time.sleep(0.05)
        stopper = threading.Thread(
            target=lambda: listener.stop(drain_timeout=10.0), daemon=True
        )
        stopper.start()
        deadline = time.monotonic() + 5.0
        while not listener.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        assert listener.draining
        with pytest.raises(RPCTransportError):
            late = TCPTransport(listener.host, listener.port, timeout=2.0)
            try:
                late.request(pack([0, 99, "wait", []]))
            finally:
                late.close()
        release.set()
        assert pending.result(timeout=10.0) == "done"
        stopper.join(timeout=10.0)
        client.close()

    def test_max_connections_refused_and_counted(self):
        listener = make_server().serve_tcp(workers=2)
        listener.max_connections = 1
        try:
            first = RPCClient.connect_tcp(listener.host, listener.port,
                                          timeout=5.0)
            assert first.call("echo", 1) == 1
            with pytest.raises(RPCTransportError):
                second = TCPTransport(listener.host, listener.port,
                                      timeout=2.0)
                try:
                    second.request(pack([0, 1, "echo", [2]]))
                finally:
                    second.close()
            assert listener.refused >= 1
            first.close()
        finally:
            listener.stop()


# ---------------------------------------------------------------------------
# Retry isolation over a shared socket (regression)
# ---------------------------------------------------------------------------


class TestRetryIsolation:
    def test_reconnect_if_broken_noop_on_healthy_socket(self):
        listener = make_server().serve_tcp(workers=2)
        try:
            transport = TCPTransport(listener.host, listener.port, timeout=5.0)
            assert transport.generation == 1
            assert transport.reconnect_if_broken() is False
            assert transport.generation == 1
            transport.close()
        finally:
            listener.stop()

    def test_retry_does_not_redial_under_inflight_requests(self):
        """A shed request retried by ResilientTransport must not sever a
        concurrent slow request sharing the multiplexed socket."""
        release = threading.Event()
        started = threading.Event()

        def slow():
            started.set()
            release.wait(timeout=10.0)
            return "slow-done"

        server = RPCServer({"slow": slow, "quick": lambda: "quick-done"})
        # One worker and one queue slot: "slow" holds the worker, a
        # queued "quick" fills the slot, so the retried "quick" is shed.
        listener = server.serve_tcp(scheduler=FairScheduler(
            server.handle, workers=1, max_tenant_pending=1, retry_after=0.01))
        try:
            mux = TCPTransport(listener.host, listener.port, timeout=10.0)
            stats = Tally()
            resilient = ResilientTransport(
                mux, retry=RetryPolicy(max_attempts=8, base_delay=0.01,
                                       jitter=0.0),
                stats=stats,
            )
            slow_fut = mux.submit(pack([0, 1001, "slow", []]))
            assert started.wait(timeout=5.0)
            queued_fut = mux.submit(pack([0, 1003, "quick", []]))

            retried = {}

            def retry_quick():
                # Shed while "slow" holds the worker and the queue is
                # full, then succeeds on a retry attempt after release.
                raw = resilient.request(pack([0, 1002, "quick", []]))
                retried["result"] = unpack(raw)[3]

            retrier = threading.Thread(target=retry_quick, daemon=True)
            retrier.start()
            time.sleep(0.15)  # let at least one shed+retry cycle happen
            release.set()
            retrier.join(timeout=10.0)

            assert retried["result"] == "quick-done"
            # The regression: the slow request's future survived the
            # retries because the shared socket was never re-dialed.
            assert unpack(slow_fut.result(timeout=5.0))[3] == "slow-done"
            assert unpack(queued_fut.result(timeout=5.0))[3] == "quick-done"
            assert stats.get("overloads") >= 1  # the retry rode a real shed
            assert mux.generation == 1
            assert stats.get("reconnects") == 0
            resilient.close()
        finally:
            listener.stop()

    def test_retry_redials_only_when_connection_dead(self):
        listener = make_server().serve_tcp(workers=2)
        try:
            mux = TCPTransport(listener.host, listener.port, timeout=5.0)
            resilient = ResilientTransport(
                mux, retry=RetryPolicy(max_attempts=3, base_delay=0.01,
                                       jitter=0.0),
            )
            assert unpack(resilient.request(pack([0, 1, "echo", [1]])))[3] == 1
            # Kill the socket out from under the transport.
            mux._sock.shutdown(2)
            deadline = time.monotonic() + 5.0
            while not mux.broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert mux.broken
            # The resilient wrapper re-dials (the socket is genuinely
            # dead now) and the call succeeds on a fresh connection.
            assert unpack(resilient.request(pack([0, 2, "echo", [2]])))[3] == 2
            assert mux.generation == 2
            resilient.close()
        finally:
            listener.stop()


class TestClientClose:
    """``socket.close()`` does not wake a thread blocked in ``recv`` on
    Linux: without a ``shutdown`` first, ``close()`` sat out its whole
    2 s reader join and left the reader parked until the peer closed."""

    @staticmethod
    def readers():
        return [t for t in threading.enumerate()
                if t.name.startswith("tcp-reader-")]

    def test_close_returns_at_once_and_leaves_no_reader(self):
        listener = make_server().serve_tcp(workers=2)
        try:
            before = self.readers()
            mux = TCPTransport(listener.host, listener.port, timeout=5.0)
            assert unpack(mux.request(pack([0, 1, "echo", [1]])))[3] == 1
            t0 = time.perf_counter()
            mux.close()
            assert time.perf_counter() - t0 < 0.2
            assert self.readers() == before
        finally:
            listener.stop()

    def test_redial_retires_the_old_reader(self):
        listener = make_server().serve_tcp(workers=2)
        try:
            mux = TCPTransport(listener.host, listener.port, timeout=5.0)
            old_reader = mux._reader
            # What a failed write leaves behind: the connection is marked
            # dead while its reader is still parked in recv.
            with mux._lock:
                mux._dead = True
            assert mux.reconnect_if_broken() is True
            old_reader.join(timeout=2.0)
            assert not old_reader.is_alive()
            assert unpack(mux.request(pack([0, 2, "echo", [2]])))[3] == 2
            mux.close()
        finally:
            listener.stop()


# ---------------------------------------------------------------------------
# End-to-end: NDP contour geometry through the pipelined client
# ---------------------------------------------------------------------------


class TestNDPThroughMux:
    def make_store(self):
        store = ObjectStore(MemoryBackend())
        store.create_bucket("b")
        fs = S3FileSystem(store, "b")
        fs.write_object("obj.vgf", write_vgf(make_sphere_grid(16), codec="gzip"))
        return fs

    def test_contour_bytes_identical_tcp_vs_in_process(self):
        fs = self.make_store()
        listener = NDPServer(fs).serve_tcp(workers=4)
        try:
            def fetch(client):
                try:
                    return client.call(
                        "prefilter_contour", "obj.vgf", "r", [0.45],
                        "cell-closure", "auto", "raw",
                    )
                finally:
                    client.close()

            want = fetch(RPCClient(InProcessTransport(NDPServer(fs).dispatch)))
            got = fetch(RPCClient.connect_tcp(listener.host, listener.port,
                                              timeout=30.0))
            assert got == want  # payload bytes included
        finally:
            listener.stop()

    def test_contour_identical_pipelined_vs_sequential(self):
        fs = self.make_store()
        server = NDPServer(fs)
        listener = server.serve_tcp(workers=4)
        try:
            sequential = RPCClient.connect_tcp(listener.host, listener.port,
                                               timeout=30.0)
            values = [0.35, 0.45, 0.55]
            want = [
                sequential.call("prefilter_contour", "obj.vgf", "r", [v],
                                "cell-closure", "auto", "raw")
                for v in values
            ]
            sequential.close()

            mux = RPCClient.connect_tcp(listener.host, listener.port,
                                        timeout=30.0)
            got = mux.pipeline([
                ("prefilter_contour", "obj.vgf", "r", [v], "cell-closure", "auto",
                 "raw")
                for v in values
            ])
            mux.close()
            assert got == want
        finally:
            listener.stop()
