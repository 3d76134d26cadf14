"""TCP transport edge cases: frame-size limits, truncation, empty frames,
late replies.

Direct tests of the wire framing (``uint32 BE length | payload``) that the
failure-injection suite only exercises indirectly: oversized frames must
be rejected on both send and receive, a peer disappearing mid-frame must
raise a typed error, and zero-length frames are legal in both directions.
The client transport owns its wire msgids, so a reply that arrives after
its caller gave up is dropped — never handed to a later call.
"""

import socket
import struct
import threading
import time

import pytest

from repro.errors import RPCRemoteError, RPCTimeoutError, RPCTransportError
from repro.rpc import RPCClient, RPCServer, pack, unpack
from repro.rpc import transport as transport_mod
from repro.rpc.mux import AsyncServerTransport
from repro.rpc.transport import TCPTransport, read_frame, write_frame


#: What the rogue peers below are asked: a real REQUEST frame, since the
#: client transport puts its own wire msgid on every frame it sends.
HELLO = pack([0, 1, "echo", ["hello"]])


def echo_reply(request: bytes, result) -> bytes:
    """A RESPONSE to ``request`` under whatever msgid it went out with."""
    return pack([1, unpack(request)[1], None, result])


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestMaxFrame:
    def test_write_frame_rejects_oversized_payload(self, pair, monkeypatch):
        a, _ = pair
        # Shrink the limit rather than allocating a real 2 GiB payload.
        monkeypatch.setattr(transport_mod, "MAX_FRAME", 64)
        with pytest.raises(RPCTransportError, match="exceeds MAX_FRAME"):
            write_frame(a, b"x" * 64)

    def test_write_frame_at_limit_minus_one_passes(self, pair, monkeypatch):
        a, b = pair
        monkeypatch.setattr(transport_mod, "MAX_FRAME", 64)
        write_frame(a, b"x" * 63)
        assert read_frame(b) == b"x" * 63

    def test_read_frame_rejects_garbage_length_prefix(self, pair):
        a, b = pair
        # A length prefix >= the real MAX_FRAME, no payload behind it.
        a.sendall(struct.pack(">I", transport_mod.MAX_FRAME))
        with pytest.raises(RPCTransportError, match="exceeds MAX_FRAME"):
            read_frame(b)

    def test_tcp_client_rejects_oversized_server_frame(self):
        """A rogue server announcing a huge frame cannot OOM the client."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def rogue():
            conn, _ = listener.accept()
            read_frame(conn)  # consume the request politely
            conn.sendall(struct.pack(">I", transport_mod.MAX_FRAME))
            conn.close()

        thread = threading.Thread(target=rogue, daemon=True)
        thread.start()
        client = TCPTransport("127.0.0.1", port, timeout=5.0)
        try:
            with pytest.raises(RPCTransportError, match="exceeds MAX_FRAME"):
                client.request(HELLO)
        finally:
            client.close()
            listener.close()
            thread.join(timeout=2.0)

    def test_unframeable_reply_is_a_typed_error_not_a_hang(self, monkeypatch):
        """A handler result too big to frame must not leave its caller
        waiting: it gets an error line, its neighbours their answers."""
        server = RPCServer({"big": lambda: "x" * 500, "ping": lambda: "pong"})
        listener = server.serve_tcp()
        monkeypatch.setattr(transport_mod, "MAX_FRAME", 256)
        client = RPCClient.connect_tcp(listener.host, listener.port, timeout=5.0)
        try:
            with pytest.raises(RPCRemoteError, match="exceeds MAX_FRAME"):
                client.call("big")
            assert client.call("ping") == "pong"  # same connection, still up
        finally:
            client.close()
            listener.stop()

    def test_unframeable_unanswerable_reply_closes_the_connection(
            self, monkeypatch):
        # Not an rpc frame, so there is no msgid to send an error line to.
        with AsyncServerTransport(lambda payload: b"\xc0" * 500) as server:
            monkeypatch.setattr(transport_mod, "MAX_FRAME", 256)
            client = TCPTransport(server.host, server.port, timeout=5.0)
            try:
                with pytest.raises(RPCTransportError) as excinfo:
                    client.request(HELLO)
                assert not isinstance(excinfo.value, RPCTimeoutError)
            finally:
                client.close()


class TestMidFrameDisconnect:
    def test_read_frame_detects_truncated_payload(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", 100) + b"only ten b")
        a.close()
        with pytest.raises(RPCTransportError, match="closed mid-frame"):
            read_frame(b)

    def test_read_frame_detects_truncated_header(self, pair):
        a, b = pair
        a.sendall(b"\x00\x00")  # half a length prefix
        a.close()
        with pytest.raises(RPCTransportError, match="closed mid-frame"):
            read_frame(b)

    def test_tcp_client_surfaces_mid_frame_disconnect(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def rogue():
            conn, _ = listener.accept()
            read_frame(conn)
            conn.sendall(struct.pack(">I", 1 << 20) + b"partial payload")
            conn.close()

        thread = threading.Thread(target=rogue, daemon=True)
        thread.start()
        client = TCPTransport("127.0.0.1", port, timeout=5.0)
        try:
            with pytest.raises(RPCTransportError, match="mid-frame"):
                client.request(HELLO)
        finally:
            client.close()
            listener.close()
            thread.join(timeout=2.0)

    def test_unresponsive_server_is_timeout_error(self):
        """A server that accepts but never replies trips the socket timeout
        as :class:`RPCTimeoutError` (which the resilient layer can retry)."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        client = TCPTransport("127.0.0.1", port, timeout=0.2)
        try:
            with pytest.raises(RPCTimeoutError):
                client.request(HELLO)
        finally:
            client.close()
            listener.close()

    def test_peer_that_stops_reading_times_out_the_write(self):
        """A frame larger than the socket buffers, to a peer that never
        reads, fails the write with :class:`RPCTimeoutError` rather than
        blocking it (and every caller queued behind it) for good."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        client = TCPTransport("127.0.0.1", port, timeout=0.2)
        big = pack([0, 1, "echo", [b"\x00" * (16 << 20)]])
        try:
            t0 = time.monotonic()
            with pytest.raises(RPCTimeoutError, match="write stalled"):
                client.request(big)
            assert time.monotonic() - t0 < 5.0
            assert client.broken and client.pending == 0
        finally:
            client.close()
            listener.close()


class TestReconnect:
    def test_retry_recovers_after_mid_request_connection_drop(self):
        """A server that kills the first connection mid-frame must not doom
        the request: :class:`ResilientTransport` re-dials the dead
        connection between attempts (via
        :meth:`TCPTransport.reconnect_if_broken`), so the retry lands on a
        fresh connection and succeeds."""
        from repro.rpc.resilience import ResilientTransport, RetryPolicy
        from repro.obs.metrics import Tally

        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        port = listener.getsockname()[1]
        connections = []

        def flaky_server():
            # First connection: read the request, then vanish mid-frame.
            conn, _ = listener.accept()
            connections.append(conn)
            read_frame(conn)
            conn.sendall(struct.pack(">I", 1 << 20) + b"gone")
            conn.close()
            # Second connection (the reconnect): behave.
            conn, _ = listener.accept()
            connections.append(conn)
            write_frame(conn, echo_reply(read_frame(conn), "HELLO"))
            conn.close()

        thread = threading.Thread(target=flaky_server, daemon=True)
        thread.start()
        stats = Tally()
        client = ResilientTransport(
            TCPTransport("127.0.0.1", port, timeout=5.0),
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0,
                              deadline=None),
            stats=stats,
        )
        try:
            assert client.request(HELLO) == pack([1, 1, None, "HELLO"])
        finally:
            client.close()
            listener.close()
            thread.join(timeout=2.0)
        assert len(connections) == 2  # retry really used a fresh socket
        assert stats.get("reconnects") == 1
        assert stats.get("retries") == 1

    def test_reconnect_failure_is_swallowed_until_next_attempt(self):
        """If the re-dial itself fails (server still down), the retry loop
        keeps going and the *attempt* surfaces the error — reconnect never
        raises out of the backoff path."""
        from repro.rpc.resilience import ResilientTransport, RetryPolicy

        class DeadAfterFirstUse:
            def __init__(self):
                self.reconnects = 0

            def request(self, payload: bytes) -> bytes:
                raise RPCTransportError("boom")

            def reconnect_if_broken(self) -> bool:
                self.reconnects += 1
                raise RPCTransportError("still down")

            def close(self) -> None:
                pass

        inner = DeadAfterFirstUse()
        client = ResilientTransport(
            inner,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0,
                              deadline=None),
        )
        with pytest.raises(RPCTransportError, match="boom"):
            client.request(b"x")
        assert inner.reconnects == 2  # once per backoff between 3 attempts


class TestZeroLengthFrames:
    def test_zero_length_frame_roundtrip(self, pair):
        a, b = pair
        write_frame(a, b"")
        assert read_frame(b) == b""

    def test_zero_length_frames_interleave_with_data(self, pair):
        a, b = pair
        write_frame(a, b"")
        write_frame(a, b"data")
        write_frame(a, b"")
        assert read_frame(b) == b""
        assert read_frame(b) == b"data"
        assert read_frame(b) == b""

    def test_tcp_transport_empty_request_and_response(self):
        """End to end: empty payloads are legal frames both ways."""
        seen = []

        def dispatcher(req) -> bytes:
            seen.append(req.raw)
            return b"" if req.raw else b"was empty"

        with AsyncServerTransport(dispatcher) as server:
            sock = socket.create_connection((server.host, server.port),
                                            timeout=5.0)
            try:
                write_frame(sock, b"")
                assert read_frame(sock) == b"was empty"
                write_frame(sock, b"x")
                assert read_frame(sock) == b""
            finally:
                sock.close()
        assert seen == [b"", b"x"]


class TestLateReply:
    """A call that timed out must not leave its reply for the next one.

    The listener answers the slow call after its caller gave up; that
    late reply crosses the same connection as the next call's.
    """

    @pytest.fixture
    def slow_server(self):
        release, answered = threading.Event(), threading.Event()

        def slow():
            release.wait(timeout=5.0)
            answered.set()
            return "slow reply"

        listener = RPCServer({"slow": slow, "echo": lambda x: x}).serve_tcp()
        yield listener, release, answered
        release.set()
        listener.stop()

    def time_out_then_call(self, slow_server, later_msgid):
        listener, release, answered = slow_server
        client = TCPTransport(listener.host, listener.port, timeout=0.1)
        try:
            with pytest.raises(RPCTimeoutError):
                client.request(pack([0, 1, "slow", []]))
            release.set()
            assert answered.wait(timeout=5.0)  # the late reply is on its way
            return unpack(client.request(
                pack([0, later_msgid, "echo", ["later"]])))
        finally:
            client.close()

    def test_late_reply_never_answers_a_later_call(self, slow_server):
        assert self.time_out_then_call(slow_server, 2) == [1, 2, None, "later"]

    def test_late_reply_never_answers_a_later_call_with_the_same_msgid(
            self, slow_server):
        """Two callers sharing the connection may number their calls
        alike (two clients forwarded by one edge both start at msgid 1)."""
        assert self.time_out_then_call(slow_server, 1) == [1, 1, None, "later"]
