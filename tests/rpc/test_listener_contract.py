"""One listener, three owners: the contract every ``serve_tcp`` keeps.

``NDPServer``, ``EdgeCacheServer`` (here in front of an NDP server) and a
bare ``RPCServer`` all start the same event-loop listener.  This suite
pins what a client, an operator and a test harness may rely on whichever
of the three answered: a drain finishes in-flight work and refuses new
connections, ``stop(drain_timeout)`` is bounded even when a handler
wedges, the connection cap refuses and counts, a NOTIFY gets no reply
frame, a garbage length prefix costs that connection only, a half-closed
peer still receives what it asked for, and ``stop()`` leaves no thread
behind.
"""

import socket
import struct
import threading
import time

import pytest

from repro.core import NDPServer
from repro.edge import EdgeCacheServer
from repro.errors import RPCTransportError
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient, RPCServer, pack, unpack
from repro.rpc.transport import TCPTransport, read_frame, write_frame
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid


class Owner:
    """A server that owns a listener, plus a handler the test can hold."""

    def __init__(self, kind: str):
        self.entered = threading.Event()
        self.release = threading.Event()
        handlers = {"ping": lambda: "pong", "hold": self._hold}
        if kind == "rpc":
            self.server = RPCServer(handlers)
            return
        store = ObjectStore(MemoryBackend())
        store.create_bucket("sim")
        fs = S3FileSystem(store, "sim")
        fs.write_object("g.vgf", write_vgf(make_sphere_grid(8), codec="raw"))
        ndp = NDPServer(fs)
        for name, fn in handlers.items():
            ndp.rpc.bind(name, fn)
        # The edge forwards methods it does not know to its upstream.
        self.server = ndp if kind == "ndp" else EdgeCacheServer(
            [InProcessTransport(ndp.dispatch)])

    def _hold(self):
        self.entered.set()
        self.release.wait(timeout=30.0)
        return "held"

    def serve(self, **kwargs):
        self.listener = self.server.serve_tcp(**kwargs)
        return self.listener

    def connect(self, timeout: float = 5.0) -> socket.socket:
        return socket.create_connection(
            (self.listener.host, self.listener.port), timeout=timeout)

    def close(self):
        self.release.set()
        self.listener.stop()


@pytest.fixture(params=["ndp", "edge", "rpc"])
def owner(request):
    owner = Owner(request.param)
    yield owner
    owner.close()


def call(listener, method: str, msgid: int = 1):
    transport = TCPTransport(listener.host, listener.port, timeout=5.0)
    try:
        return unpack(transport.request(pack([0, msgid, method, []])))
    finally:
        transport.close()


def test_drain_finishes_inflight_and_refuses_new_connections(owner):
    listener = owner.serve()
    held = {}
    caller = threading.Thread(
        target=lambda: held.update(reply=call(listener, "hold")), daemon=True)
    caller.start()
    assert owner.entered.wait(timeout=5.0)

    stopped = {}
    stopper = threading.Thread(
        target=lambda: stopped.update(clean=listener.stop(drain_timeout=10.0)),
        daemon=True)
    stopper.start()
    deadline = time.monotonic() + 5.0
    while not listener.draining and time.monotonic() < deadline:
        time.sleep(0.01)
    assert listener.draining

    # The listening socket is gone: a late client is refused outright or
    # its first request fails — it is never served.
    with pytest.raises(RPCTransportError):
        call(listener, "ping", msgid=99)

    owner.release.set()
    stopper.join(timeout=10.0)
    caller.join(timeout=10.0)
    assert stopped["clean"] is True
    assert held["reply"] == [1, 1, None, "held"]


def test_stop_is_bounded_when_a_handler_wedges(owner):
    listener = owner.serve()
    sock = owner.connect()
    write_frame(sock, pack([0, 1, "hold", []]))
    assert owner.entered.wait(timeout=5.0)
    t0 = time.monotonic()
    clean = listener.stop(drain_timeout=0.3)
    elapsed = time.monotonic() - t0
    sock.close()
    assert clean is False  # forced, and it says so
    assert elapsed < 5.0   # did not wait out the 30 s hold


def test_connection_cap_refuses_and_counts(owner):
    listener = owner.serve(max_connections=1)
    first = owner.connect()
    write_frame(first, pack([0, 1, "hold", []]))
    assert owner.entered.wait(timeout=5.0)
    # The OS accepts the second connection; the cap then closes it.
    with pytest.raises(RPCTransportError):
        call(listener, "ping", msgid=2)
    assert listener.refused >= 1
    owner.release.set()
    assert unpack(read_frame(first)) == [1, 1, None, "held"]
    first.close()


def test_notify_gets_no_reply_frame(owner):
    owner.serve()
    sock = owner.connect()
    write_frame(sock, pack([2, "ping", []]))
    write_frame(sock, pack([0, 7, "ping", []]))
    # The first frame back answers the REQUEST: nothing answered the NOTIFY.
    assert unpack(read_frame(sock)) == [1, 7, None, "pong"]
    sock.settimeout(0.2)
    with pytest.raises(socket.timeout):
        sock.recv(1)
    sock.close()


def test_garbage_length_prefix_closes_that_connection_only(owner):
    listener = owner.serve()
    good = owner.connect()
    bad = owner.connect()
    bad.sendall(struct.pack(">I", 0xFFFFFFFF))
    assert bad.recv(1) == b""  # dropped, no reply
    bad.close()
    write_frame(good, pack([0, 3, "ping", []]))
    assert unpack(read_frame(good)) == [1, 3, None, "pong"]
    good.close()
    assert call(listener, "ping") == [1, 1, None, "pong"]  # still accepting


def test_half_closed_peer_still_receives_its_replies(owner):
    owner.serve()
    sock = owner.connect()
    write_frame(sock, pack([0, 1, "hold", []]))
    write_frame(sock, pack([0, 2, "ping", []]))
    assert owner.entered.wait(timeout=5.0)
    sock.shutdown(socket.SHUT_WR)  # "I am done asking"
    owner.release.set()
    replies = sorted(unpack(read_frame(sock))[1::2] for _ in range(2))
    assert replies == [[1, "held"], [2, "pong"]]
    assert sock.recv(1) == b""  # then the server closes its side
    sock.close()


def test_stop_leaves_no_thread_behind(owner):
    before = set(threading.enumerate())
    listener = owner.serve()
    assert call(listener, "ping") == [1, 1, None, "pong"]
    assert len(set(threading.enumerate()) - before) > 1  # loop + workers
    assert listener.stop(drain_timeout=2.0) is True
    deadline = time.monotonic() + 2.0
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert set(threading.enumerate()) - before == set()


def test_pipelined_replies_larger_than_the_kernel_buffer_arrive_whole():
    """Replies from bytes to megabytes, pipelined on two connections: the
    loop sends what the kernel takes and resumes on the next write event,
    and every reply must arrive whole and under its own msgid."""
    sizes = [7, 1 << 20, 300, 3 << 18, 64 << 10, 0, 1 << 19, 11]
    server = RPCServer({"blob": lambda i: bytes([i % 251]) * sizes[i % len(sizes)]})
    listener = server.serve_tcp(workers=16)
    try:
        clients = [RPCClient.connect_mux(listener.host, listener.port,
                                         timeout=30.0) for _ in range(2)]
        pending = [(i, clients[i % 2].call_async("blob", i)) for i in range(160)]
        for i, call_ in pending:
            assert call_.result(timeout=30.0) == \
                bytes([i % 251]) * sizes[i % len(sizes)]
        for client in clients:
            client.close()
        assert listener.stop(drain_timeout=5.0) is True
    finally:
        listener.stop()


@pytest.mark.parametrize("kind", ["ndp", "edge"])
def test_health_reports_the_fair_queue(kind):
    owner = Owner(kind)
    listener = owner.serve()
    try:
        client = RPCClient.connect_tcp(listener.host, listener.port)
        health = client.call("health")
        client.close()
        assert health["draining"] is False
        assert health["fair_queue"]["workers"] == 8
    finally:
        owner.close()
