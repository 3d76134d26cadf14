"""One listener, one wire: the contract every front keeps.

``NDPServer``, a ``serve-cluster --shard`` ``NDPServer``,
``EdgeCacheServer`` and a bare ``ForwardingHandler`` (both in front of an
NDP server) and a bare ``RPCServer`` all run the same event-loop
listener and speak the same envelope.  This suite pins what a client, an
operator and a test harness may rely on whichever of them answered.

Listener behaviour: a drain finishes in-flight work and refuses new
connections, ``stop(drain_timeout)`` is bounded even when a handler
wedges, the connection cap refuses and counts, a NOTIFY gets no reply
frame, a garbage length prefix costs that connection only, a half-closed
peer still receives what it asked for, and ``stop()`` leaves no thread
behind.

Wire contract: 4- and 5-element requests get the classic 4-element
reply, every ctx key (``tenant``, ``deadline``, trace, ones nobody has
heard of) reaches the terminal server unmutated, only a traced request
against a tracing server grows the reply's fifth element, a malformed
frame is answered at msgid 0, each typed error line round-trips to its
local exception, and the frames ``RPCClient`` emits match the golden hex
in ``golden_request_frames.json`` byte for byte.
"""

import json
import pathlib

import socket
import struct
import threading
import time

import pytest

from repro.cluster import ManifestWatcher, shard_object
from repro.core import NDPServer
from repro.edge import EdgeCacheServer
from repro.errors import (
    CircuitOpenError,
    DeadlineExpiredError,
    IntegrityError,
    RPCTimeoutError,
    RPCTransportError,
    ServerOverloadedError,
)
from repro.io import write_vgf
from repro.obs.trace import Tracer
from repro.rpc import (
    AsyncServerTransport,
    ForwardingHandler,
    InProcessTransport,
    ResilientTransport,
    RetryPolicy,
    RPCClient,
    RPCServer,
    pack,
    unpack,
)
from repro.rpc.transport import TCPTransport, read_frame, write_frame
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid


#: The six error types the resilience layers react to, as a handler
#: would raise them: the line on the wire is ``ExcType: message``.
TYPED_ERRORS = [
    ServerOverloadedError("queue full; retry_after=0.25", retry_after=0.25),
    DeadlineExpiredError("budget gone before decode"),
    IntegrityError("crc mismatch on g.vgf"),
    CircuitOpenError("breaker open for 10.0.0.7"),
    RPCTimeoutError("no response in 2s"),
    RPCTransportError("connection reset by peer"),
]


def _raiser(exc):
    def fail():
        raise exc
    return fail


class RecordingTransport(InProcessTransport):
    """What a proxy sent upstream, byte for byte."""

    def __init__(self, dispatcher):
        super().__init__(dispatcher)
        self.frames = []

    def request(self, payload):
        self.frames.append(bytes(payload))
        return super().request(payload)


class Owner:
    """A front that owns a listener, plus a handler the test can hold.

    ``upstream`` records the frames a proxy kind (edge, forwarder)
    relayed to its terminal NDP server; it is ``None`` for the kinds that
    answer themselves.  ``tracing`` gives every hop a real tracer.
    """

    def __init__(self, kind: str, tracing: bool = False):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.upstream = None
        self.listener = None
        tracer = (lambda name: Tracer(process=name)) if tracing \
            else (lambda name: None)
        handlers = {"ping": lambda: "pong", "hold": self._hold}
        for exc in TYPED_ERRORS:
            handlers["fail_" + type(exc).__name__] = _raiser(exc)
        if kind == "rpc":
            self.server = RPCServer(handlers, tracer=tracer("server"))
            return
        store = ObjectStore(MemoryBackend())
        store.create_bucket("sim")
        fs = S3FileSystem(store, "sim")
        fs.write_object("g.vgf", write_vgf(make_sphere_grid(8), codec="raw"))
        map_version = None
        if kind == "shard":
            # What ``serve-cluster --shard N`` runs: an NDP server that
            # advertises the live manifest generation.
            manifest = shard_object(fs, "g.vgf", blocks=(2, 1, 1), shards=2)
            map_version = ManifestWatcher(fs, manifest.manifest_key).version
        ndp = NDPServer(fs, tracer=tracer("server"), map_version=map_version)
        for name, fn in handlers.items():
            ndp.rpc.bind(name, fn)
        if kind in ("ndp", "shard"):
            self.server = ndp
            return
        # Both proxies forward methods they do not know to their upstream.
        self.upstream = RecordingTransport(ndp.dispatch)
        if kind == "edge":
            self.server = EdgeCacheServer([self.upstream], tracer=tracer("edge"))
        else:
            self.server = ForwardingHandler([self.upstream], tracer=tracer("edge"))

    def _hold(self):
        self.entered.set()
        self.release.wait(timeout=30.0)
        return "held"

    def serve(self, **kwargs):
        if isinstance(self.server, ForwardingHandler):
            self.listener = AsyncServerTransport(
                self.server.handle, **kwargs).start()
        else:
            self.listener = self.server.serve_tcp(**kwargs)
        return self.listener

    def connect(self, timeout: float = 5.0) -> socket.socket:
        return socket.create_connection(
            (self.listener.host, self.listener.port), timeout=timeout)

    def exchange(self, frame: bytes) -> bytes:
        """One raw frame in, the raw reply frame out."""
        sock = self.connect()
        try:
            write_frame(sock, frame)
            return read_frame(sock)
        finally:
            sock.close()

    def close(self):
        self.release.set()
        if self.listener is not None:
            self.listener.stop()


KINDS = ["ndp", "edge", "rpc", "forwarder", "shard"]


@pytest.fixture(params=KINDS)
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
        clients = [RPCClient.connect_tcp(listener.host, listener.port,
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


# ---------------------------------------------------------------------------
# The wire contract
# ---------------------------------------------------------------------------

CTX_CASES = {
    "tenant": {"tenant": "gold"},
    "deadline": {"deadline": 30.0},
    "trace": {"trace_id": "00aa00aa00aa00aa", "span_id": "00bb00bb00bb00bb"},
    "unknown": {"x-future": [1, {"k": b"v"}], "hedge": True},
    "all": {"trace_id": "00aa00aa00aa00aa", "span_id": "00bb00bb00bb00bb",
            "tenant": "gold", "deadline": 30.0, "x-future": None},
}


def test_four_element_request_gets_the_classic_reply(owner):
    owner.serve()
    frame = pack([0, 5, "ping", []])
    assert owner.exchange(frame) == pack([1, 5, None, "pong"])
    if owner.upstream is not None:
        assert owner.upstream.frames == [frame]


@pytest.mark.parametrize("case", sorted(CTX_CASES))
def test_ctx_keys_ride_the_fifth_element_unmutated(owner, case):
    """No hop drops, reorders or re-encodes a ctx key — known or not —
    and with no tracer anywhere the reply stays 4-element."""
    owner.serve()
    frame = pack([0, 9, "ping", [], CTX_CASES[case]])
    assert owner.exchange(frame) == pack([1, 9, None, "pong"])
    if owner.upstream is not None:
        assert owner.upstream.frames == [frame]
    tenants = owner.listener.scheduler.info()["tenants"]
    assert ("gold" in tenants) == ("tenant" in CTX_CASES[case])


def test_expired_deadline_is_refused_with_the_typed_line(owner):
    owner.serve()
    reply = unpack(owner.exchange(pack([0, 3, "ping", [], {"deadline": 0.0}])))
    assert reply == [
        1, 3,
        "DeadlineExpiredError: request deadline already expired on "
        "arrival (budget 0.000s); nothing attempted",
        None,
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_only_a_traced_request_grows_the_reply(kind):
    """With tracers on every hop: trace ctx earns the span list as a
    fifth reply element; a 4-element request and a deadline-only ctx keep
    the classic 4-element reply."""
    owner = Owner(kind, tracing=True)
    owner.serve()
    try:
        assert owner.exchange(pack([0, 1, "ping", []])) == \
            pack([1, 1, None, "pong"])
        assert owner.exchange(pack([0, 2, "ping", [], {"deadline": 30.0}])) \
            == pack([1, 2, None, "pong"])
        traced = pack([0, 3, "ping", [], dict(CTX_CASES["all"])])
        reply = unpack(owner.exchange(traced))
        assert reply[:4] == [1, 3, None, "pong"] and len(reply) == 5
        names = [span["name"] for span in reply[4]]
        assert "rpc.dispatch" in names
        assert all(span["trace_id"] == "00aa00aa00aa00aa" for span in reply[4])
        if owner.upstream is not None:
            assert "rpc.forward" in names
            assert owner.upstream.frames[-1] == traced
    finally:
        owner.close()


@pytest.mark.parametrize("frame", [
    b"\xc1",                                # not msgpack
    pack({"not": "a frame"}),               # not an array
    pack([7, 1, "ping", []]),               # unknown frame type
    pack([0, 1, "ping"]),                   # REQUEST with 3 elements
    pack([0, 1, "ping", [], {}, "extra"]),  # REQUEST with 6 elements
], ids=["garbage", "map", "type7", "short", "long"])
def test_malformed_frame_is_answered_at_msgid_zero(owner, frame):
    owner.serve()
    raw = owner.exchange(frame)
    assert raw == RPCServer().dispatch(frame)  # every front, the same bytes
    reply = unpack(raw)
    assert reply[:2] == [1, 0] and isinstance(reply[2], str)
    assert reply[3] is None
    # The connection-level contract still holds afterwards.
    assert call(owner.listener, "ping") == [1, 1, None, "pong"]


@pytest.mark.parametrize(
    "exc", TYPED_ERRORS, ids=[type(e).__name__ for e in TYPED_ERRORS])
def test_typed_error_line_round_trips_to_its_exception(owner, exc):
    owner.serve()
    method = "fail_" + type(exc).__name__
    line = f"{type(exc).__name__}: {exc}"
    assert owner.exchange(pack([0, 4, method, []])) == pack([1, 4, line, None])
    client = RPCClient.connect_tcp(owner.listener.host, owner.listener.port)
    try:
        with pytest.raises(type(exc)) as caught:
            client.call(method)
    finally:
        client.close()
    assert type(caught.value) is type(exc)
    assert line in str(caught.value)
    if isinstance(exc, ServerOverloadedError):
        assert caught.value.retry_after == 0.25


# ---------------------------------------------------------------------------
# Golden request frames
# ---------------------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).with_name("golden_request_frames.json")


def client_frames(monkeypatch_setattr) -> dict:
    """Every frame shape ``RPCClient`` emits, as ``{name: hex}``:
    ``call`` / ``call_async`` under each tenant x deadline x trace
    combination, plus ``notify`` (which carries no ctx at all)."""
    import repro.obs.trace as trace_mod

    ids = iter(f"{n:016x}" for n in range(1, 1 << 16))
    monkeypatch_setattr(trace_mod, "new_id", lambda: next(ids))
    frames = {}
    for tenant in (None, "gold"):
        for deadline in (None, 2.5):
            for traced in (False, True):
                wire = RecordingTransport(
                    lambda payload: pack([1, unpack(payload)[1], None, None]))
                client = RPCClient(
                    ResilientTransport(
                        wire, retry=RetryPolicy(deadline=deadline),
                        clock=lambda: 100.0),
                    tracer=Tracer(process="client") if traced else None,
                    tenant=tenant,
                )
                client.call("prefilter_contour", "g.vgf", "r", [0.5])
                client.call_async("health").result()
                client.notify("log", "x")
                combo = (f"tenant={tenant}/deadline={deadline}/"
                         f"trace={'on' if traced else 'off'}")
                for name, frame in zip(("call", "call_async", "notify"),
                                       wire.frames):
                    frames[f"{name}/{combo}"] = frame.hex()
    return frames


def test_client_request_frames_match_the_golden_hex(monkeypatch):
    assert client_frames(monkeypatch.setattr) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":  # re-record: python -m tests.rpc.test_listener_contract
    GOLDEN.write_text(json.dumps(client_frames(setattr), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
