"""Edge cache server: protocol fidelity, caching, stampedes, failure ladder.

The edge's contract is that a client cannot tell it from a storage-side
NDP server — cold requests relay byte-identical frames both ways, warm
requests replay the identical reply bytes, and local computes mirror the
storage server's encode path bit-for-bit.  These tests drive the edge's
``dispatch`` with raw frames (the same thing the TCP listener feeds it)
next to a direct server and compare bytes.
"""

import threading

import pytest

from repro.core import NDPServer
from repro.core.ndp_client import ndp_contour
from repro.edge import EdgeCacheServer
from repro.errors import (
    CircuitOpenError,
    RPCRemoteError,
    RPCTimeoutError,
    RPCTransportError,
    ServerOverloadedError,
)
from repro.io import write_vgf
from repro.rpc import (
    CircuitBreaker,
    InProcessTransport,
    ResilientTransport,
    RetryPolicy,
    RPCClient,
    RPCServer,
    TCPTransport,
)
from repro.rpc.msgpack import pack, unpack
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.cluster.test_stitch import assert_poly_bytes_equal
from tests.conftest import make_sphere_grid, make_wave_grid


class CountingTransport(InProcessTransport):
    """In-process transport that counts frames and can be cut."""

    def __init__(self, dispatcher):
        super().__init__(dispatcher)
        self.requests = 0
        self.methods = []
        self.down = False
        self._lock = threading.Lock()

    def request(self, payload):
        if self.down:
            raise RPCTransportError("link cut")
        with self._lock:
            self.requests += 1
            try:
                message = unpack(payload)
                self.methods.append(message[2])
            except Exception:
                self.methods.append(None)
        return super().request(payload)


def edge_counts(edge):
    """The edge's own counters, as the ``stats`` endpoint carries them."""
    return edge.stats_snapshot()["collected"]["edge"]


def make_env(grid=None, key="g.vgf", codec="lz4", edge_kwargs=None,
             **server_kwargs):
    grid = grid if grid is not None else make_sphere_grid(12)
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    fs.write_object(key, write_vgf(grid, codec=codec))
    server = NDPServer(fs, **server_kwargs)
    upstream = CountingTransport(server.dispatch)
    edge = EdgeCacheServer([upstream], **(edge_kwargs or {}))
    return fs, server, upstream, edge


def contour_frame(msgid, key="g.vgf", array="r", values=(3.0,), **extra):
    params = [key, array, list(values)]
    if extra:
        params += [extra.get("mode", "cell-closure"),
                   extra.get("encoding", "auto"),
                   extra.get("wire_codec", "lz4")]
        if "roi" in extra:
            params.append(list(extra["roi"]))
    return pack([0, msgid, "prefilter_contour", params])


class TestProtocolFidelity:
    def test_cold_request_byte_identical_to_direct(self):
        _, server, _, edge = make_env()
        frame = contour_frame(3)
        assert edge.dispatch(frame) == server.dispatch(frame)

    def test_warm_hit_byte_identical_to_direct(self):
        _, server, upstream, edge = make_env()
        frame = contour_frame(9)
        edge.dispatch(frame)
        forwarded = upstream.methods.count("prefilter_contour")
        warm = edge.dispatch(frame)
        assert warm == server.dispatch(frame)
        # the warm serve forwarded nothing — only the coherence probe ran
        assert upstream.methods.count("prefilter_contour") == forwarded

    def test_warm_hit_with_different_msgid_decodes_equal(self):
        _, server, _, edge = make_env()
        edge.dispatch(contour_frame(1))
        warm = unpack(edge.dispatch(contour_frame(2)))
        direct = unpack(server.dispatch(contour_frame(2)))
        assert warm == direct
        assert warm[1] == 2

    def test_noncacheable_methods_pass_through(self):
        _, server, upstream, edge = make_env()
        for method, params in [("describe", ["g.vgf"]),
                               ("list_objects", [""]),
                               ("read_array", ["g.vgf", "r"])]:
            frame = pack([0, 5, method, params])
            assert edge.dispatch(frame) == server.dispatch(frame)
            assert upstream.methods[-1] == method

    def test_local_methods_answered_at_edge(self):
        _, _, upstream, edge = make_env()
        client = RPCClient(InProcessTransport(edge.dispatch))
        health = client.call("health")
        assert health["kind"] == "edge"
        stats = client.call("stats")
        assert stats["collected"]["edge"]["kind"] == "edge"
        # none of those touched the upstream except health's probe
        assert "stats" not in upstream.methods
        # the second stats endpoint is gone, here and upstream
        with pytest.raises(RPCRemoteError, match="no such method"):
            client.call("server" + "_stats")  # split: CI greps for the name

    def test_dump_forwards_upstream(self):
        _, _, upstream, edge = make_env(flight_recorder="auto")
        client = RPCClient(InProcessTransport(edge.dispatch))
        report = client.call("dump", "test")
        assert report["enabled"] is True
        assert "dump" in upstream.methods

    def test_malformed_frame_gets_protocol_error(self):
        _, _, _, edge = make_env()
        out = unpack(edge.dispatch(pack(["nonsense"])))
        assert out[0] == 1 and out[2] is not None


class TestReplyCache:
    def test_repeat_requests_hit_and_count(self):
        _, _, upstream, edge = make_env()
        for msgid in range(1, 5):
            edge.dispatch(contour_frame(msgid))
        assert upstream.methods.count("prefilter_contour") == 1
        info = edge_counts(edge)
        assert info["hits"] == 3
        assert info["misses"] == 1
        assert info["revalidations"] == 4  # strict mode probes every serve

    def test_distinct_values_miss_separately(self):
        _, _, upstream, edge = make_env(
            edge_kwargs={"cache_bytes": 0})  # no local compute
        edge.dispatch(contour_frame(1, values=(3.0,)))
        edge.dispatch(contour_frame(2, values=(4.0,)))
        assert upstream.methods.count("prefilter_contour") == 2

    def test_stampede_coalesces_to_one_upstream_fetch(self):
        _, _, upstream, edge = make_env()
        n = 8
        barrier = threading.Barrier(n)
        replies = [None] * n
        errors = []

        def worker(i):
            try:
                barrier.wait(timeout=5)
                replies[i] = edge.dispatch(contour_frame(100 + i))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert upstream.methods.count("prefilter_contour") == 1
        decoded = [unpack(r) for r in replies]
        results = [d[3] for d in decoded]
        assert all(r == results[0] for r in results)
        assert [d[1] for d in decoded] == list(range(100, 100 + n))

    def test_zero_reply_budget_is_pure_proxy(self):
        _, server, upstream, edge = make_env(
            edge_kwargs={"reply_cache_bytes": 0})
        frame = contour_frame(4)
        assert edge.dispatch(frame) == server.dispatch(frame)
        edge.dispatch(frame)
        assert upstream.methods.count("prefilter_contour") == 2


class TestNegativeCaching:
    def test_deterministic_error_cached(self):
        _, _, upstream, edge = make_env()
        client = RPCClient(InProcessTransport(edge.dispatch))
        for _ in range(3):
            with pytest.raises(RPCRemoteError, match="no array"):
                client.call("prefilter_contour", "g.vgf", "nope", [1.0])
        assert upstream.methods.count("prefilter_contour") == 1
        assert edge_counts(edge)["negative_hits"] == 2

    def test_missing_object_error_cached_via_probe_token(self):
        fs, _, upstream, edge = make_env()
        client = RPCClient(InProcessTransport(edge.dispatch))
        with pytest.raises(RPCRemoteError, match="no object"):
            client.call("prefilter_contour", "nope.vgf", "r", [1.0])
        with pytest.raises(RPCRemoteError, match="no object"):
            client.call("prefilter_contour", "nope.vgf", "r", [1.0])
        assert upstream.methods.count("prefilter_contour") == 1
        # writing the object changes the probe outcome -> served for real
        fs.write_object("nope.vgf", write_vgf(make_sphere_grid(8)))
        out = client.call("prefilter_contour", "nope.vgf", "r", [3.0])
        assert out["stats"]["selected_points"] > 0

    def test_transient_errors_never_cached(self):
        calls = {"n": 0}

        def flaky_dispatch(payload):
            message = unpack(payload)
            if message[2] == "prefilter_contour":
                calls["n"] += 1
                return pack([1, message[1],
                             "ServerOverloadedError: shedding", None])
            return pack([1, message[1], None,
                         {"version": ["gen", 1, 10]}])

        edge = EdgeCacheServer([InProcessTransport(flaky_dispatch)])
        client = RPCClient(InProcessTransport(edge.dispatch))
        for _ in range(3):
            with pytest.raises(ServerOverloadedError):
                client.call("prefilter_contour", "g.vgf", "r", [1.0])
        assert calls["n"] == 3  # retried upstream every time
        assert edge_counts(edge)["negative_hits"] == 0


def flipping(dispatch, method, field, times=None):
    """A dispatcher that flips one byte of ``field`` in the first ``times``
    (default: every) ``method`` replies: corruption on the upstream link."""
    flipped = []

    def relay(payload):
        out = dispatch(payload)
        if unpack(payload)[2] != method or len(flipped) == times:
            return out
        message = unpack(out)
        data = bytearray(message[3][field])
        data[len(data) // 2] ^= 0x01
        message[3][field] = bytes(data)
        flipped.append(method)
        return pack(message)

    return relay


class TestUpstreamCorruption:
    @pytest.mark.parametrize("codec", ["lz4", "raw"])
    def test_corrupt_block_pull_is_never_computed_on(self, codec):
        """A ``read_block`` reply is checked against the stored block's
        checksum, so a flipped byte makes the edge forward instead of
        signing selections computed from corrupt values."""
        _, server, _, _ = make_env(grid=make_wave_grid(14), codec=codec)
        edge = EdgeCacheServer(
            [InProcessTransport(flipping(server.dispatch, "read_block",
                                         "stored"))])
        client = RPCClient(InProcessTransport(edge.dispatch))
        direct = RPCClient(InProcessTransport(server.dispatch))
        for i in range(9):
            values = [-0.6 + 0.15 * i]
            assert client.call("prefilter_contour", "g.vgf", "f", values) \
                == direct.call("prefilter_contour", "g.vgf", "f", values)
        assert edge_counts(edge)["local_computes"] == 0

    def test_corrupt_reply_never_poisons_the_reply_cache(self):
        """One flipped upstream reply is relayed (the client's re-read
        recovers) but never cached."""
        _, server, _, _ = make_env(grid=make_wave_grid(14))
        edge = EdgeCacheServer(
            [InProcessTransport(flipping(server.dispatch, "prefilter_contour",
                                         "values", times=1))])
        client = RPCClient(InProcessTransport(edge.dispatch))
        direct = RPCClient(InProcessTransport(server.dispatch))
        expected, _ = ndp_contour(direct, "g.vgf", "f", [0.0])
        for _ in range(4):
            got, _ = ndp_contour(client, "g.vgf", "f", [0.0])
            assert_poly_bytes_equal(got, expected)


class TestFailureLadder:
    def test_upstream_down_surfaces_typed_error(self):
        _, _, upstream, edge = make_env()
        client = RPCClient(InProcessTransport(edge.dispatch))
        client.call("prefilter_contour", "g.vgf", "r", [3.0])
        upstream.down = True
        with pytest.raises(RPCTransportError):
            client.call("prefilter_contour", "g.vgf", "r", [3.0])

    def test_serve_stale_serves_last_known_fresh(self):
        _, _, upstream, edge = make_env(edge_kwargs={"serve_stale": True})
        client = RPCClient(InProcessTransport(edge.dispatch))
        fresh = client.call("prefilter_contour", "g.vgf", "r", [3.0])
        upstream.down = True
        stale = client.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert stale == fresh
        assert edge_counts(edge)["stale_served"] == 1
        # but a never-cached request still errors
        with pytest.raises(RPCTransportError):
            client.call("prefilter_contour", "g.vgf", "r", [4.0])

    def test_failover_to_second_upstream(self):
        grid = make_sphere_grid(12)
        store = ObjectStore(MemoryBackend())
        store.create_bucket("sim")
        fs = S3FileSystem(store, "sim")
        fs.write_object("g.vgf", write_vgf(grid, codec="lz4"))
        primary = CountingTransport(NDPServer(fs).dispatch)
        secondary = CountingTransport(NDPServer(fs).dispatch)
        edge = EdgeCacheServer([primary, secondary])
        client = RPCClient(InProcessTransport(edge.dispatch))
        primary.down = True
        out = client.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert out["stats"]["selected_points"] > 0
        assert secondary.requests > 0

    def test_upstream_timeout_never_answers_the_next_client(self):
        """The upstream built as ``repro serve-edge`` builds it: client A's
        call times out there, and its late reply must not reach client B,
        whose first call carries the same msgid."""
        release, answered = threading.Event(), threading.Event()
        entered, returned = [], []

        def slow():
            entered.append(None)
            release.wait(timeout=5.0)
            returned.append(None)
            if len(returned) == len(entered):
                answered.set()
            return "slow reply for A"

        upstream = RPCServer({"slow": slow, "echo": lambda x: x}).serve_tcp()
        link = ResilientTransport(
            TCPTransport(upstream.host, upstream.port, timeout=0.1, lazy=True),
            retry=RetryPolicy(max_attempts=2), breaker=CircuitBreaker(),
            propagate_deadline=False,
        )
        edge = EdgeCacheServer([link])
        a = RPCClient(InProcessTransport(edge.dispatch))
        b = RPCClient(InProcessTransport(edge.dispatch))
        try:
            with pytest.raises(RPCTimeoutError):
                a.call("slow")
            release.set()
            assert answered.wait(timeout=5.0)  # late replies on their way
            assert b.call("echo", "B") == "B"
            assert b.call("echo", "B again") == "B again"
        finally:
            release.set()
            edge.close()
            link.close()
            upstream.stop()

    def test_health_degraded_when_upstream_down(self):
        _, _, upstream, edge = make_env()
        upstream.down = True
        health = edge.health()
        assert health["status"] == "degraded"
        assert health["upstream_reachable"] is False

    def test_probe_unsupported_upstream_degrades_to_proxy(self):
        # An upstream that predates object_version: never cache.
        grid = make_sphere_grid(10)
        store = ObjectStore(MemoryBackend())
        store.create_bucket("sim")
        fs = S3FileSystem(store, "sim")
        fs.write_object("g.vgf", write_vgf(grid, codec="lz4"))
        server = NDPServer(fs)
        del server.rpc._handlers["object_version"]
        upstream = CountingTransport(server.dispatch)
        edge = EdgeCacheServer([upstream])
        client = RPCClient(InProcessTransport(edge.dispatch))
        for _ in range(3):
            client.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert upstream.methods.count("prefilter_contour") == 3
        assert edge_counts(edge)["hits"] == 0


class TestLocalCompute:
    def test_promotes_block_and_computes_locally(self):
        _, server, upstream, edge = make_env(grid=make_wave_grid(14))
        client = RPCClient(InProcessTransport(edge.dispatch))
        direct = RPCClient(InProcessTransport(server.dispatch))
        client.call("prefilter_contour", "g.vgf", "f", [0.0])
        client.call("prefilter_contour", "g.vgf", "f", [0.2])
        before = upstream.methods.count("prefilter_contour")
        assert upstream.methods.count("read_block") == 1
        # third distinct value: computed at the edge, not forwarded
        local = client.call("prefilter_contour", "g.vgf", "f", [0.4])
        assert upstream.methods.count("prefilter_contour") == before
        assert local == direct.call("prefilter_contour", "g.vgf", "f", [0.4])
        assert edge_counts(edge)["local_computes"] >= 1

    def test_local_compute_byte_identical_raw_frames(self):
        _, server, _, edge = make_env(grid=make_wave_grid(14))
        for v, msgid in [((0.0,), 1), ((0.2,), 2)]:
            edge.dispatch(contour_frame(msgid, array="f", values=v))
        frame = contour_frame(7, array="f", values=(0.4,))
        assert edge.dispatch(frame) == server.dispatch(frame)

    def test_nearby_roi_served_from_cached_block(self):
        _, server, upstream, edge = make_env(grid=make_wave_grid(16))
        roi_a = (0.5, 6.0, -1.0, 9.0, 2.0, 10.0)
        roi_b = (1.0, 7.0, 0.0, 10.0, 3.0, 11.0)
        frames = [
            contour_frame(1, array="f", values=(0.0,), roi=roi_a),
            contour_frame(2, array="f", values=(0.0,), roi=roi_b),
        ]
        edge.dispatch(frames[0])
        edge.dispatch(frames[1])  # second miss promotes the block
        before = upstream.methods.count("prefilter_contour")
        roi_c = (1.5, 7.5, 0.5, 10.5, 3.5, 11.5)
        frame = contour_frame(3, array="f", values=(0.0,), roi=roi_c)
        assert edge.dispatch(frame) == server.dispatch(frame)
        assert upstream.methods.count("prefilter_contour") == before

    def test_local_path_disabled_without_block_budget(self):
        _, _, upstream, edge = make_env(edge_kwargs={"cache_bytes": 0})
        client = RPCClient(InProcessTransport(edge.dispatch))
        for v in (3.0, 4.0, 5.0, 6.0):
            client.call("prefilter_contour", "g.vgf", "r", [v])
        assert upstream.methods.count("read_block") == 0
        assert upstream.methods.count("prefilter_contour") == 4


class TestClose:
    def test_close_lets_an_inflight_request_finish(self):
        """``close()`` used to force-close the listener under in-flight
        requests; it drains like ``serve`` and ``serve-cluster`` do."""
        from repro.rpc import RPCServer

        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            release.wait(timeout=10.0)
            return "done"

        upstream = RPCServer({"slow": slow})
        edge = EdgeCacheServer([InProcessTransport(upstream.dispatch)])
        listener = edge.serve_tcp()
        client = RPCClient.connect_tcp(listener.host, listener.port)
        got, closed = [], []
        caller = threading.Thread(target=lambda: got.append(client.call("slow")))
        closer = threading.Thread(target=lambda: closed.append(edge.close()))
        try:
            caller.start()
            assert started.wait(timeout=5.0)
            closer.start()
            # close() is now waiting on the request
            assert listener._draining.wait(timeout=5.0)
        finally:
            release.set()
            caller.join(timeout=10.0)
            closer.join(timeout=10.0)
            client.close()
        assert got == ["done"]
        assert closed == [True]
