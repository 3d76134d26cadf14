"""Cluster degradation: a dead or overloaded shard must not change bytes.

Deterministic fault injection (``tests/faults.py``): a permanently-down
shard falls back to baseline reads of only its own blocks; a shard that
sheds (``ServerOverloadedError``) is retried per policy and then serves;
either way the stitched geometry stays byte-equal to the healthy run.
"""

import numpy as np
import pytest

from repro.cluster import ClusterClient, load_manifest, shard_object
from repro.core.ndp_server import NDPServer
from repro.errors import RPCTransportError
from repro.filters import contour_grid
from repro.rpc.msgpack import pack, unpack
from repro.rpc.pool import EndpointPool
from repro.rpc.resilience import RetryPolicy
from repro.rpc.transport import InProcessTransport
from repro.io import write_vgf
from repro.storage.object_store import MemoryBackend, ObjectStore
from repro.storage.s3fs import S3FileSystem

from tests.cluster.test_stitch import assert_poly_bytes_equal
from tests.conftest import make_wave_grid
from tests.faults import FakeClock, FaultSchedule, FaultyTransport, drops

VALUES = [0.2]
SHARDS = 3


@pytest.fixture
def cluster_env():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    grid = make_wave_grid(14)
    fs.write_object("w.vgf", write_vgf(grid, codec="lz4"))
    manifest_obj = shard_object(fs, "w.vgf", blocks=(3, 1, 1), shards=SHARDS)
    reference = contour_grid(grid, "f", VALUES)
    return fs, manifest_obj, reference


def build_pool(fs, wrap, clock, retries=3):
    """Per-shard in-process servers; ``wrap(shard, transport)`` injects."""
    transports = [
        wrap(i, InProcessTransport(NDPServer(fs).rpc.dispatch))
        for i in range(SHARDS)
    ]
    return EndpointPool(
        transports,
        retry=RetryPolicy(max_attempts=retries, base_delay=0.01,
                          jitter=0.0, deadline=None),
        clock=clock, sleep=clock.sleep,
    )


class TestShardDown:
    def test_dead_shard_falls_back_to_baseline_blocks(self, cluster_env):
        fs, manifest_obj, reference = cluster_env
        clock = FakeClock()
        down = FaultyTransport(
            InProcessTransport(NDPServer(fs).rpc.dispatch),
            FaultSchedule.permanently_down(), clock,
        )

        def wrap(shard, transport):
            return down if shard == 1 else transport

        pool = build_pool(fs, wrap, clock)
        manifest = load_manifest(fs, manifest_obj.manifest_key)
        cluster = ClusterClient(pool, manifest, fallback_fs=fs)
        result, stats = cluster.contour("f", VALUES)

        assert_poly_bytes_equal(result, reference)
        # Only shard 1's single block degraded; the others served NDP.
        assert stats["fallback_blocks"] == 1
        assert stats["fallback_bytes"] > 0
        assert "injected: server down" in stats["last_fallback_reason"]
        # The resilient wrapper really retried before giving up.
        assert down.attempts == 3
        assert len(clock.sleeps) == 2

    def test_dead_shard_without_fallback_raises(self, cluster_env):
        fs, manifest_obj, _ = cluster_env
        clock = FakeClock()

        def wrap(shard, transport):
            if shard == 2:
                return FaultyTransport(
                    transport, FaultSchedule.permanently_down(), clock
                )
            return transport

        pool = build_pool(fs, wrap, clock)
        manifest = load_manifest(fs, manifest_obj.manifest_key)
        cluster = ClusterClient(pool, manifest, fallback_fs=None)
        with pytest.raises(RPCTransportError):
            cluster.contour("f", VALUES)

    def test_transient_drops_recover_without_fallback(self, cluster_env):
        fs, manifest_obj, reference = cluster_env
        clock = FakeClock()
        flaky = FaultyTransport(
            InProcessTransport(NDPServer(fs).rpc.dispatch),
            FaultSchedule(drops(2)), clock,
        )

        def wrap(shard, transport):
            return flaky if shard == 0 else transport

        pool = build_pool(fs, wrap, clock)
        manifest = load_manifest(fs, manifest_obj.manifest_key)
        cluster = ClusterClient(pool, manifest, fallback_fs=fs)
        result, stats = cluster.contour("f", VALUES)
        assert_poly_bytes_equal(result, reference)
        assert stats["fallback_blocks"] == 0  # retries absorbed the drops
        assert pool.stats.as_dict().get("retries", 0) == 2


class ShedFirst:
    """Dispatcher wrapper: shed the first ``n`` calls, then pass through.

    Builds the exact wire shape a real fair-queue shed produces
    (a response whose error starts with ``ServerOverloadedError``), so
    the client's shed-sniffing and retry-after handling are exercised
    end to end.
    """

    def __init__(self, dispatch, n):
        self.dispatch = dispatch
        self.remaining = n
        self.shed = 0

    def __call__(self, payload: bytes) -> bytes:
        if self.remaining > 0:
            self.remaining -= 1
            self.shed += 1
            msgid = unpack(payload)[1]
            return pack([
                1, msgid,
                "ServerOverloadedError: injected shed retry_after=0.01",
                None,
            ])
        return self.dispatch(payload)


class TestShardOverload:
    def test_shed_shard_retries_then_serves(self, cluster_env):
        fs, manifest_obj, reference = cluster_env
        clock = FakeClock()
        shedder = ShedFirst(NDPServer(fs).rpc.dispatch, n=2)

        def wrap(shard, transport):
            return InProcessTransport(shedder) if shard == 1 else transport

        pool = build_pool(fs, wrap, clock, retries=4)
        manifest = load_manifest(fs, manifest_obj.manifest_key)
        cluster = ClusterClient(pool, manifest, fallback_fs=fs)
        result, stats = cluster.contour("f", VALUES)

        assert_poly_bytes_equal(result, reference)
        assert shedder.shed == 2
        assert stats["fallback_blocks"] == 0  # recovered inside retry budget
        events = pool.stats.as_dict()
        assert events.get("overloads", 0) == 2
        # retry_after honoured: each shed sleep is >= the advertised 0.01s.
        assert len(clock.sleeps) == 2
        assert all(s >= 0.01 for s in clock.sleeps)

    def test_persistently_shedding_shard_falls_back(self, cluster_env):
        fs, manifest_obj, reference = cluster_env
        clock = FakeClock()
        shedder = ShedFirst(NDPServer(fs).rpc.dispatch, n=10**9)

        def wrap(shard, transport):
            return InProcessTransport(shedder) if shard == 0 else transport

        pool = build_pool(fs, wrap, clock)
        manifest = load_manifest(fs, manifest_obj.manifest_key)
        cluster = ClusterClient(pool, manifest, fallback_fs=fs)
        result, stats = cluster.contour("f", VALUES)

        assert_poly_bytes_equal(result, reference)
        assert stats["fallback_blocks"] == 1
        assert "ServerOverloadedError" in stats["last_fallback_reason"]
