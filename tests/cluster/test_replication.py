"""R-way replication: chains in the manifest, failover in the client.

The acceptance bar for the replicated cluster is strict: with R=2 and
any single replica down, :meth:`ClusterClient.contour` must return
geometry byte-identical to the monolithic pipeline with **zero**
baseline fallback reads — failover is a replica-to-replica fast path,
not a degradation to local reads.
"""

from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterClient,
    ManifestWatcher,
    load_manifest,
    replica_chain,
    shard_object,
    write_manifest,
)
from repro.cluster.manifest import BlockObject
from repro.core.ndp_server import NDPServer
from repro.errors import FormatError, ReproError, RPCTransportError
from repro.filters import contour_grid
from repro.rpc.pool import EndpointPool
from repro.rpc.resilience import RetryPolicy
from repro.rpc.transport import InProcessTransport
from repro.io import write_vgf
from repro.storage.object_store import MemoryBackend, ObjectStore
from repro.storage.s3fs import S3FileSystem

from tests.cluster.test_stitch import assert_poly_bytes_equal
from tests.conftest import make_wave_grid
from tests.faults import FakeClock, FaultSchedule, FaultyTransport

VALUES = [0.2]
SHARDS = 3


def make_cluster(replicas=2, dim=14, blocks=(3, 1, 1), shards=SHARDS):
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    grid = make_wave_grid(dim)
    fs.write_object("w.vgf", write_vgf(grid, codec="lz4"))
    manifest = shard_object(fs, "w.vgf", blocks=blocks, shards=shards,
                            replicas=replicas)
    reference = contour_grid(grid, "f", VALUES)
    return fs, manifest, reference


def build_pool(fs, wrap=None, shards=SHARDS, retries=2, clock=None,
               **kwargs):
    clock = clock if clock is not None else FakeClock()
    wrap = wrap if wrap is not None else (lambda shard, t: t)
    transports = [
        wrap(i, InProcessTransport(NDPServer(fs).rpc.dispatch))
        for i in range(shards)
    ]
    return EndpointPool(
        transports,
        retry=RetryPolicy(max_attempts=retries, base_delay=0.01,
                          jitter=0.0, deadline=None),
        clock=clock, sleep=clock.sleep, **kwargs,
    )


# ---------------------------------------------------------------------------
# Manifest-level replication
# ---------------------------------------------------------------------------


class TestReplicaChains:
    def test_replica_chain_is_consecutive_wrap(self):
        assert replica_chain(0, 3, 2) == (0, 1)
        assert replica_chain(2, 3, 2) == (2, 0)
        assert replica_chain(7, 3, 3) == (1, 2, 0)
        assert replica_chain(4, 5, 1) == (4,)

    def test_replica_chain_validates_range(self):
        with pytest.raises(ReproError):
            replica_chain(0, 3, 0)
        with pytest.raises(ReproError):
            replica_chain(0, 3, 4)

    def test_block_object_validates_chain(self):
        spec = make_cluster()[1].block_objects[0].spec
        with pytest.raises(FormatError):
            BlockObject(spec, "k", shard=1, replicas=(0, 1))  # wrong head
        with pytest.raises(FormatError):
            BlockObject(spec, "k", shard=0, replicas=(0, 1, 0))  # dup

    def test_manifest_round_trips_chains(self):
        fs, manifest, _ = make_cluster(replicas=2)
        loaded = load_manifest(fs, manifest.manifest_key)
        assert loaded.replication_factor == 2
        assert loaded.map_version == 1
        for bo in loaded.block_objects:
            assert bo.replicas == replica_chain(bo.spec.index, SHARDS, 2)
            assert bo.replicas[0] == bo.shard

    def test_old_manifest_without_replicas_loads_single_chains(self):
        fs, manifest, _ = make_cluster(replicas=1)
        # Simulate a pre-replication manifest: strip the new keys.
        import json

        raw = json.loads(fs.read_object(manifest.manifest_key))
        assert raw.pop("map_version", None) is not None
        for block in raw["block_objects"]:
            block.pop("replicas", None)
        # Unsigned reload path: rewrite without the signature check.
        doc = {k: v for k, v in raw.items() if k != "signature"}
        from repro.cluster.manifest import ShardManifest

        old = ShardManifest.from_doc(doc)
        assert old.map_version == 1
        assert old.replication_factor == 1
        for bo in old.block_objects:
            assert bo.replicas == (bo.shard,)

    def test_blocks_served_by_includes_replicas(self):
        _, manifest, _ = make_cluster(replicas=2)
        for shard in range(SHARDS):
            served = {bo.spec.index
                      for bo in manifest.blocks_served_by(shard)}
            primary = {bo.spec.index
                       for bo in manifest.blocks_for_shard(shard)}
            assert primary <= served


# ---------------------------------------------------------------------------
# Failover correctness: byte-identity with zero baseline reads
# ---------------------------------------------------------------------------


class TestFailoverByteIdentity:
    @pytest.mark.parametrize("dead", range(SHARDS))
    def test_any_single_dead_replica_is_byte_identical(self, dead):
        fs, manifest_obj, reference = make_cluster(replicas=2)
        clock = FakeClock()

        def wrap(shard, transport):
            if shard == dead:
                return FaultyTransport(
                    transport, FaultSchedule.permanently_down(), clock
                )
            return transport

        pool = build_pool(fs, wrap, clock=clock, retries=1)
        manifest = load_manifest(fs, manifest_obj.manifest_key)
        # No fallback_fs: the *only* way this can succeed is replica
        # failover.  Zero baseline reads is proven by construction.
        cluster = ClusterClient(pool, manifest, fallback_fs=None)
        result, stats = cluster.contour("f", VALUES)
        assert_poly_bytes_equal(result, reference)
        assert stats["fallback_blocks"] == 0
        # Blocks whose primary was the dead shard were served by their
        # surviving replica.
        dead_led = sum(1 for bo in manifest.block_objects
                       if bo.shard == dead)
        assert stats["failover_blocks"] >= dead_led
        if dead_led:
            assert stats["failovers"] >= dead_led

    def test_r1_without_fallback_still_raises(self):
        fs, manifest_obj, _ = make_cluster(replicas=1)
        clock = FakeClock()

        def wrap(shard, transport):
            if shard == 1:
                return FaultyTransport(
                    transport, FaultSchedule.permanently_down(), clock
                )
            return transport

        pool = build_pool(fs, wrap, clock=clock, retries=1)
        manifest = load_manifest(fs, manifest_obj.manifest_key)
        cluster = ClusterClient(pool, manifest, fallback_fs=None)
        with pytest.raises(RPCTransportError):
            cluster.contour("f", VALUES)

    def test_whole_chain_down_degrades_to_baseline(self):
        fs, manifest_obj, reference = make_cluster(replicas=2)
        clock = FakeClock()
        manifest = load_manifest(fs, manifest_obj.manifest_key)
        # Find a block and kill its *entire* chain.
        victim = manifest.block_objects[0]

        def wrap(shard, transport):
            if shard in victim.replicas:
                return FaultyTransport(
                    transport, FaultSchedule.permanently_down(), clock
                )
            return transport

        pool = build_pool(fs, wrap, clock=clock, retries=1)
        cluster = ClusterClient(pool, manifest, fallback_fs=fs)
        result, stats = cluster.contour("f", VALUES)
        assert_poly_bytes_equal(result, reference)
        assert stats["fallback_blocks"] >= 1


# ---------------------------------------------------------------------------
# Live shard map: version tokens, refresh, watcher
# ---------------------------------------------------------------------------


class TestLiveMap:
    def test_reply_token_triggers_refresh(self):
        fs, manifest_obj, reference = make_cluster(replicas=2)
        stale = load_manifest(fs, manifest_obj.manifest_key)
        # A rebalancer wrote generation 2; servers already serve it.
        fresh = replace(stale, map_version=2)
        write_manifest(fs, fresh.manifest_key, fresh)
        clock = FakeClock()
        transports = [
            InProcessTransport(NDPServer(fs, map_version=2).rpc.dispatch)
            for _ in range(SHARDS)
        ]
        pool = EndpointPool(transports, clock=clock, sleep=clock.sleep)
        cluster = ClusterClient(pool, stale, manifest_fs=fs)
        result, stats = cluster.contour("f", VALUES)
        assert_poly_bytes_equal(result, reference)
        assert stats["map_version"] == 1          # routed with the old map
        assert stats["stale_map"] is True
        assert stats["map_refreshed"] is True
        assert cluster.manifest.map_version == 2  # next request uses gen 2

    def test_no_manifest_fs_means_no_refresh(self):
        fs, manifest_obj, _ = make_cluster(replicas=1)
        stale = load_manifest(fs, manifest_obj.manifest_key)
        clock = FakeClock()
        transports = [
            InProcessTransport(NDPServer(fs, map_version=5).rpc.dispatch)
            for _ in range(SHARDS)
        ]
        pool = EndpointPool(transports, clock=clock, sleep=clock.sleep)
        cluster = ClusterClient(pool, stale)
        _, stats = cluster.contour("f", VALUES)
        assert stats.get("stale_map") is True
        assert stats["map_refreshed"] is False
        assert cluster.manifest.map_version == 1

    def test_same_generation_reply_is_not_stale(self):
        fs, manifest_obj, _ = make_cluster(replicas=1)
        manifest = load_manifest(fs, manifest_obj.manifest_key)
        clock = FakeClock()
        transports = [
            InProcessTransport(NDPServer(fs, map_version=1).rpc.dispatch)
            for _ in range(SHARDS)
        ]
        pool = EndpointPool(transports, clock=clock, sleep=clock.sleep)
        cluster = ClusterClient(pool, manifest, manifest_fs=fs)
        _, stats = cluster.contour("f", VALUES)
        assert "stale_map" not in stats

    def test_watcher_tracks_generations(self):
        fs, manifest_obj, _ = make_cluster(replicas=2)
        clock = FakeClock()
        watcher = ManifestWatcher(fs, manifest_obj.manifest_key,
                                  min_interval=1.0, clock=clock)
        assert watcher.version() == 1
        manifest = load_manifest(fs, manifest_obj.manifest_key)
        write_manifest(fs, manifest.manifest_key,
                       replace(manifest, map_version=2))
        # Inside the poll interval the cached generation still serves.
        assert watcher.version() == 1
        clock.advance(1.5)
        assert watcher.version() == 2
        assert watcher.manifest().map_version == 2

    def test_watcher_keeps_last_good_on_read_failure(self):
        fs, manifest_obj, _ = make_cluster(replicas=1)
        clock = FakeClock()
        watcher = ManifestWatcher(fs, manifest_obj.manifest_key,
                                  min_interval=1.0, clock=clock)
        assert watcher.version() == 1
        fs.write_object(manifest_obj.manifest_key, b"not json {{{")
        clock.advance(2.0)
        # The manifest got clobbered mid-flight: the watcher serves the
        # last trusted generation instead of crashing the server.
        assert watcher.version() == 1
