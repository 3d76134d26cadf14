"""Chaos: replicas dying mid-scatter, random fault schedules, no orphans.

The deterministic suites prove single-fault behaviour; this one kills a
replica *between* the blocks of one scatter, layers seeded random fault
schedules over whole clusters, and asserts the three invariants that
make replication safe to run:

* geometry stays byte-identical to the monolithic pipeline,
* the hedge ledger drains to zero (no orphaned attempts), and
* every server's admission counters return to idle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterClient, load_manifest, shard_object
from repro.core.ndp_server import NDPServer
from repro.filters import contour_grid
from repro.io import write_vgf
from repro.rpc.pool import EndpointPool
from repro.rpc.resilience import RetryPolicy
from repro.rpc.transport import InProcessTransport, TCPTransport
from repro.storage.object_store import MemoryBackend, ObjectStore
from repro.storage.s3fs import S3FileSystem

from tests.cluster.test_stitch import assert_poly_bytes_equal
from tests.conftest import make_wave_grid
from tests.faults import (
    Drop,
    FakeClock,
    FaultSchedule,
    FaultyTransport,
    Ok,
)

pytestmark = pytest.mark.chaos

VALUES = [0.2]
SHARDS = 3
DIM = 12
BLOCKS = (3, 2, 1)


def seed_store():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    grid = make_wave_grid(DIM)
    fs.write_object("w.vgf", write_vgf(grid, codec="lz4"))
    return fs, grid


_REFERENCE = {}


def reference_contour(grid):
    key = id(type(grid))  # grid is deterministic; compute once
    if key not in _REFERENCE:
        _REFERENCE[key] = contour_grid(grid, "f", VALUES)
    return _REFERENCE[key]


def build_cluster(fs, replicas, schedules, clock, retries=1,
                  serve_kwargs=None):
    """Cluster with a per-shard fault schedule (None = clean): in-process,
    or over each shard's TCP listener when ``serve_kwargs`` is given."""
    manifest_obj = shard_object(fs, "w.vgf", blocks=BLOCKS, shards=SHARDS,
                                replicas=replicas)
    servers = [NDPServer(fs) for _ in range(SHARDS)]
    transports = []
    for shard, server in enumerate(servers):
        if serve_kwargs is None:
            transport = InProcessTransport(server.rpc.dispatch)
        else:
            listener = server.serve_tcp(**serve_kwargs)
            transport = TCPTransport(listener.host, listener.port,
                                     timeout=10.0)
        schedule = schedules.get(shard)
        if schedule is not None:
            transport = FaultyTransport(transport, schedule, clock)
        transports.append(transport)
    pool = EndpointPool(
        transports,
        retry=RetryPolicy(max_attempts=retries, base_delay=0.01,
                          jitter=0.0, deadline=None),
        clock=clock, sleep=clock.sleep,
    )
    manifest = load_manifest(fs, manifest_obj.manifest_key)
    return pool, manifest, servers


def assert_admission_idle(servers):
    for shard, server in enumerate(servers):
        admission = server.health().get("admission") or {}
        assert admission.get("inflight", 0) == 0, f"shard {shard} inflight"
        assert admission.get("pending", 0) == 0, f"shard {shard} pending"


class TestKillMidScatter:
    def test_replica_dies_between_blocks_of_one_scatter(self):
        fs, grid = seed_store()
        clock = FakeClock()
        # Shard 0 answers its first block, then drops dead for the rest
        # of the scatter: its remaining blocks must fail over in-flight.
        schedules = {0: FaultSchedule([Ok()], default=Drop("killed mid-scatter"))}
        pool, manifest, servers = build_cluster(fs, 2, schedules, clock)
        cluster = ClusterClient(pool, manifest, fallback_fs=None)
        result, stats = cluster.contour("f", VALUES)
        assert_poly_bytes_equal(result, reference_contour(grid))
        assert stats["fallback_blocks"] == 0
        assert stats["failovers"] >= 1
        # No orphaned hedge attempts: the ledger drains, promptly.
        assert pool.wait_drained(timeout=5.0)
        assert pool.outstanding == 0
        assert_admission_idle(servers)

    def test_kill_under_admission_limits_drains_to_idle(self):
        fs, grid = seed_store()
        clock = FakeClock()
        schedules = {1: FaultSchedule([Ok()], default=Drop("killed"))}
        pool, manifest, servers = build_cluster(
            fs, 2, schedules, clock,
            serve_kwargs={"workers": 2, "tenant_pending": 4},
        )
        try:
            cluster = ClusterClient(pool, manifest, fallback_fs=fs)
            result, stats = cluster.contour("f", VALUES)
            assert_poly_bytes_equal(result, reference_contour(grid))
            assert pool.wait_drained(timeout=5.0)
            assert_admission_idle(servers)
        finally:
            pool.close()
            for server in servers:
                server._listener.stop()

    def test_two_consecutive_scatters_after_a_death(self):
        fs, grid = seed_store()
        clock = FakeClock()
        schedules = {2: FaultSchedule([Ok(), Ok()], default=Drop("killed"))}
        pool, manifest, servers = build_cluster(fs, 2, schedules, clock)
        cluster = ClusterClient(pool, manifest, fallback_fs=None)
        for _ in range(2):
            result, _ = cluster.contour("f", VALUES)
            assert_poly_bytes_equal(result, reference_contour(grid))
            assert pool.wait_drained(timeout=5.0)
        assert_admission_idle(servers)


class TestRandomFaultProperty:
    @given(
        replicas=st.integers(1, SHARDS),
        dead_picks=st.lists(st.integers(0, SHARDS - 1), max_size=SHARDS - 1),
        seeds=st.tuples(*[st.integers(0, 2**16)] * SHARDS),
        drop_rate=st.sampled_from([0.0, 0.3, 0.7]),
    )
    @settings(max_examples=25, deadline=None)
    def test_geometry_byte_identical_under_random_faults(
            self, replicas, dead_picks, seeds, drop_rate):
        # Dead sets stay below R so every block keeps one live replica
        # (consecutive chain placement guarantees it); random retryable
        # fault schedules then rough up the survivors.
        dead = set(dead_picks[:max(0, replicas - 1)])
        fs, grid = seed_store()
        clock = FakeClock()
        schedules = {}
        for shard in range(SHARDS):
            if shard in dead:
                schedules[shard] = FaultSchedule.permanently_down()
            elif drop_rate:
                schedules[shard] = FaultSchedule.random(
                    seeds[shard], length=16, drop=drop_rate, delay=0.1,
                )
        pool, manifest, servers = build_cluster(
            fs, replicas, schedules, clock, retries=2,
        )
        cluster = ClusterClient(pool, manifest, fallback_fs=fs)
        result, stats = cluster.contour("f", VALUES)
        assert_poly_bytes_equal(result, reference_contour(grid))
        assert pool.wait_drained(timeout=5.0)
        assert pool.outstanding == 0
        assert_admission_idle(servers)
        if not dead and drop_rate == 0.0:
            assert stats["fallback_blocks"] == 0

    @given(
        dead=st.integers(0, SHARDS - 1),
        seeds=st.tuples(*[st.integers(0, 2**16)] * SHARDS),
    )
    @settings(max_examples=10, deadline=None)
    def test_r2_single_death_never_touches_baseline(self, dead, seeds):
        # The acceptance bar, as a property: R=2, any single replica
        # dead, arbitrary flakiness elsewhere absorbed by retries —
        # byte-identical with zero baseline reads (no fallback_fs).
        fs, grid = seed_store()
        clock = FakeClock()
        schedules = {dead: FaultSchedule.permanently_down()}
        pool, manifest, servers = build_cluster(
            fs, 2, schedules, clock, retries=2,
        )
        cluster = ClusterClient(pool, manifest, fallback_fs=None)
        result, stats = cluster.contour("f", VALUES)
        assert_poly_bytes_equal(result, reference_contour(grid))
        assert stats["fallback_blocks"] == 0
        assert pool.wait_drained(timeout=5.0)
        assert_admission_idle(servers)
