"""Server-level tests for storage-side caching, single-flight, and batch ROI.

Covers the caching subsystem end to end: warm sweeps skip store reads,
replies stay bit-identical to a cold server, overwrites invalidate via
the store version token, Testbed phase charging stays honest on hits,
``prefilter_batch`` reads each object once and forwards ROIs, and the
TCP listener's threads coalesce a stampede into one store read.
"""

import threading

import numpy as np
import pytest

from repro.core import NDPServer, ndp_batch, ndp_contour
from repro.core.prefetch import NDPPrefetcher
from repro.filters import contour_grid
from repro.grid import Bounds, DataArray, UniformGrid
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem
from repro.storage.netsim import NATIVE_WIRE_CODEC, Testbed

from tests.conftest import make_sphere_grid, make_wave_grid


class CountingBackend(MemoryBackend):
    """MemoryBackend that counts data-plane GETs (reads of object bytes)."""

    def __init__(self, read_delay: float = 0.0):
        super().__init__()
        self._count_lock = threading.Lock()
        self.get_calls = 0
        self.read_delay = read_delay

    def get(self, bucket, key, offset, length):
        with self._count_lock:
            self.get_calls += 1
        if self.read_delay:
            threading.Event().wait(self.read_delay)
        return super().get(bucket, key, offset, length)


def make_env(grid, key="g.vgf", codec="lz4", **server_kwargs):
    backend = CountingBackend()
    store = ObjectStore(backend)
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    fs.write_object(key, write_vgf(grid, codec=codec))
    backend.get_calls = 0
    return backend, fs, NDPServer(fs, **server_kwargs)


CACHED = dict(cache_bytes=64 * 2**20, selection_cache_bytes=16 * 2**20)


class TestArrayCache:
    def test_warm_sweep_skips_store_reads(self):
        grid = make_sphere_grid(14)
        backend, _, server = make_env(grid, **CACHED)
        client = RPCClient(InProcessTransport(server.dispatch))

        client.call("prefilter_contour", "g.vgf", "r", [3.0])
        cold_reads = backend.get_calls
        assert cold_reads >= 1
        for v in (4.0, 5.0, 6.0):  # new values: selection misses, array hits
            client.call("prefilter_contour", "g.vgf", "r", [v])
        assert backend.get_calls == cold_reads

        stats = client.call("stats")["collected"]
        assert stats["array_cache"]["hits"] == 3
        assert stats["array_cache"]["misses"] == 1
        assert stats["selection_cache"]["misses"] == 4

    def test_warm_replies_bit_identical_to_cold_server(self):
        grid = make_wave_grid(16)
        _, _, warm_server = make_env(grid, **CACHED)
        warm = RPCClient(InProcessTransport(warm_server.dispatch))
        warm.call("prefilter_contour", "g.vgf", "f", [0.0])  # prime

        _, _, cold_server = make_env(grid)
        cold = RPCClient(InProcessTransport(cold_server.dispatch))

        for values in ([0.2], [0.0], [0.0, 0.4]):
            pd_warm, _ = ndp_contour(warm, "g.vgf", "f", values)
            pd_cold, _ = ndp_contour(cold, "g.vgf", "f", values)
            assert np.array_equal(pd_warm.points, pd_cold.points)
            assert np.array_equal(
                pd_warm.polys.connectivity, pd_cold.polys.connectivity
            )

    def test_identical_request_hits_selection_cache(self):
        grid = make_sphere_grid(12)
        backend, _, server = make_env(grid, **CACHED)
        client = RPCClient(InProcessTransport(server.dispatch))
        first = client.call("prefilter_contour", "g.vgf", "r", [4.0])
        second = client.call("prefilter_contour", "g.vgf", "r", [4.0])
        assert first == second
        stats = client.call("stats")
        assert stats["collected"]["selection_cache"]["hits"] == 1
        # hits still count as served requests
        assert stats["counters"]["requests"] == 2

    def test_value_order_is_canonicalized_in_the_key(self):
        grid = make_wave_grid(12)
        _, _, server = make_env(grid, **CACHED)
        client = RPCClient(InProcessTransport(server.dispatch))
        client.call("prefilter_contour", "g.vgf", "f", [0.0, 0.4])
        client.call("prefilter_contour", "g.vgf", "f", [0.4, 0.0])
        stats = client.call("stats")["collected"]
        assert stats["selection_cache"]["hits"] == 1

    def test_overwrite_invalidates_via_version_token(self):
        grid = make_sphere_grid(10)
        backend, fs, server = make_env(grid, **CACHED)
        client = RPCClient(InProcessTransport(server.dispatch))
        before, _ = ndp_contour(client, "g.vgf", "r", [4.0])

        shifted = make_sphere_grid(10)
        arr = shifted.point_data.get("r")
        shifted.point_data.add(DataArray("r", arr.values + 1.0))
        fs.write_object("g.vgf", write_vgf(shifted, codec="lz4"))

        after, _ = ndp_contour(client, "g.vgf", "r", [4.0])
        expected = contour_grid(shifted, "r", [4.0])
        assert np.array_equal(after.points, expected.points)
        assert not np.array_equal(before.points, after.points)

    def test_threshold_and_slice_cached_too(self):
        grid = make_sphere_grid(12)
        backend, _, server = make_env(grid, **CACHED)
        client = RPCClient(InProcessTransport(server.dispatch))
        client.call("prefilter_threshold", "g.vgf", "r", 0.0, 3.0)
        reads = backend.get_calls
        client.call("prefilter_threshold", "g.vgf", "r", 0.0, 3.0)
        client.call("prefilter_slice", "g.vgf", "r", 2, 5.0)
        client.call("prefilter_slice", "g.vgf", "r", 2, 5.0)
        assert backend.get_calls == reads  # array block read exactly once
        stats = client.call("stats")["collected"]
        assert stats["selection_cache"]["hits"] == 2

    def test_read_array_and_statistics_share_the_cache(self):
        grid = make_sphere_grid(12)
        backend, _, server = make_env(grid, cache_bytes=64 * 2**20)
        client = RPCClient(InProcessTransport(server.dispatch))
        client.call("read_array", "g.vgf", "r")
        reads = backend.get_calls
        client.call("array_statistics", "g.vgf", "r", 16)
        client.call("probe_selectivity", "g.vgf", "r", [4.0])
        client.call("render_contour", "g.vgf", "r", [4.0], 64, 48)
        assert backend.get_calls == reads


class TestTestbedHonesty:
    def make_tb_env(self, **server_kwargs):
        tb = Testbed()
        backend = CountingBackend()
        store = ObjectStore(backend, device=tb.ssd)
        store.create_bucket("sim")
        fs = S3FileSystem(store, "sim")
        fs.write_object("g.vgf", write_vgf(make_sphere_grid(14), codec="gzip"))
        tb.reset()
        server = NDPServer(fs, testbed=tb, **server_kwargs)
        return tb, RPCClient(InProcessTransport(server.dispatch))

    def test_array_hit_skips_read_and_decompress_charges(self):
        tb, client = self.make_tb_env(cache_bytes=64 * 2**20)
        # Priced with the paper's reply codec, as the testbed models it.
        native = ("cell-closure", "auto", NATIVE_WIRE_CODEC)
        client.call("prefilter_contour", "g.vgf", "r", [4.0], *native)
        cold_time = tb.clock.now
        cold_ssd = tb.ssd.total_bytes
        client.call("prefilter_contour", "g.vgf", "r", [5.0], *native)
        warm_time = tb.clock.now - cold_time
        assert tb.ssd.total_bytes == cold_ssd  # no new simulated SSD bytes
        # Warm request pays scan + wire compress only; the gzip read +
        # decompress dominate the cold load.
        assert warm_time < cold_time / 2

    def test_selection_hit_charges_nothing(self):
        tb, client = self.make_tb_env(**CACHED)
        client.call("prefilter_contour", "g.vgf", "r", [4.0])
        t0 = tb.clock.now
        client.call("prefilter_contour", "g.vgf", "r", [4.0])
        assert tb.clock.now == t0

    def test_cold_server_still_charges_every_request(self):
        tb, client = self.make_tb_env()  # caches disabled
        client.call("prefilter_contour", "g.vgf", "r", [4.0])
        t1 = tb.clock.now
        client.call("prefilter_contour", "g.vgf", "r", [4.0])
        assert tb.clock.now > t1


class TestBatch:
    def test_batch_reads_each_object_once_even_uncached(self):
        grid = make_wave_grid(14)
        grid.point_data.add(DataArray("g", grid.point_data.get("f").values * 2.0))
        backend, _, server = make_env(grid)  # caches off
        client = RPCClient(InProcessTransport(server.dispatch))
        requests = [
            {"kind": "contour", "array": "f", "values": [0.0]},
            {"kind": "contour", "array": "f", "values": [0.3]},
            {"kind": "threshold", "array": "f", "lower": 0.0, "upper": 1.0},
            {"kind": "contour", "array": "g", "values": [0.0]},
        ]
        client.call("prefilter_batch", "g.vgf", requests)
        per_load = backend.get_calls
        backend.get_calls = 0
        # 4 requests over 2 distinct arrays: exactly 2 loads.
        client.call("prefilter_batch", "g.vgf", requests)
        assert backend.get_calls == per_load
        single = CountingBackend()
        store = ObjectStore(single)
        store.create_bucket("sim")
        fs2 = S3FileSystem(store, "sim")
        fs2.write_object("g.vgf", write_vgf(grid, codec="lz4"))
        single.get_calls = 0
        NDPServer(fs2).prefilter_contour("g.vgf", "f", [0.0])
        one_load = single.get_calls
        assert per_load == 2 * one_load

    def test_batch_roi_equals_direct_call(self):
        """Regression: ``prefilter_batch`` used to drop contour ROIs."""
        grid = make_wave_grid(16)
        _, _, server = make_env(grid)
        client = RPCClient(InProcessTransport(server.dispatch))
        roi = Bounds(2, 8, 0, 7, 3, 10)

        direct, direct_stats = ndp_contour(client, "g.vgf", "f", [0.0], roi=roi)
        [(batched, batch_stats)] = ndp_batch(
            client, "g.vgf",
            [{"kind": "contour", "array": "f", "values": [0.0], "roi": roi}],
        )
        assert np.array_equal(direct.points, batched.points)
        assert np.array_equal(
            direct.polys.connectivity, batched.polys.connectivity
        )
        assert batch_stats["selected_points"] == direct_stats["selected_points"]

        # And the ROI genuinely restricts: the whole-domain result is bigger.
        [(whole, _)] = ndp_batch(
            client, "g.vgf", [{"kind": "contour", "array": "f", "values": [0.0]}]
        )
        assert whole.num_points > batched.num_points

    def test_batch_roi_as_plain_list(self):
        grid = make_wave_grid(16)
        _, _, server = make_env(grid)
        client = RPCClient(InProcessTransport(server.dispatch))
        roi = [2, 8, 0, 7, 3, 10]
        [(batched, _)] = ndp_batch(
            client, "g.vgf",
            [{"kind": "contour", "array": "f", "values": [0.0], "roi": roi}],
        )
        expected = contour_grid(grid, "f", [0.0], roi=Bounds(*roi))
        assert np.array_equal(expected.points, batched.points)

    def test_prefetcher_forwards_roi(self):
        """Regression: ``NDPPrefetcher._issue`` could not pass an ROI."""
        grid = make_wave_grid(16)
        _, _, server = make_env(grid)
        client = RPCClient(InProcessTransport(server.dispatch))
        roi = Bounds(2, 8, 0, 7, 3, 10)
        requests = [
            {"key": "g.vgf", "kind": "contour", "array": "f",
             "values": [0.0], "roi": roi},
        ]
        [(key, pd, stats)] = list(NDPPrefetcher(client, requests, depth=1))
        expected = contour_grid(grid, "f", [0.0], roi=roi)
        assert key == "g.vgf"
        assert np.array_equal(expected.points, pd.points)
        assert stats["selected_points"] < grid.num_points


class TestConcurrencySingleFlight:
    def test_stampede_over_tcp_reads_store_once(self):
        """Many threads hammering one (key, array) through ``serve_tcp``
        produce exactly one store read, correct results on every thread,
        and consistent ``stats`` counters."""
        grid = make_sphere_grid(14)
        # A slow store makes the stampede window real: every thread
        # arrives while the first load is still in flight.
        backend = CountingBackend(read_delay=0.05)
        store = ObjectStore(backend)
        store.create_bucket("sim")
        fs = S3FileSystem(store, "sim")
        fs.write_object("g.vgf", write_vgf(grid, codec="lz4"))

        # Cold reference: how many GETs one uncached load costs.
        probe_backend = CountingBackend()
        probe_store = ObjectStore(probe_backend)
        probe_store.create_bucket("sim")
        probe_fs = S3FileSystem(probe_store, "sim")
        probe_fs.write_object("g.vgf", write_vgf(grid, codec="lz4"))
        probe_backend.get_calls = 0
        NDPServer(probe_fs).prefilter_contour("g.vgf", "r", [4.0])
        one_load = probe_backend.get_calls
        assert one_load >= 1

        backend.get_calls = 0
        server = NDPServer(fs, **CACHED)
        listener = server.serve_tcp()
        expected = contour_grid(grid, "r", [4.0])
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results: list = [None] * n_threads
        errors: list = []

        def worker(i: int) -> None:
            try:
                client = RPCClient.connect_tcp(listener.host, listener.port)
                try:
                    barrier.wait(5.0)
                    pd, _stats = ndp_contour(client, "g.vgf", "r", [4.0])
                    results[i] = pd
                finally:
                    client.close()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            listener.stop()

        assert not errors
        # Single-flight: the store was read exactly once for all N threads.
        assert backend.get_calls == one_load
        for pd in results:
            assert pd is not None
            assert np.array_equal(expected.points, pd.points)

        snap = server.stats_snapshot()
        stats = snap["counters"]
        assert stats["requests"] == n_threads
        assert stats["prefilter_calls"] == n_threads
        sel = snap["collected"]["selection_cache"]
        assert sel["misses"] == 1
        assert sel["hits"] + sel["coalesced"] == n_threads - 1
        arr = snap["collected"]["array_cache"]
        assert arr["misses"] == 1
        assert arr["hits"] + arr["coalesced"] == 0  # all folded into selection
        # Every request was accounted, scanned bytes reflect N requests.
        assert stats["raw_bytes_scanned"] == n_threads * 14**3 * 4

    def test_health_reports_cache_fields(self):
        grid = make_sphere_grid(10)
        _, _, server = make_env(grid, **CACHED)
        client = RPCClient(InProcessTransport(server.dispatch))
        ndp_contour(client, "g.vgf", "r", [4.0])
        report = client.call("health")
        assert report["array_cache"]["enabled"] is True
        assert report["array_cache"]["entries"] == 1
        assert report["selection_cache"]["enabled"] is True
        uncached = NDPServer(S3FileSystem(ObjectStore(MemoryBackend()), "sim"))
        assert uncached.health()["array_cache"] == {"enabled": False}
