"""Integration-style unit tests for the NDP server/client pair."""

import numpy as np
import pytest

from repro.core import NDPServer, ndp_contour
from repro.core.encoding import decode_selection
from repro.core.filter_splits import SPLIT_FILTERS
from repro.core.ndp_client import request_selection
from repro.errors import RPCError, RPCRemoteError
from repro.filters import contour_grid
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid, make_wave_grid


@pytest.fixture
def setup():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    grids = {"sphere": make_sphere_grid(12), "wave": make_wave_grid(14)}
    fs.write_object("sphere.vgf", write_vgf(grids["sphere"], codec="gzip",
                                            meta={"timestep": 0}))
    fs.write_object("wave.vgf", write_vgf(grids["wave"], codec="lz4"))
    server = NDPServer(fs)
    client = RPCClient(InProcessTransport(server.dispatch))
    return grids, server, client


class TestServerEndpoints:
    def test_list_objects(self, setup):
        _, _, client = setup
        assert client.call("list_objects", "") == ["sphere.vgf", "wave.vgf"]

    def test_describe(self, setup):
        _, _, client = setup
        desc = client.call("describe", "sphere.vgf")
        assert desc["dims"] == [12, 12, 12]
        assert desc["meta"] == {"timestep": 0}
        assert desc["arrays"][0]["name"] == "r"
        assert desc["arrays"][0]["codec"] == "gzip"

    def test_prefilter_contour(self, setup):
        grids, _, client = setup
        encoded = client.call(
            "prefilter_contour", "sphere.vgf", "r", [4.0], "cell-closure", "auto"
        )
        sel = decode_selection(encoded)
        assert sel.count > 0
        stats = encoded["stats"]
        assert stats["raw_bytes"] == grids["sphere"].point_data.get("r").nbytes
        assert 0 < stats["wire_bytes"] < stats["raw_bytes"]
        assert stats["selected_points"] == sel.count

    def test_read_array_fallback(self, setup):
        grids, _, client = setup
        reply = client.call("read_array", "wave.vgf", "f")
        values = np.frombuffer(reply["values"], dtype=np.dtype(reply["dtype"]))
        assert np.array_equal(values, grids["wave"].point_data.get("f").values)

    def test_missing_key_is_remote_error(self, setup):
        _, _, client = setup
        with pytest.raises(RPCRemoteError):
            client.call("prefilter_contour", "nope.vgf", "r", [1.0], "cell-closure", "auto")

    def test_missing_array_is_remote_error(self, setup):
        _, _, client = setup
        with pytest.raises(RPCRemoteError):
            client.call("prefilter_contour", "sphere.vgf", "zzz", [1.0], "cell-closure", "auto")


class TestWireSuppliedSizes:
    """Frame and histogram sizes are bounded before any read: one
    ``render_contour`` request must not be able to allocate gigabytes."""

    def test_huge_frame_rejected_before_the_read(self, setup):
        # The key does not exist: a server that read first would answer
        # with the store's not-found error, not the bound.
        _, _, client = setup
        with pytest.raises(RPCRemoteError,
                           match=r"RPCError: width must be in \[1, 4096\]"):
            client.call("render_contour", "nope.vgf", "r", [4.0], 10**6, 48)

    @pytest.mark.parametrize("width, height, complaint", [
        (64, 0, r"height must be in \[1, 4096\], got 0"),
        (64, 4097, r"height must be in \[1, 4096\], got 4097"),
        (64.0, 48, "width must be an integer, got 64.0"),
        (64, "48", "height must be an integer, got '48'"),
    ])
    def test_frame_size_checked(self, setup, width, height, complaint):
        _, _, client = setup
        with pytest.raises(RPCRemoteError, match=f"RPCError: {complaint}"):
            client.call("render_contour", "sphere.vgf", "r", [4.0], width, height)

    def test_largest_frame_renders(self, setup):
        _, _, client = setup
        reply = client.call("render_contour", "sphere.vgf", "r", [4.0], 4096, 1)
        assert reply["ppm"].startswith(b"P6\n4096 1\n255\n")

    def test_fractional_bins_rejected(self, setup):
        _, _, client = setup
        with pytest.raises(RPCRemoteError,
                           match="RPCError: bins must be an integer, got 2.5"):
            client.call("array_statistics", "sphere.vgf", "r", 2.5)


def _request(client, key, array, values):
    op = SPLIT_FILTERS["contour"]
    return request_selection(client.call, op, key, array, op.bind({"values": values}))


class TestNDPContourSource:
    def test_pipeline_source(self, setup):
        grids, _, client = setup
        sel, encoded = _request(client, "sphere.vgf", "r", [4.0])
        assert sel.array_name == "r"
        assert encoded.get("stats") is not None

    def test_end_to_end_equals_local(self, setup):
        grids, _, client = setup
        pd, stats = ndp_contour(client, "wave.vgf", "f", [0.0, 0.5])
        expected = contour_grid(grids["wave"], "f", [0.0, 0.5])
        assert np.array_equal(expected.points, pd.points)
        assert np.array_equal(expected.polys.connectivity, pd.polys.connectivity)
        assert stats["codec"] == "lz4"

    def test_missing_values(self, setup):
        _, _, client = setup
        with pytest.raises(RPCError, match="values"):
            ndp_contour(client, "sphere.vgf", "r", [])

    def test_reconfigure(self, setup):
        _, _, client = setup
        n1 = _request(client, "sphere.vgf", "r", [3.0])[0].count
        n2 = _request(client, "sphere.vgf", "r", [5.0])[0].count
        assert n1 != n2


class TestOverTCP:
    def test_full_path_over_sockets(self, setup):
        grids, server, _ = setup
        listener = server.serve_tcp()
        try:
            client = RPCClient.connect_tcp(listener.host, listener.port)
            pd, stats = ndp_contour(client, "sphere.vgf", "r", [4.0])
            expected = contour_grid(grids["sphere"], "r", [4.0])
            assert np.array_equal(expected.points, pd.points)
            client.close()
        finally:
            listener.stop()


class TestTestbedCharging:
    def test_server_charges_phases(self):
        from repro.storage.netsim import Testbed

        tb = Testbed()
        store = ObjectStore(MemoryBackend(), device=tb.ssd)
        store.create_bucket("sim")
        fs = S3FileSystem(store, "sim")
        fs.write_object("g.vgf", write_vgf(make_sphere_grid(12), codec="gzip"))
        tb.reset()
        server = NDPServer(fs, testbed=tb)
        client = RPCClient(InProcessTransport(server.dispatch))
        client.call("prefilter_contour", "g.vgf", "r", [4.0], "cell-closure", "auto")
        assert tb.clock.now > 0
        assert tb.ssd.total_bytes > 0
