"""Tests for the probe endpoint and the adaptive contour client."""

import numpy as np
import pytest

from repro.core import NDPServer
from repro.core.planner import AdaptiveContourClient
from repro.filters import contour_grid
from repro.grid import DataArray, UniformGrid
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem
from repro.storage.netsim import Testbed

from tests.conftest import make_sphere_grid


@pytest.fixture
def setup():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    # Sparse workload: a thin spherical shell crosses the contour.
    sparse = make_sphere_grid(16)
    fs.write_object("sparse.vgf", write_vgf(sparse, codec="raw"))
    # Dense workload: noise crossing zero everywhere.
    dense = UniformGrid((16, 16, 16))
    rng = np.random.default_rng(2)
    dense.point_data.add(DataArray("r", rng.normal(size=16**3).astype(np.float32)))
    fs.write_object("dense.vgf", write_vgf(dense, codec="raw"))
    server = NDPServer(fs)
    client = RPCClient(InProcessTransport(server.dispatch))
    remote = S3FileSystem(store, "sim")
    return {"sparse": sparse, "dense": dense}, client, remote


class TestProbeEndpoint:
    def test_probe_reports_selectivity(self, setup):
        grids, client, _ = setup
        probe = client.call("probe_selectivity", "sparse.vgf", "r", [5.0], "cell-closure")
        assert 0 < probe["selectivity"] < 0.3
        assert probe["raw_bytes"] == 16**3 * 4
        assert probe["total_points"] == 16**3
        assert probe["wire_bytes"] < probe["raw_bytes"]

    def test_probe_matches_local_prefilter(self, setup):
        from repro.core import prefilter_contour

        grids, client, _ = setup
        probe = client.call("probe_selectivity", "sparse.vgf", "r", [5.0], "cell-closure")
        sel = prefilter_contour(grids["sparse"], "r", [5.0])
        assert probe["selected_points"] == sel.count

    @pytest.mark.parametrize("key, value", [("sparse.vgf", 5.0),
                                            ("dense.vgf", 0.0)])
    def test_probe_wire_bytes_are_the_default_reply_s(self, setup, key,
                                                      value):
        """The probe prices the reply a default request would ship."""
        _, client, _ = setup
        probe = client.call("probe_selectivity", key, "r", [value])
        reply = client.call("prefilter_contour", key, "r", [value])
        assert probe["wire_bytes"] == reply["stats"]["wire_bytes"]

    def test_dense_field_probes_near_one(self, setup):
        _, client, _ = setup
        probe = client.call("probe_selectivity", "dense.vgf", "r", [0.0], "cell-closure")
        assert probe["selectivity"] > 0.9


class TestAdaptiveClient:
    def test_routes_sparse_to_ndp(self, setup):
        grids, client, remote = setup
        adaptive = AdaptiveContourClient(client, remote, Testbed())
        pd, info = adaptive.contour("sparse.vgf", "r", [5.0])
        assert info["route"] == "ndp"
        expected = contour_grid(grids["sparse"], "r", [5.0])
        assert np.array_equal(expected.points, pd.points)

    def test_routes_dense_to_baseline(self, setup):
        grids, client, remote = setup
        adaptive = AdaptiveContourClient(client, remote, Testbed())
        pd, info = adaptive.contour("dense.vgf", "r", [0.0])
        assert info["route"] == "baseline"
        expected = contour_grid(grids["dense"], "r", [0.0])
        assert np.array_equal(expected.points, pd.points)

    def test_probe_cached_per_configuration(self, setup):
        _, client, remote = setup
        probes = []
        original = client.call

        def counting(method, *args):
            if method == "probe_selectivity":
                probes.append(args)
            return original(method, *args)

        client.call = counting
        adaptive = AdaptiveContourClient(client, remote, Testbed())
        for _ in range(4):
            adaptive.contour("sparse.vgf", "r", [5.0])
        assert len(probes) == 1  # one probe, many loads
        adaptive.contour("sparse.vgf", "r", [6.0])
        assert len(probes) == 2  # new values -> new probe

    def test_decision_exposed(self, setup):
        _, client, remote = setup
        adaptive = AdaptiveContourClient(client, remote, Testbed())
        decision = adaptive.decision_for("sparse.vgf", "r", [5.0])
        assert decision.use_ndp
        assert decision.predicted_speedup > 1.0
