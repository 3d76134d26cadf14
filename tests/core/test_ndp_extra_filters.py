"""Integration tests for the threshold/slice/batch NDP endpoints."""

import numpy as np
import pytest

from repro.core import NDPServer, ndp_contour, ndp_slice, ndp_threshold
from repro.filters import contour_grid, slice_grid
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_wave_grid, prefilter_batch, threshold_points


@pytest.fixture
def setup():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    grid = make_wave_grid(14)
    fs.write_object("wave.vgf", write_vgf(grid, codec="lz4"))
    server = NDPServer(fs)
    client = RPCClient(InProcessTransport(server.dispatch))
    return grid, client


class TestThresholdEndpoint:
    def test_matches_local(self, setup):
        grid, client = setup
        pd, stats = ndp_threshold(client, "wave.vgf", "f", 0.0, 0.5)
        expected = threshold_points(grid, "f", 0.0, 0.5)
        assert np.array_equal(expected.points, pd.points)
        assert stats["selected_points"] == pd.num_points

    def test_wire_smaller_than_raw(self, setup):
        _, client = setup
        _, stats = ndp_threshold(client, "wave.vgf", "f", 0.4, 0.5)
        assert stats["wire_bytes"] < stats["raw_bytes"]


class TestSliceEndpoint:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_local(self, setup, axis):
        grid, client = setup
        coord = grid.origin[axis] + 6.4 * grid.spacing[axis]
        pd, stats = ndp_slice(client, "wave.vgf", "f", axis, coord)
        expected = slice_grid(grid, axis, coord, ["f"])
        assert np.array_equal(expected.points, pd.points)
        assert expected.point_data.get("f") == pd.point_data.get("f")
        # a slice ships at most two planes
        assert stats["selected_points"] <= 2 * 14 * 14


class TestBatchEndpoint:
    def test_mixed_batch(self, setup):
        grid, client = setup
        coord = grid.origin[2] + 3.5 * grid.spacing[2]
        requests = [
            {"kind": "contour", "array": "f", "values": [0.0]},
            {"kind": "threshold", "array": "f", "lower": 0.5, "upper": 1.0},
            {"kind": "slice", "array": "f", "axis": 2, "coordinate": coord},
        ]
        results = prefilter_batch(client, "wave.vgf", requests)
        assert len(results) == 3
        (contour_pd, _), (thresh_pd, _), (slice_pd, _) = results
        expected_contour = contour_grid(grid, "f", [0.0])
        assert np.array_equal(expected_contour.points, contour_pd.points)
        assert thresh_pd.verts.num_cells == thresh_pd.num_points
        assert np.allclose(slice_pd.points[:, 2], coord)

    def test_single_round_trip(self, setup):
        """The batch endpoint must issue exactly one RPC call."""
        grid, client = setup
        calls = []
        original = client._transport.request

        def counting(payload):
            calls.append(len(payload))
            return original(payload)

        client._transport.request = counting
        prefilter_batch(
            client,
            "wave.vgf",
            [
                {"kind": "contour", "array": "f", "values": [0.0]},
                {"kind": "contour", "array": "f", "values": [0.5]},
            ],
        )
        assert len(calls) == 1

    def test_unknown_kind(self, setup):
        _, client = setup
        from repro.errors import RPCRemoteError

        with pytest.raises(RPCRemoteError, match="kind"):
            client.call("prefilter_batch", "wave.vgf", [{"kind": "nope"}])

    def test_batch_equals_individual(self, setup):
        grid, client = setup
        batch = prefilter_batch(
            client, "wave.vgf", [{"kind": "contour", "array": "f", "values": [0.2]}]
        )
        single, _ = ndp_contour(client, "wave.vgf", "f", [0.2])
        assert np.array_equal(batch[0][0].points, single.points)
