"""Unit tests for RectilinearGrid and its full-stack integration.

Rectilinear support is this library's implementation of the paper's
stated future work ("plans to extend support to more complex grid
types"); these tests cover the data model and the complete offload chain.
"""

import numpy as np
import pytest

from repro.errors import GridError
from repro.grid import DataArray, RectilinearGrid, UniformGrid

from tests.conftest import threshold_points


def make_rect(seed=3, dims=(10, 8, 6)):
    rng = np.random.default_rng(seed)
    axes = [np.cumsum(rng.uniform(0.3, 1.7, d)) for d in dims]
    grid = RectilinearGrid(*axes)
    grid.point_data.add(
        DataArray("f", rng.normal(size=grid.num_points).astype(np.float32))
    )
    return grid


class TestConstruction:
    def test_basic(self):
        grid = RectilinearGrid([0, 1, 3], [0, 2], [0, 1, 2, 4])
        assert grid.dims == (3, 2, 4)
        assert grid.num_points == 24
        assert grid.num_cells == 2 * 1 * 3

    def test_rejects_non_increasing(self):
        with pytest.raises(GridError, match="increasing"):
            RectilinearGrid([0, 1, 1], [0, 1], [0, 1])
        with pytest.raises(GridError, match="increasing"):
            RectilinearGrid([0, 2, 1], [0, 1], [0, 1])

    def test_rejects_empty_or_nonfinite(self):
        with pytest.raises(GridError):
            RectilinearGrid([], [0, 1], [0, 1])
        with pytest.raises(GridError, match="finite"):
            RectilinearGrid([0, np.inf], [0, 1], [0, 1])

    def test_single_coordinate_axis(self):
        grid = RectilinearGrid([0, 1], [0, 1], [5.0])
        assert grid.is_2d

    def test_bounds(self):
        grid = RectilinearGrid([1, 4], [2, 5], [3, 9])
        assert grid.bounds.as_tuple() == (1, 4, 2, 5, 3, 9)

    def test_from_uniform_params_matches(self):
        uni = UniformGrid((5, 4, 3), origin=(1, 2, 3), spacing=(0.5, 1.5, 2.0))
        rect = RectilinearGrid.from_uniform_params((5, 4, 3), (1, 2, 3), (0.5, 1.5, 2.0))
        assert rect.dims == uni.dims
        for a in range(3):
            assert np.allclose(rect.axis_coords(a), uni.axis_coords(a))


class TestGeometry:
    def test_point_coords(self):
        grid = RectilinearGrid([0, 1, 10], [0, 5], [0, 100])
        coords = grid.point_ids_to_coords([0, 2, 3, 6])
        assert np.array_equal(
            coords, [[0, 0, 0], [10, 0, 0], [0, 5, 0], [0, 0, 100]]
        )

    def test_scalar_field_view(self):
        grid = make_rect()
        field = grid.scalar_field("f")
        nx, ny, nz = grid.dims
        assert field.shape == (nz, ny, nx)
        field[0, 0, 0] = 42.0
        assert grid.point_data.get("f").values[0] == 42.0

    def test_equality(self):
        assert make_rect(1) == make_rect(1)
        assert make_rect(1) != make_rect(2)

    def test_shallow_copy(self):
        grid = make_rect()
        cp = grid.shallow_copy()
        assert cp == grid
        cp.point_data.get("f").values[0] = -99
        assert grid.point_data.get("f").values[0] == -99  # shared payload


class TestContouring:
    def test_matches_equivalent_uniform(self):
        """A rectilinear grid with arithmetic axes contours identically."""
        from repro.filters import contour_grid

        uni = UniformGrid((10, 9, 8), origin=(1, 2, 3), spacing=(0.5, 0.7, 1.1))
        rect = RectilinearGrid.from_uniform_params((10, 9, 8), (1, 2, 3), (0.5, 0.7, 1.1))
        rng = np.random.default_rng(0)
        vals = rng.normal(size=uni.num_points)
        uni.point_data.add(DataArray("f", vals))
        rect.point_data.add(DataArray("f", vals))
        pu = contour_grid(uni, "f", [0.0])
        pr = contour_grid(rect, "f", [0.0])
        assert np.array_equal(pu.points, pr.points)

    def test_vertices_respect_nonuniform_spacing(self):
        """With stretched axes the contour lands at interpolated coords."""
        from repro.filters import contour_grid

        # z axis stretched: planes at 0 and 10; field crosses midway in
        # *value*, so the vertex sits at z = 5 (value-interpolated).
        grid = RectilinearGrid([0, 1, 2], [0, 1, 2], [0.0, 10.0])
        f = np.zeros((2, 3, 3))
        f[1] = 1.0
        grid.point_data.add(DataArray("f", f.reshape(-1)))
        pd = contour_grid(grid, "f", 0.5)
        assert np.allclose(pd.points[:, 2], 5.0)

    def test_2d_rectilinear(self):
        from repro.filters import contour_grid

        grid = RectilinearGrid([0, 1, 3, 7], [0, 2, 3], [0.0])
        rng = np.random.default_rng(4)
        grid.point_data.add(DataArray("f", rng.normal(size=12)))
        pd = contour_grid(grid, "f", [0.0])
        pd.validate()


class TestOffloadChain:
    def test_prefilter_postfilter_bit_exact(self):
        from repro.core import postfilter_contour, prefilter_contour
        from repro.filters import contour_grid

        grid = make_rect(dims=(12, 10, 9))
        full = contour_grid(grid, "f", [0.0, 0.5])
        sel = prefilter_contour(grid, "f", [0.0, 0.5])
        assert sel.axes is not None
        recon = postfilter_contour(sel, [0.0, 0.5])
        assert np.array_equal(full.points, recon.points)
        assert np.array_equal(full.polys.connectivity, recon.polys.connectivity)

    def test_selection_wire_round_trip(self):
        from repro.core import decode_selection, encode_selection, prefilter_contour

        grid = make_rect()
        sel = prefilter_contour(grid, "f", [0.0])
        for payload_codec in ("raw", "lz4"):
            out = decode_selection(encode_selection(sel, payload_codec=payload_codec))
            assert out == sel
            assert out.axes is not None

    def test_vgf_round_trip(self):
        from repro.io import read_vgf, write_vgf

        grid = make_rect()
        back = read_vgf(write_vgf(grid, codec="gzip"))
        assert isinstance(back, RectilinearGrid)
        assert back == grid

    def test_full_ndp_path(self):
        from repro.core import NDPServer, ndp_contour
        from repro.filters import contour_grid
        from repro.io import write_vgf
        from repro.rpc import InProcessTransport, RPCClient
        from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

        # A smooth radial field: the selection is a thin shell, so the
        # wire is genuinely smaller than the raw array.
        rng = np.random.default_rng(9)
        axes = [np.cumsum(rng.uniform(0.3, 1.7, d)) for d in (14, 12, 10)]
        grid = RectilinearGrid(*axes)
        pts = grid.point_ids_to_coords(np.arange(grid.num_points))
        center = np.asarray(grid.bounds.center)
        grid.point_data.add(
            DataArray("f", np.linalg.norm(pts - center, axis=1).astype(np.float32))
        )
        store = ObjectStore(MemoryBackend())
        store.create_bucket("sim")
        fs = S3FileSystem(store, "sim")
        fs.write_object("rect.vgf", write_vgf(grid, codec="lz4"))
        client = RPCClient(InProcessTransport(NDPServer(fs).dispatch))
        pd, stats = ndp_contour(client, "rect.vgf", "f", [3.0])
        expected = contour_grid(grid, "f", [3.0])
        assert np.array_equal(expected.points, pd.points)
        assert stats["wire_bytes"] < stats["raw_bytes"]

    def test_slice_on_rectilinear(self):
        from repro.core import postfilter_slice, prefilter_slice
        from repro.filters import slice_grid

        grid = make_rect(dims=(9, 9, 9))
        coord = 0.5 * (grid.z_coords[3] + grid.z_coords[4])
        expected = slice_grid(grid, 2, coord, ["f"])
        recon = postfilter_slice(prefilter_slice(grid, "f", 2, coord), 2, coord)
        assert np.array_equal(expected.points, recon.points)
        assert expected.point_data.get("f") == recon.point_data.get("f")

    def test_threshold_on_rectilinear(self):
        from repro.core import postfilter_threshold, prefilter_threshold

        grid = make_rect()
        expected = threshold_points(grid, "f", 0.0, 1.0)
        recon = postfilter_threshold(prefilter_threshold(grid, "f", 0.0, 1.0))
        assert np.array_equal(expected.points, recon.points)
