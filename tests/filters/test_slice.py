"""Unit tests for the axis-aligned slice filter."""

import numpy as np
import pytest

from repro.errors import FilterError
from repro.filters import slice_grid
from repro.filters.slice import slice_plane_indices
from repro.grid import DataArray, UniformGrid

from tests.conftest import make_wave_grid


def linear_grid(n=8):
    """Field f(x,y,z) = x + 10y + 100z: linear, so slices are exact."""
    grid = UniformGrid((n, n, n), origin=(1.0, 2.0, 3.0), spacing=(0.5, 1.0, 2.0))
    zz, yy, xx = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
    x = 1.0 + 0.5 * xx
    y = 2.0 + 1.0 * yy
    z = 3.0 + 2.0 * zz
    grid.point_data.add(DataArray("f", (x + 10 * y + 100 * z).reshape(-1)))
    return grid


class TestPlaneIndices:
    def test_exact_hit(self):
        grid = linear_grid()
        i0, i1, t = slice_plane_indices(grid, 0, 1.0 + 0.5 * 3)
        assert (i0, i1, t) == (3, 3, 0.0)

    def test_between_planes(self):
        grid = linear_grid()
        i0, i1, t = slice_plane_indices(grid, 0, 1.0 + 0.5 * 3.25)
        assert (i0, i1) == (3, 4)
        assert t == pytest.approx(0.25)

    def test_boundaries(self):
        grid = linear_grid(4)
        assert slice_plane_indices(grid, 2, 3.0) == (0, 0, 0.0)
        assert slice_plane_indices(grid, 2, 3.0 + 2.0 * 3) == (3, 3, 0.0)

    def test_out_of_range(self):
        grid = linear_grid(4)
        with pytest.raises(FilterError, match="outside"):
            slice_plane_indices(grid, 0, -100.0)

    def test_bad_axis(self):
        with pytest.raises(FilterError):
            slice_plane_indices(linear_grid(4), 3, 0.0)


class TestSliceGrid:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_points_in_plane(self, axis):
        grid = linear_grid()
        coord = grid.origin[axis] + 2.5 * grid.spacing[axis]
        pd = slice_grid(grid, axis, coord)
        assert np.allclose(pd.points[:, axis], coord)
        pd.validate()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_linear_field_exact(self, axis):
        """On a linear field, interpolated values equal the analytic ones."""
        grid = linear_grid()
        coord = grid.origin[axis] + 2.7 * grid.spacing[axis]
        pd = slice_grid(grid, axis, coord)
        pts = pd.points
        expected = pts[:, 0] + 10 * pts[:, 1] + 100 * pts[:, 2]
        assert np.allclose(pd.point_data.get("f").values, expected)

    def test_triangle_count(self):
        grid = linear_grid(6)
        pd = slice_grid(grid, 2, 3.0)
        assert pd.num_points == 36
        assert pd.triangles().shape[0] == 2 * 5 * 5

    def test_area_covers_plane(self):
        grid = linear_grid(5)
        pd = slice_grid(grid, 2, 4.0)
        tris = pd.points[pd.triangles()]
        e1 = tris[:, 1] - tris[:, 0]
        e2 = tris[:, 2] - tris[:, 0]
        area = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1).sum()
        assert area == pytest.approx((4 * 0.5) * (4 * 1.0))

    def test_array_selection(self):
        grid = linear_grid()
        grid.point_data.add(DataArray("g", np.zeros(grid.num_points)))
        pd = slice_grid(grid, 2, 3.0, ["g"])
        assert pd.point_data.names() == ["g"]

    def test_vector_arrays_skipped_by_default(self):
        grid = linear_grid()
        grid.point_data.add(DataArray("vel", np.zeros(grid.num_points * 3), components=3))
        pd = slice_grid(grid, 2, 3.0)
        assert "vel" not in pd.point_data
        assert "f" in pd.point_data

    def test_rejects_2d_grid(self):
        grid = UniformGrid((5, 5, 1))
        grid.point_data.add(DataArray("f", np.zeros(25)))
        with pytest.raises(FilterError, match="3-D"):
            slice_grid(grid, 2, 0.0)


class TestSliceFilterPipeline:
    def test_pipeline(self):
        grid = make_wave_grid(12)
        pd = slice_grid(grid, 2, grid.origin[2] + 4.5 * grid.spacing[2])
        assert pd.num_points == 144

    def test_set_plane_reexecutes(self):
        grid = linear_grid()
        v1 = slice_grid(grid, 2, 3.0).point_data.get("f").values.mean()
        v2 = slice_grid(grid, 2, 3.0 + 2.0 * 4).point_data.get("f").values.mean()
        assert v2 > v1
