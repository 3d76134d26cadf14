"""Unit tests for geometry post-processing utilities."""

import numpy as np
import pytest

from repro.errors import FilterError
from repro.filters import contour_grid
from repro.filters.geometry import (
    component_sizes,
    connected_components,
    surface_area,
    weld_points,
)
from repro.grid import DataArray, PolyData, UniformGrid

from tests.conftest import make_2d_grid, make_sphere_grid


def two_sphere_grid(n=24):
    """Two disjoint blobs: distance to the nearer of two centres."""
    zz, yy, xx = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
    d1 = np.sqrt((xx - n / 4) ** 2 + (yy - n / 2) ** 2 + (zz - n / 2) ** 2)
    d2 = np.sqrt((xx - 3 * n / 4) ** 2 + (yy - n / 2) ** 2 + (zz - n / 2) ** 2)
    grid = UniformGrid((n, n, n))
    grid.point_data.add(DataArray("d", np.minimum(d1, d2).reshape(-1)))
    return grid


class TestWeld:
    def test_soup_point_count_shrinks(self):
        pd = contour_grid(make_sphere_grid(14), "r", [4.0])
        welded = weld_points(pd)
        assert 0 < welded.num_points < pd.num_points
        # Triangle count unchanged; geometry identical per-cell.
        assert welded.polys.num_cells == pd.polys.num_cells
        orig = np.sort(pd.points[pd.triangles()].reshape(-1, 9), axis=0)
        new = np.sort(welded.points[welded.triangles()].reshape(-1, 9), axis=0)
        assert np.allclose(orig, new)

    def test_point_data_carried(self):
        pd = contour_grid(make_sphere_grid(12), "r", [3.0, 4.0])
        welded = weld_points(pd)
        assert "contour_value" in welded.point_data
        assert welded.point_data.get("contour_value").num_tuples == welded.num_points

    def test_empty(self):
        assert weld_points(PolyData()).num_points == 0

    def test_validates_after_weld(self):
        pd = contour_grid(make_sphere_grid(10), "r", [3.0])
        weld_points(pd).validate()


class TestMeasures:
    def test_sphere_area(self):
        pd = contour_grid(make_sphere_grid(28), "r", [9.0])
        area = surface_area(pd)
        exact = 4 * np.pi * 81.0
        assert abs(area - exact) / exact < 0.15

    def test_circle_length(self):
        grid = make_2d_grid(40, 40)
        # Replace with a radial field for a clean circle.
        yy, xx = np.mgrid[0:40, 0:40]
        r = np.hypot(xx - 20, yy - 20)
        grid.point_data.get("f").values[:] = r.reshape(-1)
        pd = contour_grid(grid, "f", [10.0])
        segs = pd.segments()
        length = np.linalg.norm(
            pd.points[segs[:, 1]] - pd.points[segs[:, 0]], axis=1).sum()
        assert abs(length - 2 * np.pi * 10) / (2 * np.pi * 10) < 0.1

    def test_empty_measures(self):
        assert surface_area(PolyData()) == 0.0


class TestComponents:
    def test_single_sphere_one_component(self):
        pd = contour_grid(make_sphere_grid(16), "r", [5.0])
        sizes = component_sizes(pd)
        assert len(sizes) == 1

    def test_two_spheres_two_components(self):
        pd = contour_grid(two_sphere_grid(), "d", [4.0])
        sizes = component_sizes(pd)
        assert len(sizes) == 2
        # Roughly equal-sized spheres.
        assert sizes[0] < 1.5 * sizes[1]

    def test_nested_shells_two_components(self):
        pd = contour_grid(make_sphere_grid(20), "r", [4.0, 7.0])
        assert len(component_sizes(pd)) == 2

    def test_min_points_filters_fragments(self):
        pd = contour_grid(two_sphere_grid(), "d", [4.0])
        all_sizes = component_sizes(pd, min_points=1)
        big_only = component_sizes(pd, min_points=max(all_sizes))
        assert len(big_only) <= len(all_sizes)

    def test_min_points_validated(self):
        with pytest.raises(FilterError):
            component_sizes(PolyData(), min_points=0)

    def test_labels_cover_welded_points(self):
        pd = contour_grid(make_sphere_grid(12), "r", [4.0])
        labels = connected_components(pd)
        welded = weld_points(pd)
        assert labels.size == welded.num_points
        assert labels.min() == 0

    def test_2d_contour_components(self):
        grid = make_2d_grid(30, 30)
        yy, xx = np.mgrid[0:30, 0:30]
        d1 = np.hypot(xx - 8, yy - 15)
        d2 = np.hypot(xx - 22, yy - 15)
        grid.point_data.get("f").values[:] = np.minimum(d1, d2).reshape(-1)
        pd = contour_grid(grid, "f", [4.0])
        assert len(component_sizes(pd)) == 2
