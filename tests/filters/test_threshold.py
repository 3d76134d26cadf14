"""Unit tests for the threshold kernel and its vertex output."""

import numpy as np
import pytest

from repro.core import postfilter_threshold, prefilter_threshold
from repro.errors import FilterError
from repro.filters.threshold import threshold_point_ids
from repro.grid import DataArray, UniformGrid

from tests.conftest import make_sphere_grid


class TestThresholdIds:
    def test_inclusive_range(self):
        grid = UniformGrid((4, 1, 1))
        grid.point_data.add(DataArray("f", [0.0, 1.0, 2.0, 3.0]))
        ids = threshold_point_ids(grid, "f", 1.0, 2.0)
        assert ids.tolist() == [1, 2]

    def test_lower_gt_upper(self):
        grid = make_sphere_grid(4)
        with pytest.raises(FilterError):
            threshold_point_ids(grid, "r", 2.0, 1.0)

    def test_vector_array_rejected(self):
        grid = UniformGrid((2, 2, 2))
        grid.point_data.add(DataArray("v", np.zeros(24), components=3))
        with pytest.raises(FilterError, match="scalar"):
            threshold_point_ids(grid, "v", 0, 1)

    def test_empty_result(self):
        grid = make_sphere_grid(6)
        assert threshold_point_ids(grid, "r", 1e6, 2e6).size == 0


class TestThresholdFilter:
    def test_extracts_vertices(self):
        grid = make_sphere_grid(10)
        pd = postfilter_threshold(prefilter_threshold(grid, "r", 0.0, 3.0))
        assert pd.verts.num_cells == pd.num_points > 0
        # all extracted points are within radius 3 of the center
        rr = np.linalg.norm(pd.points - 5.0, axis=1)
        assert rr.max() <= 3.0

    def test_carries_values(self):
        grid = make_sphere_grid(8)
        pd = postfilter_threshold(prefilter_threshold(grid, "r", 1.0, 2.0))
        vals = pd.point_data.get("r").values
        assert np.all((vals >= 1.0) & (vals <= 2.0))

    def test_set_range_validates(self):
        with pytest.raises(FilterError):
            prefilter_threshold(make_sphere_grid(4), "r", 5, 1)
