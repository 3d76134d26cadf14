"""Unit tests for the contour post-filter: exact reconstruction."""

import numpy as np
import pytest

from repro.core import postfilter_contour, prefilter_contour
from repro.core.postfilter import ContourPostFilter
from repro.errors import FilterError
from repro.filters import contour_grid

from tests.conftest import make_2d_grid, make_sphere_grid, make_wave_grid


def assert_identical(full, recon):
    assert np.array_equal(full.points, recon.points)
    assert np.array_equal(full.polys.offsets, recon.polys.offsets)
    assert np.array_equal(full.polys.connectivity, recon.polys.connectivity)
    assert np.array_equal(full.lines.connectivity, recon.lines.connectivity)
    assert full.point_data.get("contour_value") == recon.point_data.get("contour_value")


class TestExactEquivalence:
    """DESIGN.md invariant 1: postfilter(prefilter(x)) == contour(x)."""

    def test_sphere_single_value(self):
        grid = make_sphere_grid(16)
        full = contour_grid(grid, "r", [5.0])
        recon = postfilter_contour(prefilter_contour(grid, "r", [5.0]), [5.0])
        assert_identical(full, recon)

    def test_wave_multi_value(self):
        grid = make_wave_grid(20)
        values = [-0.5, 0.0, 0.7]
        full = contour_grid(grid, "f", values)
        recon = postfilter_contour(prefilter_contour(grid, "f", values), values)
        assert_identical(full, recon)

    def test_2d(self):
        grid = make_2d_grid(18, 13)
        values = [-0.3, 0.4]
        full = contour_grid(grid, "f", values)
        recon = postfilter_contour(prefilter_contour(grid, "f", values), values)
        assert_identical(full, recon)

    def test_2d_other_planes(self):
        from repro.grid import DataArray, UniformGrid

        for dims in ((1, 10, 12), (10, 1, 12)):
            grid = UniformGrid(dims)
            rng = np.random.default_rng(5)
            grid.point_data.add(DataArray("f", rng.normal(size=grid.num_points)))
            full = contour_grid(grid, "f", [0.0])
            recon = postfilter_contour(prefilter_contour(grid, "f", [0.0]), [0.0])
            assert_identical(full, recon)

    def test_nonstandard_origin_spacing(self):
        grid = make_wave_grid(14)  # has origin (0.5,-1,2), spacing (.7,1.1,.9)
        full = contour_grid(grid, "f", [0.2])
        recon = postfilter_contour(prefilter_contour(grid, "f", [0.2]), [0.2])
        assert_identical(full, recon)

    def test_empty_contour(self):
        grid = make_sphere_grid(8)
        sel = prefilter_contour(grid, "r", [1e9])
        recon = postfilter_contour(sel, [1e9])
        assert recon.num_points == 0

    def test_integer_valued_field_exact_hits(self):
        """Values exactly equal to the contour value (t=0 interpolation)."""
        from repro.grid import DataArray, UniformGrid

        rng = np.random.default_rng(11)
        grid = UniformGrid((10, 10, 10))
        grid.point_data.add(
            DataArray("v", rng.integers(0, 6, 1000).astype(np.float32))
        )
        full = contour_grid(grid, "v", [3.0])
        recon = postfilter_contour(prefilter_contour(grid, "v", [3.0]), [3.0])
        assert_identical(full, recon)

    def test_edge_mode_is_approximate_but_close(self):
        """The paper-stat 'edge' selection may drop some cells; the result
        must be a subset of the exact contour, never spurious geometry."""
        grid = make_wave_grid(16)
        full = contour_grid(grid, "f", [0.0])
        sel = prefilter_contour(grid, "f", [0.0], mode="edge")
        recon = postfilter_contour(sel, [0.0])
        full_pts = {tuple(p) for p in full.points.round(9)}
        recon_pts = {tuple(p) for p in recon.points.round(9)}
        assert recon_pts <= full_pts
        # Edge mode under-covers (incomplete cells are skipped): this is
        # exactly why cell-closure is the default mode.
        assert 0 < len(recon_pts) < len(full_pts)


class TestPostFilterPipeline:
    def test_pipeline_form(self):
        grid = make_sphere_grid(12)
        sel = prefilter_contour(grid, "r", [4.0])
        post = ContourPostFilter([4.0])
        post.set_input_data(sel)
        assert_identical(contour_grid(grid, "r", [4.0]), post.output())

    def test_unconfigured(self):
        post = ContourPostFilter()
        post.set_input_data(prefilter_contour(make_sphere_grid(8), "r", [2.0]))
        with pytest.raises(FilterError, match="values"):
            post.update()

    def test_wrong_input_type(self):
        post = ContourPostFilter([1.0])
        post.set_input_data("junk")
        with pytest.raises(FilterError, match="PointSelection"):
            post.update()

    @pytest.mark.parametrize("values, expected", [
        (np.array([4.0]), (4.0,)),
        (np.array([5.0, 4.0]), (4.0, 5.0)),
        (np.array(4.0), (4.0,)),
    ])
    def test_ndarray_values(self, values, expected):
        """An ndarray of values configures the filter (``values != ()`` on
        an array used to raise an untyped ValueError)."""
        grid = make_sphere_grid(12)
        post = ContourPostFilter(values)
        assert post.values == expected
        post.set_input_data(prefilter_contour(grid, "r", expected))
        assert_identical(contour_grid(grid, "r", expected), post.output())

    def test_empty_values_leave_filter_unconfigured(self):
        post = ContourPostFilter([])
        assert post.values == ()
        post.set_input_data(prefilter_contour(make_sphere_grid(8), "r", [2.0]))
        with pytest.raises(FilterError, match="values"):
            post.update()
