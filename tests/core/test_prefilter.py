"""Unit tests for the contour pre-filter."""

import numpy as np
import pytest

from repro.core import prefilter_contour
from repro.core.prefilter import ContourPreFilter, selection_rate
from repro.errors import FilterError
from repro.grid import PointSelection

from tests.conftest import make_2d_grid, make_sphere_grid, make_wave_grid


class TestPrefilterFunction:
    def test_returns_selection(self):
        grid = make_sphere_grid(12)
        sel = prefilter_contour(grid, "r", [4.0])
        assert isinstance(sel, PointSelection)
        assert 0 < sel.count < grid.num_points
        assert sel.array_name == "r"
        assert sel.dims == grid.dims

    def test_values_match_grid(self):
        grid = make_sphere_grid(10)
        sel = prefilter_contour(grid, "r", [3.0])
        arr = grid.point_data.get("r").values
        assert np.array_equal(sel.values, arr[sel.ids])

    def test_edge_mode_subset_of_closure(self):
        grid = make_wave_grid(16)
        edge = prefilter_contour(grid, "f", [0.0], mode="edge")
        closure = prefilter_contour(grid, "f", [0.0], mode="cell-closure")
        assert set(edge.ids) <= set(closure.ids)
        assert closure.count <= 8 * edge.count  # same order of magnitude

    def test_unknown_mode(self):
        with pytest.raises(FilterError, match="mode"):
            prefilter_contour(make_sphere_grid(6), "r", [1.0], mode="bogus")

    def test_no_crossings_empty_selection(self):
        grid = make_sphere_grid(8)
        sel = prefilter_contour(grid, "r", [1e9])
        assert sel.count == 0

    def test_multi_value_union(self):
        grid = make_wave_grid(14)
        s1 = prefilter_contour(grid, "f", [0.0])
        s2 = prefilter_contour(grid, "f", [0.5])
        both = prefilter_contour(grid, "f", [0.0, 0.5])
        assert set(both.ids) == set(s1.ids) | set(s2.ids)

    def test_2d_grid(self):
        # A dense random field crosses zero at almost every edge, so the
        # selection may legitimately cover the whole grid.
        grid = make_2d_grid(14, 11)
        sel = prefilter_contour(grid, "f", [0.0])
        assert 0 < sel.count <= grid.num_points
        # An extreme value selects (almost) nothing.
        assert prefilter_contour(grid, "f", [1e9]).count == 0

    def test_sphere_selectivity_scales_with_surface(self):
        """Selection size tracks the isosurface area (r^2), not volume."""
        grid = make_sphere_grid(32)
        small = prefilter_contour(grid, "r", [5.0]).count
        large = prefilter_contour(grid, "r", [10.0]).count
        ratio = large / small
        assert 2.5 < ratio < 6.0  # (10/5)^2 = 4, up to lattice effects


class TestSelectionRate:
    def test_permillage_units(self):
        grid = make_sphere_grid(16)
        rate = selection_rate(grid, "r", [5.0])
        sel = prefilter_contour(grid, "r", [5.0], mode="edge")
        assert rate == pytest.approx(1000.0 * sel.count / grid.num_points)

    def test_uses_edge_mode(self):
        """Fig. 6's statistic counts edge-incident points, not the closure."""
        grid = make_wave_grid(12)
        rate = selection_rate(grid, "f", [0.0])
        closure = prefilter_contour(grid, "f", [0.0]).permillage
        assert rate <= closure


class TestPreFilterPipeline:
    def test_pipeline_form(self):
        grid = make_sphere_grid(10)
        pre = ContourPreFilter("r", [3.0])
        pre.set_input_data(grid)
        sel = pre.output()
        assert sel == prefilter_contour(grid, "r", [3.0])

    def test_mode_setter(self):
        grid = make_sphere_grid(10)
        pre = ContourPreFilter("r", [3.0])
        pre.set_input_data(grid)
        n_closure = pre.output().count
        pre.set_mode("edge")
        n_edge = pre.output().count
        assert n_edge <= n_closure
        assert pre.mode == "edge"

    def test_bad_mode_rejected(self):
        with pytest.raises(FilterError):
            ContourPreFilter("r", [1.0], mode="nope")
        pre = ContourPreFilter("r", [1.0])
        with pytest.raises(FilterError):
            pre.set_mode("nope")

    def test_unconfigured(self):
        pre = ContourPreFilter()
        pre.set_input_data(make_sphere_grid(6))
        with pytest.raises(FilterError, match="array name"):
            pre.update()
        pre.set_array_name("r")
        with pytest.raises(FilterError, match="values"):
            pre.update()

    def test_wrong_input_type(self):
        pre = ContourPreFilter("r", [1.0])
        pre.set_input_data(3.14)
        with pytest.raises(FilterError, match="UniformGrid"):
            pre.update()

    def test_values_normalized(self):
        pre = ContourPreFilter("r", [0.9, 0.1, 0.9])
        assert pre.values == (0.1, 0.9)

    @pytest.mark.parametrize("values, expected", [
        (np.array([3.0]), (3.0,)),
        (np.array([3.0, 2.0]), (2.0, 3.0)),
        (np.array(3.0), (3.0,)),
    ])
    def test_ndarray_values(self, values, expected):
        """An ndarray of values configures the filter (``values != ()`` on
        an array used to raise an untyped ValueError)."""
        grid = make_sphere_grid(10)
        pre = ContourPreFilter("r", values)
        assert pre.values == expected
        pre.set_input_data(grid)
        assert pre.output() == prefilter_contour(grid, "r", expected)

    def test_empty_values_leave_filter_unconfigured(self):
        pre = ContourPreFilter("r", [])
        assert pre.values == ()
        pre.set_input_data(make_sphere_grid(6))
        with pytest.raises(FilterError, match="values"):
            pre.update()
