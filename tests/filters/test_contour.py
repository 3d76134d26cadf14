"""Unit tests for the ContourFilter and contour_grid kernel."""

import numpy as np
import pytest

from repro.errors import FilterError
from repro.filters import ContourFilter, contour_grid
from repro.filters.contour import _values_unset, normalize_values
from repro.grid import DataArray, UniformGrid
from repro.pipeline import TrivialProducer

from tests.conftest import make_2d_grid, make_sphere_grid


class TestNormalizeValues:
    def test_scalar(self):
        assert normalize_values(0.5) == (0.5,)

    def test_sorted_unique(self):
        assert normalize_values([0.9, 0.1, 0.5, 0.1]) == (0.1, 0.5, 0.9)

    def test_empty_rejected(self):
        with pytest.raises(FilterError):
            normalize_values([])

    def test_nonfinite_rejected(self):
        with pytest.raises(FilterError, match="finite"):
            normalize_values([np.nan])
        with pytest.raises(FilterError, match="finite"):
            normalize_values([np.inf])

    def test_numpy_scalar(self):
        # np.float64 is not a python scalar for ``np.isscalar`` purposes
        # on older numpy, and used to slip through to the iteration path.
        assert normalize_values(np.float64(0.5)) == (0.5,)
        assert normalize_values(np.float32(0.25)) == (0.25,)
        assert normalize_values(np.int64(3)) == (3.0,)

    def test_0d_array(self):
        # Iterating a 0-d array raises TypeError; it must be treated as
        # a single value instead.
        assert normalize_values(np.array(0.5)) == (0.5,)

    def test_ndarray(self):
        assert normalize_values(np.array([0.9, 0.1, 0.5])) == (0.1, 0.5, 0.9)
        assert normalize_values(np.array([[0.2], [0.8]])) == (0.2, 0.8)

    def test_empty_ndarray_rejected(self):
        with pytest.raises(FilterError):
            normalize_values(np.array([]))


class TestValuesUnset:
    def test_unset_forms(self):
        assert _values_unset(None)
        assert _values_unset(())
        assert _values_unset([])
        assert _values_unset(np.array([]))

    def test_set_forms(self):
        assert not _values_unset(0.0)  # falsy scalar is still a value
        assert not _values_unset(np.float64(0.0))
        assert not _values_unset(np.array(0.5))  # 0-d array
        assert not _values_unset(np.array([1.0, 2.0]))
        assert not _values_unset((1.0,))

    def test_filter_accepts_ndarray_values(self):
        # ``values != ()`` in the constructor used to be an elementwise
        # comparison for arrays — truth-testing it raised ValueError.
        grid = make_sphere_grid(12)
        producer = TrivialProducer(grid)
        filt = ContourFilter(array_name="r", values=np.array([4.0, 6.0]))
        filt.set_input_connection(0, producer)
        assert filt.values == (4.0, 6.0)
        pd = filt.output()
        assert pd.num_points > 0

    def test_filter_accepts_numpy_scalar(self):
        filt = ContourFilter(array_name="r", values=np.float64(6.0))
        assert filt.values == (6.0,)

    def test_ndp_source_accepts_ndarray_values(self):
        filt = ContourFilter(values=np.array([1.0, 2.0]))
        assert filt.values == (1.0, 2.0)
        assert ContourFilter(values=np.array([])).values == ()


class TestContourGrid3D:
    def test_sphere(self):
        grid = make_sphere_grid(20)
        pd = contour_grid(grid, "r", 6.0)
        assert pd.triangles().shape[0] > 0
        pd.validate()

    def test_contour_value_array(self):
        grid = make_sphere_grid(16)
        pd = contour_grid(grid, "r", [4.0, 6.0])
        cv = pd.point_data.get("contour_value").values
        assert set(np.unique(cv)) == {4.0, 6.0}

    def test_multi_value_is_concatenation(self):
        grid = make_sphere_grid(16)
        both = contour_grid(grid, "r", [4.0, 6.0])
        lo = contour_grid(grid, "r", 4.0)
        hi = contour_grid(grid, "r", 6.0)
        assert both.num_points == lo.num_points + hi.num_points
        assert np.array_equal(both.points[: lo.num_points], lo.points)

    def test_empty_result_structure(self):
        grid = make_sphere_grid(8)
        pd = contour_grid(grid, "r", 1000.0)
        assert pd.num_points == 0
        assert pd.triangles().shape == (0, 3)
        assert "contour_value" in pd.point_data

    def test_missing_array(self):
        grid = make_sphere_grid(8)
        with pytest.raises(Exception, match="nope"):
            contour_grid(grid, "nope", 1.0)


class TestContourGrid2D:
    def test_lines_output(self):
        grid = make_2d_grid(12, 10)
        pd = contour_grid(grid, "f", 0.0)
        assert pd.segments().shape[0] > 0
        assert pd.polys.num_cells == 0
        pd.validate()

    def test_points_in_plane(self):
        grid = make_2d_grid(12, 10)
        pd = contour_grid(grid, "f", 0.0)
        assert np.all(pd.points[:, 2] == grid.origin[2])

    def test_xz_plane_grid(self):
        # ny == 1: contour should live in the xz plane.
        grid = UniformGrid((8, 1, 8))
        zz, xx = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        grid.point_data.add(DataArray("f", (xx - zz).reshape(-1).astype(float)))
        pd = contour_grid(grid, "f", 0.5)
        assert pd.segments().shape[0] > 0
        assert np.all(pd.points[:, 1] == 0.0)

    def test_yz_plane_grid(self):
        grid = UniformGrid((1, 8, 8))
        zz, yy = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        grid.point_data.add(DataArray("f", (yy - zz).reshape(-1).astype(float)))
        pd = contour_grid(grid, "f", 0.5)
        assert pd.segments().shape[0] > 0
        assert np.all(pd.points[:, 0] == 0.0)

    def test_paper_fig3_example(self):
        """The paper's Fig. 3: value-5 contour over an 8x6 mesh of 0..9."""
        rng = np.random.default_rng(42)
        grid = UniformGrid((8, 6, 1))
        grid.point_data.add(
            DataArray("v", rng.integers(0, 10, 48).astype(np.float32))
        )
        pd = contour_grid(grid, "v", 5.0)
        assert pd.segments().shape[0] > 0


class TestContourFilterPipeline:
    def test_pipeline_usage(self):
        grid = make_sphere_grid(12)
        f = ContourFilter("r", [4.0])
        f.set_input_connection(0, TrivialProducer(grid))
        pd = f.output()
        assert pd.triangles().shape[0] > 0

    def test_matches_functional_kernel(self):
        grid = make_sphere_grid(12)
        f = ContourFilter("r", [4.0])
        f.set_input_data(grid)
        assert np.array_equal(f.output().points, contour_grid(grid, "r", 4.0).points)

    def test_reconfigure_reexecutes(self):
        grid = make_sphere_grid(12)
        f = ContourFilter("r", [4.0])
        f.set_input_data(grid)
        n1 = f.output().num_points
        f.set_values([5.0])
        n2 = f.output().num_points
        assert n1 != n2

    def test_unconfigured_errors(self):
        f = ContourFilter()
        f.set_input_data(make_sphere_grid(8))
        with pytest.raises(FilterError, match="array name"):
            f.update()
        f.set_array_name("r")
        with pytest.raises(FilterError, match="values"):
            f.update()

    def test_wrong_input_type(self):
        f = ContourFilter("r", [1.0])
        f.set_input_data("not a grid")
        with pytest.raises(FilterError, match="UniformGrid"):
            f.update()

    def test_values_property(self):
        f = ContourFilter("r", [0.5, 0.1])
        assert f.values == (0.1, 0.5)
        assert f.array_name == "r"
