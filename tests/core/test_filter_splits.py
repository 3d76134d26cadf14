"""Unit tests for the threshold and slice pre/post splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    decode_selection,
    encode_selection,
    postfilter_slice,
    postfilter_threshold,
    prefilter_slice,
    prefilter_threshold,
)
from repro.errors import FilterError
from repro.filters import slice_grid
from repro.grid import DataArray, UniformGrid

from tests.conftest import make_sphere_grid, make_wave_grid, threshold_points


class TestThresholdSplit:
    def test_bit_exact_against_stock(self):
        grid = make_sphere_grid(14)
        expected = threshold_points(grid, "r", 2.0, 5.0)
        recon = postfilter_threshold(prefilter_threshold(grid, "r", 2.0, 5.0))
        assert np.array_equal(expected.points, recon.points)
        assert expected.point_data.get("r") == recon.point_data.get("r")

    def test_survives_wire(self):
        grid = make_wave_grid(12)
        sel = prefilter_threshold(grid, "f", -0.2, 0.4)
        sel2 = decode_selection(encode_selection(sel, payload_codec="lz4"))
        pd = postfilter_threshold(sel2)
        assert pd.num_points == sel.count

    def test_empty_range(self):
        grid = make_sphere_grid(8)
        pd = postfilter_threshold(prefilter_threshold(grid, "r", 1e6, 2e6))
        assert pd.num_points == 0

    def test_selection_is_result_set(self):
        """Thresholding ships exactly its answer: nothing extra."""
        grid = make_sphere_grid(10)
        sel = prefilter_threshold(grid, "r", 0.0, 3.0)
        arr = grid.point_data.get("r").values
        assert np.array_equal(np.nonzero((arr >= 0.0) & (arr <= 3.0))[0], sel.ids)


class TestSliceSplit:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_bit_exact_between_planes(self, axis):
        grid = make_wave_grid(14)
        coord = grid.origin[axis] + 5.3 * grid.spacing[axis]
        expected = slice_grid(grid, axis, coord, ["f"])
        sel = prefilter_slice(grid, "f", axis, coord)
        recon = postfilter_slice(sel, axis, coord)
        assert np.array_equal(expected.points, recon.points)
        assert expected.point_data.get("f") == recon.point_data.get("f")

    def test_exact_plane_hit_ships_one_plane(self):
        grid = make_wave_grid(12)
        coord = grid.origin[2] + 4 * grid.spacing[2]
        sel = prefilter_slice(grid, "f", 2, coord)
        assert sel.count == 12 * 12  # a single plane

    def test_between_planes_ships_two(self):
        grid = make_wave_grid(12)
        coord = grid.origin[2] + 4.5 * grid.spacing[2]
        sel = prefilter_slice(grid, "f", 2, coord)
        assert sel.count == 2 * 12 * 12

    def test_selectivity_is_two_over_n(self):
        grid = make_wave_grid(20)
        coord = grid.origin[0] + 7.5 * grid.spacing[0]
        sel = prefilter_slice(grid, "f", 0, coord)
        assert sel.selectivity == pytest.approx(2 / 20)

    def test_wrong_plane_guard(self):
        grid = make_wave_grid(12)
        sel = prefilter_slice(grid, "f", 2, grid.origin[2] + 2.5 * grid.spacing[2])
        with pytest.raises(FilterError, match="planes"):
            postfilter_slice(sel, 2, grid.origin[2] + 8.5 * grid.spacing[2])

    def test_survives_wire(self):
        grid = make_wave_grid(10)
        coord = grid.origin[1] + 3.25 * grid.spacing[1]
        sel = decode_selection(
            encode_selection(prefilter_slice(grid, "f", 1, coord), payload_codec="gzip")
        )
        expected = slice_grid(grid, 1, coord, ["f"])
        recon = postfilter_slice(sel, 1, coord)
        assert expected.point_data.get("f") == recon.point_data.get("f")


class TestThresholdSplitProperty:
    @given(
        field=arrays(
            dtype=np.float32,
            shape=st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
            elements=st.floats(-5, 5, allow_nan=False, width=32),
        ),
        lo=st.floats(-4, 0, allow_nan=False),
        width=st.floats(0, 4, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence(self, field, lo, width):
        nz, ny, nx = field.shape
        grid = UniformGrid((nx, ny, nz))
        grid.point_data.add(DataArray("f", field.reshape(-1)))
        expected = threshold_points(grid, "f", lo, lo + width)
        sel = decode_selection(
            encode_selection(prefilter_threshold(grid, "f", lo, lo + width))
        )
        recon = postfilter_threshold(sel)
        assert np.array_equal(expected.points, recon.points)
        assert expected.point_data.get("f") == recon.point_data.get("f")


class TestSliceSplitProperty:
    @given(
        field=arrays(
            dtype=np.float32,
            shape=st.tuples(st.integers(3, 6), st.integers(3, 6), st.integers(3, 6)),
            elements=st.floats(-100, 100, allow_nan=False, width=32),
        ),
        axis=st.integers(0, 2),
        frac=st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence(self, field, axis, frac):
        nz, ny, nx = field.shape
        grid = UniformGrid((nx, ny, nz))
        grid.point_data.add(DataArray("f", field.reshape(-1)))
        coord = grid.origin[axis] + frac * (grid.dims[axis] - 1) * grid.spacing[axis]
        expected = slice_grid(grid, axis, coord, ["f"])
        sel = decode_selection(encode_selection(prefilter_slice(grid, "f", axis, coord)))
        recon = postfilter_slice(sel, axis, coord)
        assert np.array_equal(expected.points, recon.points)
        assert expected.point_data.get("f") == recon.point_data.get("f")
