"""Unit tests for structured-grid topology helpers."""

import numpy as np
import pytest

from repro.errors import GridError
from repro.grid import (
    cell_count,
    edge_endpoints,
    point_count,
    point_id_to_ijk,
    point_ijk_to_id,
    structured_edges,
)

from tests.conftest import axis_edge_counts


class TestCounts:
    def test_point_count(self):
        assert point_count((4, 5, 6)) == 120

    def test_cell_count_3d(self):
        assert cell_count((4, 5, 6)) == 3 * 4 * 5

    def test_cell_count_2d(self):
        assert cell_count((8, 6, 1)) == 7 * 5

    def test_cell_count_1d(self):
        assert cell_count((10, 1, 1)) == 9

    def test_rejects_zero_dims(self):
        with pytest.raises(GridError):
            point_count((0, 3, 3))

    def test_rejects_wrong_rank(self):
        with pytest.raises(GridError):
            point_count((3, 3))


class TestIdConversions:
    def test_round_trip_all_points(self):
        dims = (3, 4, 5)
        ids = np.arange(point_count(dims))
        ijk = point_id_to_ijk(ids, dims)
        back = point_ijk_to_id(ijk, dims)
        assert np.array_equal(back, ids)

    def test_x_varies_fastest(self):
        dims = (4, 3, 2)
        assert point_ijk_to_id((1, 0, 0), dims) == 1
        assert point_ijk_to_id((0, 1, 0), dims) == 4
        assert point_ijk_to_id((0, 0, 1), dims) == 12

    def test_single_triple(self):
        assert point_id_to_ijk(13, (4, 3, 2)).tolist() == [1, 0, 1]

    def test_out_of_range_ijk(self):
        with pytest.raises(GridError):
            point_ijk_to_id((4, 0, 0), (4, 3, 2))

    def test_negative_id(self):
        with pytest.raises(GridError):
            point_id_to_ijk(-1, (4, 3, 2))


class TestEdges:
    def test_axis_edge_counts(self):
        ex, ey, ez = (edge_endpoints((3, 4, 5), axis)[0].size for axis in range(3))
        assert ex == 2 * 4 * 5
        assert ey == 3 * 3 * 5
        assert ez == 3 * 4 * 4

    def test_total_edge_count(self):
        a, b = structured_edges((3, 4, 5))
        assert a.size == sum(axis_edge_counts((3, 4, 5)))
        assert a.size == b.size

    def test_edges_are_axis_neighbours(self):
        dims = (3, 3, 3)
        for axis, stride in ((0, 1), (1, 3), (2, 9)):
            a, b = edge_endpoints(dims, axis)
            assert np.array_equal(b - a, np.full(a.size, stride))

    def test_degenerate_axis_has_no_edges(self):
        a, b = edge_endpoints((5, 4, 1), 2)
        assert a.size == 0

    def test_bad_axis(self):
        with pytest.raises(GridError):
            edge_endpoints((3, 3, 3), 3)

    def test_2x2x2_explicit(self):
        a, b = structured_edges((2, 2, 2))
        pairs = set(zip(a.tolist(), b.tolist()))
        expected = {
            (0, 1), (2, 3), (4, 5), (6, 7),       # x edges
            (0, 2), (1, 3), (4, 6), (5, 7),       # y edges
            (0, 4), (1, 5), (2, 6), (3, 7),       # z edges
        }
        assert pairs == expected
