"""Hypothesis property tests for structured-grid topology."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import (
    cell_count,
    point_count,
    point_id_to_ijk,
    point_ijk_to_id,
    structured_edges,
)
from repro.grid.cells import edge_endpoints

from tests.conftest import axis_edge_counts

dims_strategy = st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))


@given(dims=dims_strategy)
@settings(max_examples=100, deadline=None)
def test_id_ijk_bijection(dims):
    n = point_count(dims)
    ids = np.arange(n)
    ijk = point_id_to_ijk(ids, dims)
    assert np.array_equal(point_ijk_to_id(ijk, dims), ids)
    # ijk values stay in range per axis.
    for axis in range(3):
        assert ijk[:, axis].max(initial=0) < dims[axis]


@given(dims=dims_strategy)
@settings(max_examples=100, deadline=None)
def test_edge_counts_consistent(dims):
    a, b = structured_edges(dims)
    assert a.size == sum(axis_edge_counts(dims))
    # Each edge connects distinct, in-range points.
    n = point_count(dims)
    if a.size:
        assert (a != b).all()
        assert a.min() >= 0 and b.max() < n


@given(dims=dims_strategy)
@settings(max_examples=60, deadline=None)
def test_every_point_has_expected_degree(dims):
    """A point's lattice degree is the number of non-boundary directions."""
    n = point_count(dims)
    degree = np.zeros(n, dtype=np.int64)
    a, b = structured_edges(dims)
    np.add.at(degree, a, 1)
    np.add.at(degree, b, 1)
    ijk = point_id_to_ijk(np.arange(n), dims)
    expected = np.zeros(n, dtype=np.int64)
    for axis in range(3):
        if dims[axis] > 1:
            interior = (ijk[:, axis] > 0) & (ijk[:, axis] < dims[axis] - 1)
            expected += np.where(interior, 2, 1)
    assert np.array_equal(degree, expected)


@given(dims=dims_strategy)
@settings(max_examples=60, deadline=None)
def test_cell_point_relationship(dims):
    """Euler-style sanity: cells = product of per-axis spans."""
    spans = [max(d - 1, 1) for d in dims]
    assert cell_count(dims) == spans[0] * spans[1] * spans[2]
    assert point_count(dims) == dims[0] * dims[1] * dims[2]


@given(dims=dims_strategy, axis=st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_axis_edges_stride(dims, axis):
    a, b = edge_endpoints(dims, axis)
    stride = (1, dims[0], dims[0] * dims[1])[axis]
    if a.size:
        assert np.array_equal(b - a, np.full(a.size, stride))
    expected = axis_edge_counts(dims)[axis]
    assert a.size == expected
