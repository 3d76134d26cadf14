"""Interesting-edge analysis: the data-selection core of the paper.

An *interesting edge* is a lattice edge whose endpoint values straddle a
contour value — "edges where one end is above 5 and the other is below 5"
in the paper's Fig. 3 walkthrough.  Only points touching such edges carry
information the downstream contour filter needs.

Three vectorized primitives operate on a scalar field shaped ``(nz, ny,
nx)`` (degenerate axes of size 1 are handled, so 2-D grids work
unchanged):

* :func:`interesting_point_mask` — points incident to at least one
  interesting edge, for any of the given contour values.  This is the
  quantity the paper's Fig. 6 reports as the *data selection rate*.
* :func:`active_cell_mask` — cells with mixed corner classification, i.e.
  cells that will emit contour geometry.
* :func:`cell_closure_point_mask` — all corners of all active cells: the
  minimal superset of the interesting-point set that lets the client
  rebuild the contour *exactly* (every cell the contour kernel visits has
  all corners present; see :mod:`repro.core.postfilter`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FilterError
from repro.filters.contour import normalize_values
from repro.filters.marching_tets import _native_thresholds

__all__ = [
    "interesting_point_mask",
    "active_cell_mask",
    "cell_closure_point_mask",
    "point_mask_to_cell_complete",
    "cell_mask_to_point_mask",
    "roi_cell_mask",
]


def _as_field(field: np.ndarray) -> np.ndarray:
    f = np.asarray(field)
    if f.ndim != 3:
        raise FilterError(f"field must be 3-D (nz, ny, nx); got shape {f.shape}")
    if f.size == 0:
        raise FilterError("field is empty")
    return f


def _interval_index(f: np.ndarray, vals) -> np.ndarray:
    """Classification id per point: how many contour values lie at or below it.

    The per-value classification ``f >= v`` is monotone in ``v`` for the
    sorted, unique ``vals`` that :func:`normalize_values` produces, so the
    whole vector of booleans collapses to one integer — the count of
    values ``v <= f``.  Two neighbouring points straddle *some* contour
    value exactly when their counts differ, which turns the per-value
    edge scan into a single neighbour-diff pass regardless of
    ``len(vals)``.

    Comparisons use :func:`_native_thresholds`, which preserves exact
    float64 classification semantics (what the marching kernels compute)
    without float64 conversion buffers on float32 fields.  NaN compares
    False against every threshold, so NaN points land in class 0 — the
    same class the per-value booleans gave them.
    """
    ts = _native_thresholds(f.dtype, vals)
    if len(ts) == 1:
        # A 2-interval classification is just the inside/outside boolean.
        return f >= ts[0]
    # Strictly below the dtype max: the top code point stays free as the
    # NaN sentinel for :func:`active_cell_mask`'s class-space fold.
    count_dtype = np.uint8 if len(ts) < 255 else np.uint16
    c = (f >= ts[0]).astype(count_dtype)
    for t in ts[1:]:
        c += f >= t
    return c


def interesting_point_mask(field: np.ndarray, values) -> np.ndarray:
    """Boolean mask of points incident to >= 1 interesting edge.

    Parameters
    ----------
    field:
        ``(nz, ny, nx)`` scalar field.
    values:
        One or more contour values; a point qualifies if any of its lattice
        edges crosses any value.

    Returns
    -------
    mask : ndarray of bool, same shape as ``field``.
    """
    f = _as_field(field)
    vals = normalize_values(values)
    cls = _interval_index(f, vals)
    mask = np.zeros(f.shape, dtype=bool)
    # One neighbour-diff pass per axis, however many contour values: an
    # edge is interesting iff its endpoints land in different value
    # intervals.
    for axis in range(3):
        if f.shape[axis] > 1:
            a = [slice(None)] * 3
            b = [slice(None)] * 3
            a[axis] = slice(None, -1)
            b[axis] = slice(1, None)
            cross = cls[tuple(a)] != cls[tuple(b)]
            mask[tuple(a)] |= cross
            mask[tuple(b)] |= cross
    return mask


def active_cell_mask(field: np.ndarray, values) -> np.ndarray:
    """Boolean mask of cells whose corners straddle any contour value.

    The returned shape is ``(max(nz-1,1), max(ny-1,1), max(nx-1,1))`` —
    degenerate axes keep a single layer so 2-D grids yield their pixel
    cells.
    """
    f = _as_field(field)
    vals = normalize_values(values)
    # A cell is active iff some value lands in (corner-min, corner-max],
    # i.e. the corner extremes classify into different value intervals.
    # Classification is monotone, so it commutes with min/max — classify
    # each point ONCE, then fold the per-cell extremes in class space,
    # where the elements are one or two bytes instead of the field's
    # four or eight.  The fold touches ~6x the array in memory traffic,
    # so running it narrow is most of this function's speed.
    c = _interval_index(f, vals)
    if c.dtype == bool:
        c = c.view(np.uint8)
    if f.dtype.kind == "f":
        # In the field-space fold a NaN corner propagates to both
        # extremes and classifies as interval 0 twice — the cell is
        # inactive.  Class space loses that poisoning (max ignores the
        # NaN's class 0), so NaN points take the dtype's top code point,
        # which _interval_index never assigns: any NaN corner drives the
        # max-fold to the sentinel, and the final test drops such cells.
        sentinel = np.iinfo(c.dtype).max
        c[np.isnan(f)] = sentinel
    else:
        sentinel = None
    lo = c
    hi = c
    for axis in range(3):
        if f.shape[axis] > 1:
            a = [slice(None)] * 3
            b = [slice(None)] * 3
            a[axis] = slice(None, -1)
            b[axis] = slice(1, None)
            lo = np.minimum(lo[tuple(a)], lo[tuple(b)])
            hi = np.maximum(hi[tuple(a)], hi[tuple(b)])
    active = lo != hi
    if sentinel is not None:
        active &= hi != sentinel
    return active


def cell_closure_point_mask(field: np.ndarray, values,
                            cell_mask: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask of every corner point of every active cell.

    ``cell_mask`` (e.g. a region of interest) restricts which cells count
    as active.
    """
    f = _as_field(field)
    active = active_cell_mask(f, values)
    if cell_mask is not None:
        active = active & np.asarray(cell_mask, dtype=bool)
    mask = np.zeros(f.shape, dtype=bool)
    # Scatter each cell flag to its corner points: along each non-degenerate
    # axis a cell (index c) touches point layers c and c+1.
    nz, ny, nx = f.shape
    z_off = (0, 1) if nz > 1 else (0,)
    y_off = (0, 1) if ny > 1 else (0,)
    x_off = (0, 1) if nx > 1 else (0,)
    cz, cy, cx = active.shape
    for dz in z_off:
        for dy in y_off:
            for dx in x_off:
                mask[dz : dz + cz, dy : dy + cy, dx : dx + cx] |= active
    return mask


def cell_mask_to_point_mask(cell_mask: np.ndarray, point_shape) -> np.ndarray:
    """Scatter a cell mask to the corner points it touches (closure shape)."""
    cell_mask = np.asarray(cell_mask, dtype=bool)
    nz, ny, nx = point_shape
    mask = np.zeros(point_shape, dtype=bool)
    cz, cy, cx = cell_mask.shape
    for dz in (0, 1) if nz > 1 else (0,):
        for dy in (0, 1) if ny > 1 else (0,):
            for dx in (0, 1) if nx > 1 else (0,):
                mask[dz : dz + cz, dy : dy + cy, dx : dx + cx] |= cell_mask
    return mask


def roi_cell_mask(grid, bounds) -> np.ndarray:
    """Cells whose corners all lie inside an axis-aligned world box.

    Used to restrict contouring (and its offload) to a region of
    interest; shape conventions match :func:`active_cell_mask`.
    """
    lo = (bounds.xmin, bounds.ymin, bounds.zmin)
    hi = (bounds.xmax, bounds.ymax, bounds.zmax)
    nx, ny, nz = grid.dims
    in_box = np.ones((nz, ny, nx), dtype=bool)
    # Broadcast per-axis coordinate membership onto the point lattice.
    shapes = ((1, 1, nx), (1, ny, 1), (nz, 1, 1))
    for axis in range(3):
        coords = np.asarray(grid.axis_coords(axis))
        ok = (coords >= lo[axis]) & (coords <= hi[axis])
        in_box &= ok.reshape(shapes[axis])
    return point_mask_to_cell_complete(in_box)


def point_mask_to_cell_complete(point_mask: np.ndarray) -> np.ndarray:
    """Cells whose every corner point is present in ``point_mask``.

    The post-filter's admission rule: only *complete* cells are contoured.
    Shape conventions match :func:`active_cell_mask`.
    """
    m = np.asarray(point_mask, dtype=bool)
    if m.ndim != 3:
        raise FilterError(f"point mask must be 3-D; got shape {m.shape}")
    out = m
    for axis in range(3):
        if m.shape[axis] > 1:
            a = [slice(None)] * 3
            b = [slice(None)] * 3
            a[axis] = slice(None, -1)
            b[axis] = slice(1, None)
            out = out[tuple(a)] & out[tuple(b)]
    return out
