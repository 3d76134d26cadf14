"""Axis-aligned slice filter: extract one plane of a uniform grid.

The second-most-common selective filter in visualization practice after
contouring (ParaView's Slice with an axis-aligned plane).  Slicing a
``N^3`` grid needs at most *two* lattice planes of data — a 2/N fraction —
which makes it the natural second offload target the paper's conclusion
calls for ("our current experiments were limited to a single filter
type"); see the ``slice`` split filter in :mod:`repro.core.filter_splits`
for its pre/post split.

The output is a quad mesh (two triangles per cell) in the slicing plane,
with every requested point array linearly interpolated onto it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FilterError
from repro.grid.array import DataArray
from repro.grid.polydata import CellArray, PolyData

__all__ = ["slice_grid", "slice_plane_indices"]


def slice_plane_indices(grid, axis: int, coordinate: float):
    """Bracketing lattice planes for a world coordinate along ``axis``.

    Works for uniform and rectilinear grids (anything exposing
    ``axis_coords``).  Returns ``(i0, i1, t)``: the plane indices and the
    interpolation parameter in [0, 1] (``i0 == i1`` and ``t == 0`` on
    exact hits).
    """
    if axis not in (0, 1, 2):
        raise FilterError(f"axis must be 0..2, got {axis}")
    coords = np.asarray(grid.axis_coords(axis), dtype=np.float64)
    lo, hi = float(coords[0]), float(coords[-1])
    if not lo <= coordinate <= hi:
        raise FilterError(
            f"slice coordinate {coordinate} outside grid range [{lo}, {hi}] "
            f"on axis {axis}"
        )
    i0 = int(np.searchsorted(coords, coordinate, side="right")) - 1
    i0 = min(max(i0, 0), coords.size - 1)
    if i0 == coords.size - 1:
        return i0, i0, 0.0
    span = coords[i0 + 1] - coords[i0]
    t = (coordinate - coords[i0]) / span
    # Snap near-exact hits on either bracketing plane: world coordinates
    # like origin + k*spacing rarely reproduce k exactly in binary.
    if t < 1e-9:
        return i0, i0, 0.0
    if t > 1.0 - 1e-9:
        return i0 + 1, i0 + 1, 0.0
    return i0, i0 + 1, float(t)


def _plane_axes(axis: int) -> tuple[int, int]:
    """The two in-plane axes (u, v) for a slice normal to ``axis``."""
    return tuple(a for a in range(3) if a != axis)  # type: ignore[return-value]


def _extract_plane(field: np.ndarray, axis: int, index: int) -> np.ndarray:
    """One lattice plane of a (nz, ny, nx) field; world axis order."""
    # field axes are (z, y, x) == world axes (2, 1, 0)
    field_axis = 2 - axis
    return np.take(field, index, axis=field_axis)


def slice_grid(
    grid,
    axis: int,
    coordinate: float,
    array_names: list[str] | None = None,
) -> PolyData:
    """Slice a grid with an axis-aligned plane.

    Parameters
    ----------
    grid:
        Input uniform or rectilinear grid (3-D).
    axis, coordinate:
        Plane normal axis (0=x, 1=y, 2=z) and its world coordinate.
    array_names:
        Point arrays to interpolate onto the slice (default: all scalars).

    Returns
    -------
    PolyData
        A triangulated quad mesh with interpolated point data.
    """
    if grid.is_2d:
        raise FilterError("slice_grid expects a 3-D grid")
    i0, i1, t = slice_plane_indices(grid, axis, coordinate)
    ua, va = _plane_axes(axis)
    nu, nv = grid.dims[ua], grid.dims[va]

    # Points: the lattice (u, v) positions at the slice coordinate.
    us = np.asarray(grid.axis_coords(ua), dtype=np.float64)
    vs = np.asarray(grid.axis_coords(va), dtype=np.float64)
    uu, vv = np.meshgrid(us, vs, indexing="xy")  # shape (nv, nu)
    points = np.empty((nu * nv, 3), dtype=np.float64)
    points[:, ua] = uu.reshape(-1)
    points[:, va] = vv.reshape(-1)
    points[:, axis] = coordinate

    # Quads -> two triangles per cell, u fastest.
    iu = np.arange(nu - 1)
    iv = np.arange(nv - 1)
    gu, gv = np.meshgrid(iu, iv, indexing="xy")
    p00 = (gv * nu + gu).reshape(-1)
    p10 = p00 + 1
    p01 = p00 + nu
    p11 = p01 + 1
    tris = np.empty((p00.size * 2, 3), dtype=np.int64)
    tris[0::2] = np.stack([p00, p10, p11], axis=1)
    tris[1::2] = np.stack([p00, p11, p01], axis=1)

    out = PolyData(points)
    out.polys = CellArray.from_uniform(tris)

    names = array_names if array_names is not None else [
        arr.name for arr in grid.point_data if arr.components == 1
    ]
    for name in names:
        field = grid.scalar_field(name)
        plane0 = _extract_plane(field, axis, i0)
        if i1 == i0:
            sliced = plane0.astype(np.float64)
        else:
            plane1 = _extract_plane(field, axis, i1)
            sliced = (1.0 - t) * plane0 + t * plane1
        # plane arrays come out as (v, u) with u fastest when flattened —
        # matching the point layout above for every axis choice.
        out.point_data.add(DataArray(name, sliced.reshape(-1)))
    return out
