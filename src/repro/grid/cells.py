"""Vectorized topology helpers for structured (uniform rectilinear) grids.

Point ids follow VTK's convention: x varies fastest, then y, then z, so the
point at integer coordinates ``(i, j, k)`` on a grid with ``dims=(nx,ny,nz)``
has id ``i + j*nx + k*nx*ny``.

The paper's interesting-edge analysis (Sec. II-B) operates on the
axis-aligned edges of this lattice; :func:`structured_edges` enumerates them
without Python loops.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GridError

__all__ = [
    "point_count",
    "cell_count",
    "point_ijk_to_id",
    "point_id_to_ijk",
    "structured_edges",
    "edge_endpoints",
]


def _check_dims(dims) -> tuple[int, int, int]:
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise GridError(f"dims must have 3 entries, got {dims!r}")
    if any(d < 1 for d in dims):
        raise GridError(f"dims must be >= 1 in every direction, got {dims!r}")
    return dims


def point_count(dims) -> int:
    """Number of points on a grid with ``dims`` points per axis."""
    nx, ny, nz = _check_dims(dims)
    return nx * ny * nz


def cell_count(dims) -> int:
    """Number of cells (voxels / pixels / line segments) on the grid.

    Degenerate axes (a single point plane) contribute a factor of 1, so a
    ``(nx, ny, 1)`` grid has ``(nx-1)*(ny-1)`` pixel cells.
    """
    nx, ny, nz = _check_dims(dims)
    return max(nx - 1, 1) * max(ny - 1, 1) * max(nz - 1, 1)


def point_ijk_to_id(ijk, dims) -> np.ndarray:
    """Convert integer lattice coordinates to flat point ids.

    ``ijk`` may be a single triple or an ``(n, 3)`` array.
    """
    nx, ny, nz = _check_dims(dims)
    arr = np.asarray(ijk, dtype=np.int64)
    single = arr.ndim == 1
    arr = arr.reshape(-1, 3)
    if (arr < 0).any() or (arr >= np.array([nx, ny, nz])).any():
        raise GridError("ijk coordinates out of grid range")
    ids = arr[:, 0] + arr[:, 1] * nx + arr[:, 2] * (nx * ny)
    return ids[0] if single else ids


def point_id_to_ijk(ids, dims) -> np.ndarray:
    """Convert flat point ids back to ``(n, 3)`` lattice coordinates."""
    nx, ny, nz = _check_dims(dims)
    arr = np.asarray(ids, dtype=np.int64)
    single = arr.ndim == 0
    arr = arr.reshape(-1)
    if (arr < 0).any() or (arr >= nx * ny * nz).any():
        raise GridError("point ids out of grid range")
    k, rem = np.divmod(arr, nx * ny)
    j, i = np.divmod(rem, nx)
    out = np.stack([i, j, k], axis=1)
    return out[0] if single else out


def edge_endpoints(dims, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat point-id endpoint arrays ``(a, b)`` of all edges along ``axis``.

    Edge ``m`` connects point ``a[m]`` to ``b[m] = a[m] + stride(axis)``.
    Returned arrays are 1-D int64 and may be empty for degenerate axes.
    """
    nx, ny, nz = _check_dims(dims)
    if axis not in (0, 1, 2):
        raise GridError(f"axis must be 0, 1, or 2, got {axis}")
    ids = np.arange(nx * ny * nz, dtype=np.int64).reshape(nz, ny, nx)
    if axis == 0:
        a = ids[:, :, :-1]
    elif axis == 1:
        a = ids[:, :-1, :]
    else:
        a = ids[:-1, :, :]
    a = a.reshape(-1)
    stride = (1, nx, nx * ny)[axis]
    return a, a + stride


def structured_edges(dims) -> tuple[np.ndarray, np.ndarray]:
    """All axis-aligned lattice edges of the grid as ``(a, b)`` id arrays."""
    parts_a = []
    parts_b = []
    for axis in range(3):
        a, b = edge_endpoints(dims, axis)
        parts_a.append(a)
        parts_b.append(b)
    return np.concatenate(parts_a), np.concatenate(parts_b)
