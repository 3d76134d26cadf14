"""Frozen reference: the marching-tetrahedra kernel as it was before the
per-distinct-edge rewrite, kept verbatim so the identity suite can compare
the live kernel against it bit for bit.  Do not optimise or edit this file;
it is a test oracle, not library code.

Original module docstring:

Vectorized marching tetrahedra: 3-D isosurfaces over uniform grids.

The library's 3-D contour kernel.  VTK's image-data contour uses
synchronized templates / marching cubes; marching tetrahedra produces an
equivalent (watertight, linearly interpolated) isosurface with a small,
programmatically generated case table — see :mod:`repro.filters.tetra_tables`
for why that trade was made.  The paper's data-reduction analysis depends
only on which lattice edges cross the contour value, which is identical for
both algorithms.

The kernel optionally takes a *cell mask*; masked-out cells are skipped.
This is how the post-filter contours a sparse reconstruction: only cells
whose eight corners were all transferred are processed, which (together
with cell-closure selection) makes the result bit-identical to contouring
the full array (DESIGN.md §5 invariant 1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FilterError
from repro.filters.tetra_tables import CORNER_OFFSETS, KUHN_TETS, TET_CASES, TET_EDGES

__all__ = ["marching_tetrahedra"]


def _resolve_axes(axes, dims_xyz, origin, spacing):
    """Per-axis float64 coordinate arrays for a (possibly uniform) lattice."""
    if axes is None:
        return tuple(
            float(origin[a]) + float(spacing[a]) * np.arange(dims_xyz[a])
            for a in range(3)
        )
    resolved = []
    for a, name in enumerate("xyz"):
        arr = np.ascontiguousarray(axes[a], dtype=np.float64)
        if arr.ndim != 1 or arr.size != dims_xyz[a]:
            raise FilterError(
                f"{name} axis has {arr.size} coordinates; field needs {dims_xyz[a]}"
            )
        resolved.append(arr)
    return tuple(resolved)


def _corner_views(f: np.ndarray) -> list[np.ndarray]:
    """Eight (nz-1, ny-1, nx-1) views giving each cell's corner values."""
    nz, ny, nx = f.shape
    views = []
    for di, dj, dk in CORNER_OFFSETS:
        views.append(f[dk : dk + nz - 1, dj : dj + ny - 1, di : di + nx - 1])
    return views


def marching_tetrahedra(
    field: np.ndarray,
    value: float,
    origin=(0.0, 0.0, 0.0),
    spacing=(1.0, 1.0, 1.0),
    cell_mask: np.ndarray | None = None,
    axes=None,
) -> np.ndarray:
    """Extract the isosurface of a 3-D scalar field at ``value``.

    Parameters
    ----------
    field:
        ``(nz, ny, nx)`` scalar array.
    value:
        Contour value; points with ``field >= value`` classify inside.
    origin, spacing:
        World placement of a *uniform* lattice (x, y, z order); ignored
        when ``axes`` is given.
    cell_mask:
        Optional ``(nz-1, ny-1, nx-1)`` boolean array; False cells are
        skipped.
    axes:
        Optional ``(x_coords, y_coords, z_coords)`` for rectilinear
        lattices; lengths must match the field's (nx, ny, nz).

    Returns
    -------
    triangles : ndarray
        ``(n, 3, 3)`` float64 triangle soup: ``triangles[t, vertex, xyz]``.
    """
    field = np.asarray(field)
    if field.ndim != 3 or min(field.shape) < 2:
        raise FilterError(
            f"field must be (nz>=2, ny>=2, nx>=2); got shape {field.shape}"
        )
    f = field.astype(np.float64, copy=False)
    value = float(value)

    corner_vals_full = _corner_views(f)
    inside_full = [cv >= value for cv in corner_vals_full]

    # Active cells: mixed corner classification (and allowed by the mask).
    any_inside = inside_full[0].copy()
    all_inside = inside_full[0].copy()
    for ins in inside_full[1:]:
        any_inside |= ins
        all_inside &= ins
    active = any_inside & ~all_inside
    if cell_mask is not None:
        cell_mask = np.asarray(cell_mask, dtype=bool)
        if cell_mask.shape != active.shape:
            raise FilterError(
                f"cell_mask shape {cell_mask.shape} != cells shape {active.shape}"
            )
        active &= cell_mask

    kz, jy, ix = np.nonzero(active)
    nact = kz.size
    if nact == 0:
        return np.zeros((0, 3, 3), dtype=np.float64)

    # Corner values and inside flags per active cell: shape (8, nact).
    vals = np.empty((8, nact), dtype=np.float64)
    for c in range(8):
        vals[c] = corner_vals_full[c][kz, jy, ix]
    inside = vals >= value

    # Per-axis lattice coordinates: a uniform grid is just the arithmetic
    # progression; rectilinear grids pass theirs directly.  One code path
    # keeps uniform and rectilinear contouring bit-consistent.
    nz, ny, nx = f.shape
    xs, ys, zs = _resolve_axes(axes, (nx, ny, nz), origin, spacing)

    def corner_coords(c: int, sel: np.ndarray) -> np.ndarray:
        di, dj, dk = CORNER_OFFSETS[c]
        return np.stack(
            [
                xs[ix[sel] + di],
                ys[jy[sel] + dj],
                zs[kz[sel] + dk],
            ],
            axis=1,
        )

    tri_chunks: list[np.ndarray] = []

    for tet in KUHN_TETS:
        # 4-bit case per active cell for this tetrahedron.
        tcase = (
            inside[tet[0]].astype(np.uint8)
            | (inside[tet[1]].astype(np.uint8) << 1)
            | (inside[tet[2]].astype(np.uint8) << 2)
            | (inside[tet[3]].astype(np.uint8) << 3)
        )
        for case in range(1, 15):
            tris = TET_CASES[case]
            if not tris:
                continue
            sel = np.nonzero(tcase == case)[0]
            if sel.size == 0:
                continue
            # Interpolate the crossing point on each tet edge this case uses.
            needed_edges = sorted({e for tri in tris for e in tri})
            edge_pts: dict[int, np.ndarray] = {}
            for e in needed_edges:
                sa, sb = TET_EDGES[e]
                ca, cb = tet[sa], tet[sb]
                va = vals[ca][sel]
                vb = vals[cb][sel]
                denom = vb - va
                t = np.where(
                    denom != 0.0,
                    (value - va) / np.where(denom == 0.0, 1.0, denom),
                    0.5,
                )
                t = np.clip(t, 0.0, 1.0)[:, None]
                pa = corner_coords(ca, sel)
                pb = corner_coords(cb, sel)
                edge_pts[e] = pa + t * (pb - pa)
            for tri in tris:
                tri_chunks.append(
                    np.stack([edge_pts[tri[0]], edge_pts[tri[1]], edge_pts[tri[2]]], axis=1)
                )

    if not tri_chunks:
        return np.zeros((0, 3, 3), dtype=np.float64)
    return np.concatenate(tri_chunks, axis=0)
