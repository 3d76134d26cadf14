"""Vectorized marching tetrahedra: 3-D isosurfaces over uniform and
rectilinear grids.

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

It runs in three array passes, with no per-tet or per-case Python loop:
classify every point once and fold the eight corner bits into one
``uint8`` code per cell; interpolate each of the 19 distinct cell edges
(:data:`~repro.filters.tetra_tables.CELL_EDGES`) once for every active
cell; then gather the triangles through a code → key table, sorted so
the soup comes out tet → case → triangle → cell.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FilterError
from repro.filters.tetra_tables import (
    CELL_EDGES,
    CORNER_OFFSETS,
    KUHN_TETS,
    TET_CASE_EDGES,
)

__all__ = ["marching_tetrahedra"]

#: Key of a tet's triangle slot that a cell code does not emit; sorts last.
_NO_TRIANGLE = 255


def _build_gather_tables() -> tuple[np.ndarray, np.ndarray]:
    """``KEYS[tet, slot, code]``: the ``tet*32 + case*2 + slot`` sort key
    of each triangle a cell code emits (``_NO_TRIANGLE`` when none), and
    ``KEY_EDGES[key]``: that triangle's three :data:`CELL_EDGES` ids."""
    keys = np.full((len(KUHN_TETS), 2, 256), _NO_TRIANGLE, dtype=np.uint8)
    key_edges = np.zeros((256, 3), dtype=np.intp)
    for t, tet in enumerate(KUHN_TETS):
        for code in range(256):
            case = sum((code >> c & 1) << s for s, c in enumerate(tet))
            for slot, tri in enumerate(TET_CASE_EDGES[t][case]):
                key = t * 32 + case * 2 + slot
                keys[t, slot, code] = key
                key_edges[key] = tri
    return keys, key_edges


_KEYS, _KEY_EDGES = _build_gather_tables()


def _native_thresholds(dtype, vals) -> tuple:
    """Exact per-dtype comparison thresholds for ``f >= v``.

    Naively comparing a float32 array against a plain Python float casts
    the *value* down to float32 (NEP 50), silently flipping
    classifications for values outside float32's range; comparing
    against an ``np.float64`` scalar is exact but streams the whole
    array through float64 conversion buffers.  For float32 fields the
    float64 comparison ``f >= v`` is *exactly* the native comparison
    ``f >= ceil32(v)`` — no float32 lies strictly between ``v`` and the
    smallest float32 at or above it — so the scan runs at native width
    with float64 semantics.  Other dtypes compare against float64
    scalars (exact for float64 fields and for every integer the
    supported dtypes can hold).
    """
    if np.dtype(dtype) == np.float32:
        out = []
        with np.errstate(over="ignore"):  # values beyond f32 range → ±inf
            for v in vals:
                t = np.float32(v)  # round-to-nearest; may land below v
                if float(t) < float(v):
                    t = np.nextafter(t, np.float32(np.inf))
                out.append(t)
        return tuple(out)
    return tuple(np.float64(v) for v in vals)


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


def _cell_codes(inside: np.ndarray) -> np.ndarray:
    """Fold per-point inside flags into one ``uint8`` per cell whose bit
    ``c`` is corner ``c``'s flag: one shift-and-or pass per axis."""
    b = inside.view(np.uint8)
    b = b[:, :, :-1] | (b[:, :, 1:] << 1)
    b = b[:, :-1, :] | (b[:, 1:, :] << 2)
    return b[:-1] | (b[1:] << 4)


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
    dims_xyz = field.shape[::-1]
    k0 = 0
    if cell_mask is not None:
        cell_mask = np.asarray(cell_mask, dtype=bool)
        cells = tuple(n - 1 for n in field.shape)
        if cell_mask.shape != cells:
            raise FilterError(
                f"cell_mask shape {cell_mask.shape} != cells shape {cells}"
            )
        # Only the z-slab from the first to the last k-layer holding a
        # masked-in cell can emit: contiguous views, nothing copied.
        layers = np.flatnonzero(cell_mask.reshape(cells[0], -1).any(axis=1))
        if layers.size == 0:
            return np.zeros((0, 3, 3), dtype=np.float64)
        k0, k1 = int(layers[0]), int(layers[-1]) + 1
        field, cell_mask = field[k0 : k1 + 1], cell_mask[k0:k1]
    if field.dtype.kind not in "biuf" or field.dtype.itemsize > 8:
        # Compared natively, long double or complex data would not
        # classify as its float64 values do; every other dtype does.
        field = field.astype(np.float64)
    value = float(value)

    # Pass 1: classify each point once; a cell is active when its code
    # has some corner bits set but not all of them.
    code = _cell_codes(field >= _native_thresholds(field.dtype, (value,))[0])
    active = (code - np.uint8(1)) < np.uint8(254)
    if cell_mask is not None:
        active &= cell_mask

    kz, jy, ix = np.nonzero(active)
    nact = kz.size
    if nact == 0:
        return np.zeros((0, 3, 3), dtype=np.float64)
    code = code[kz, jy, ix]

    nz, ny, nx = field.shape
    flat = field.reshape(-1)
    base = (kz * ny + jy) * nx + ix
    vals = [
        flat[base + (di + dj * nx + dk * nx * ny)].astype(np.float64)
        for di, dj, dk in CORNER_OFFSETS
    ]

    # Per-axis lattice coordinates: a uniform grid is just the arithmetic
    # progression; rectilinear grids pass theirs directly.  One code path
    # keeps uniform and rectilinear contouring bit-consistent, and a slab
    # takes its z coordinates from the whole lattice's.
    xs, ys, zs = _resolve_axes(axes, dims_xyz, origin, spacing)
    zs = zs[k0:]

    # Pass 2: interpolate each distinct cell edge once.  Every tet walks a
    # shared edge in the same (ascending) direction, with the operations
    # the per-tet kernel used, so each crossing gets the same bits.
    points = np.empty((len(CELL_EDGES), nact, 3), dtype=np.float64)
    # Non-finite samples or coordinates give NaN vertices; that is the
    # data's answer, not an arithmetic fault, so it warns about nothing.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # ends[o][a]: each active cell's coordinate on axis a at corner
        # offset o; span[oa, ob][a]: the ``pb - pa`` term from offset oa
        # to ob.  Edges run from the lower corner id up, so oa <= ob.
        ends = ((xs[ix], ys[jy], zs[kz]), (xs[ix + 1], ys[jy + 1], zs[kz + 1]))
        span = {(oa, ob): [h - l for l, h in zip(ends[oa], ends[ob])]
                for oa, ob in ((0, 0), (0, 1), (1, 1))}
        for e, (ca, cb) in enumerate(CELL_EDGES):
            va, vb = vals[ca], vals[cb]
            denom = vb - va
            t = np.where(
                denom != 0.0,
                (value - va) / np.where(denom == 0.0, 1.0, denom),
                0.5,
            )
            t = np.clip(t, 0.0, 1.0)
            for a, (oa, ob) in enumerate(zip(CORNER_OFFSETS[ca], CORNER_OFFSETS[cb])):
                points[e, :, a] = ends[oa][a] + t * span[oa, ob][a]

    # Pass 3: one key per (tet, triangle slot, cell), cell fastest; a
    # stable sort puts them in tet -> case -> triangle -> cell order.
    keys = _KEYS[:, :, code].reshape(-1)
    order = np.argsort(keys, kind="stable")
    order = order[: np.count_nonzero(keys != _NO_TRIANGLE)]
    cells = order % nact
    rows = (_KEY_EDGES * nact)[keys[order]] + cells[:, None]
    return np.take(points.reshape(-1, 3), rows, axis=0)
