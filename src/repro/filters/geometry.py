"""Geometry post-processing for contour output.

Contour kernels emit a *triangle soup* (each triangle owns its three
vertices).  These utilities turn that into analysis-ready form:

* :func:`weld_points` — merge coincident vertices into an indexed mesh,
* :func:`surface_area` — measure the output,
* :func:`connected_components` — split the mesh into its separate
  surfaces, which is how the Nyx example counts halo candidates
  (each closed isosurface around a density peak is one candidate).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FilterError
from repro.grid.polydata import CellArray, PolyData

__all__ = [
    "weld_points",
    "surface_area",
    "connected_components",
    "component_sizes",
]


def weld_points(polydata: PolyData, decimals: int = 9) -> PolyData:
    """Merge vertices that coincide (after rounding) into an indexed mesh.

    Rounding to ``decimals`` places makes vertices produced by the same
    lattice edge in adjacent cells compare equal despite float noise.
    Point data is taken from the first occurrence of each welded point.
    """
    if polydata.num_points == 0:
        return PolyData()
    rounded = polydata.points.round(decimals)
    uniq, first_idx, inverse = np.unique(
        rounded, axis=0, return_index=True, return_inverse=True
    )
    out = PolyData(polydata.points[first_idx])
    for name, cells in (("verts", polydata.verts), ("lines", polydata.lines),
                        ("polys", polydata.polys)):
        remapped = CellArray(cells.offsets, inverse[cells.connectivity])
        setattr(out, name, remapped)
    for arr in polydata.point_data:
        out.point_data.add(arr.take(first_idx))
    return out


def surface_area(polydata: PolyData) -> float:
    """Total area of the polygon (triangle) cells."""
    tris = polydata.triangles()
    if tris.shape[0] == 0:
        return 0.0
    pts = polydata.points[tris]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    return float(0.5 * np.linalg.norm(np.cross(e1, e2), axis=1).sum())


def _union_find_components(n_points: int, edges: np.ndarray) -> np.ndarray:
    """Label points 0..n-1 by connected component, given (m, 2) edges."""
    parent = np.arange(n_points, dtype=np.int64)

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    for a, b in edges:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[rb] = ra
    roots = np.array([find(int(i)) for i in range(n_points)], dtype=np.int64)
    _, labels = np.unique(roots, return_inverse=True)
    return labels


def connected_components(polydata: PolyData, weld_decimals: int = 9) -> np.ndarray:
    """Component label per *welded* point of the mesh.

    The soup is welded first (component analysis on unwelded soup would
    see every triangle as its own island).  Returns an int label array
    over ``weld_points(polydata)``'s points.
    """
    welded = weld_points(polydata, weld_decimals)
    if welded.num_points == 0:
        return np.zeros(0, dtype=np.int64)
    edge_list = []
    tris = welded.triangles() if welded.polys.num_cells else None
    if tris is not None and len(tris):
        edge_list.append(tris[:, [0, 1]])
        edge_list.append(tris[:, [1, 2]])
        edge_list.append(tris[:, [2, 0]])
    if welded.lines.num_cells:
        edge_list.append(welded.segments())
    edges = (
        np.concatenate(edge_list) if edge_list else np.zeros((0, 2), dtype=np.int64)
    )
    return _union_find_components(welded.num_points, edges)


def component_sizes(polydata: PolyData, weld_decimals: int = 9,
                    min_points: int = 1) -> list[int]:
    """Point counts of each connected component, largest first.

    ``min_points`` drops tiny fragments (isolated degenerate triangles).
    """
    if min_points < 1:
        raise FilterError(f"min_points must be >= 1, got {min_points}")
    labels = connected_components(polydata, weld_decimals)
    if labels.size == 0:
        return []
    counts = np.bincount(labels)
    counts = counts[counts >= min_points]
    return sorted((int(c) for c in counts), reverse=True)
