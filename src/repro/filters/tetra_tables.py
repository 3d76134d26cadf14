"""Lookup tables for tetrahedral contouring of uniform grids.

Voxels are decomposed into the six Kuhn tetrahedra around the main diagonal
``(0,0,0) -- (1,1,1)``.  This decomposition is consistent across adjacent
voxels (shared faces receive the same diagonal from both sides), so the
extracted isosurface is watertight.

Cell corners are numbered ``c = i + 2*j + 4*k`` for offsets
``(i, j, k) in {0,1}^3``, i.e. x varies fastest, matching the grid's point
id convention.

The per-tetrahedron case table is *generated* rather than transcribed: with
only 16 cases the correct triangulation is derivable from first principles
(one triangle when one vertex is separated, a quad split into two triangles
when two are), which removes the transcription-error risk of the classic
256-entry marching-cubes tables.
"""

from __future__ import annotations

__all__ = [
    "CORNER_OFFSETS",
    "KUHN_TETS",
    "TET_EDGES",
    "TET_CASES",
    "CELL_EDGES",
    "TET_CASE_EDGES",
    "edge_id",
]

#: (di, dj, dk) lattice offset of each cell corner.
CORNER_OFFSETS: tuple[tuple[int, int, int], ...] = tuple(
    (c & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)
)

#: The six Kuhn tetrahedra as 4-tuples of cell corner ids.  Each is
#: ``{0, e_a, e_a+e_b, 7}`` for a permutation (a, b, c) of the axes, where
#: e_x=1, e_y=2, e_z=4 in corner-id space.
KUHN_TETS: tuple[tuple[int, int, int, int], ...] = (
    (0, 1, 3, 7),  # x, y, z
    (0, 1, 5, 7),  # x, z, y
    (0, 2, 3, 7),  # y, x, z
    (0, 2, 6, 7),  # y, z, x
    (0, 4, 5, 7),  # z, x, y
    (0, 4, 6, 7),  # z, y, x
)

#: The 6 edges of a tetrahedron as (slot_a, slot_b) pairs, slot_a < slot_b.
TET_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 2),
    (1, 3),
    (2, 3),
)

_EDGE_ID = {pair: idx for idx, pair in enumerate(TET_EDGES)}


def edge_id(a: int, b: int) -> int:
    """Edge index of the tet edge between vertex slots ``a`` and ``b``."""
    return _EDGE_ID[(a, b) if a < b else (b, a)]


def _build_tet_cases() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Triangles (as triples of tet-edge ids) for each of the 16 cases.

    Case bit ``s`` is set when tet vertex slot ``s`` classifies inside
    (value >= contour value).
    """
    cases: list[tuple[tuple[int, int, int], ...]] = []
    for case in range(16):
        inside = [s for s in range(4) if case >> s & 1]
        outside = [s for s in range(4) if not case >> s & 1]
        if len(inside) in (1, 3):
            # One vertex separated from the other three: a single triangle
            # on the three edges incident to the separated vertex.
            lone = inside[0] if len(inside) == 1 else outside[0]
            others = [s for s in range(4) if s != lone]
            tris = (
                (
                    edge_id(lone, others[0]),
                    edge_id(lone, others[1]),
                    edge_id(lone, others[2]),
                ),
            )
        elif len(inside) == 2:
            # Two-and-two split: the isosurface cuts a quad whose cycle
            # alternates shared vertices (s0, t1, s1, t0), split into two
            # triangles along one diagonal.
            s0, s1 = inside
            t0, t1 = outside
            q = (
                edge_id(s0, t0),
                edge_id(s0, t1),
                edge_id(s1, t1),
                edge_id(s1, t0),
            )
            tris = ((q[0], q[1], q[2]), (q[0], q[2], q[3]))
        else:
            tris = ()
        cases.append(tris)
    return tuple(cases)


#: TET_CASES[case] -> tuple of triangles, each a triple of tet-edge ids.
TET_CASES: tuple[tuple[tuple[int, int, int], ...], ...] = _build_tet_cases()


#: The distinct cell edges the six Kuhn tets use, as ascending
#: ``(corner_a, corner_b)`` pairs: 12 cube edges, 6 face diagonals and the
#: body diagonal.  Every tet lists its corners in ascending order, so every
#: tet that shares an edge walks it in the same direction.
CELL_EDGES: tuple[tuple[int, int], ...] = tuple(sorted({
    (tet[a], tet[b]) for tet in KUHN_TETS for a, b in TET_EDGES
}))

_CELL_EDGE_ID = {pair: idx for idx, pair in enumerate(CELL_EDGES)}


def _build_tet_case_edges() -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], ...]:
    """``TET_CASES`` re-addressed per tet: triangles as triples of
    :data:`CELL_EDGES` ids instead of tet-edge ids."""
    out = []
    for tet in KUHN_TETS:
        cell_edge = [_CELL_EDGE_ID[(tet[a], tet[b])] for a, b in TET_EDGES]
        out.append(tuple(
            tuple(tuple(cell_edge[e] for e in tri) for tri in tris)
            for tris in TET_CASES
        ))
    return tuple(out)


#: TET_CASE_EDGES[tet][case][slot] -> the triangle's three CELL_EDGES ids.
TET_CASE_EDGES = _build_tet_case_edges()
