"""Unit tests for the generated tetrahedral contouring tables."""

import itertools

import numpy as np
import pytest

from repro.filters.tetra_tables import (
    CELL_EDGES,
    CORNER_OFFSETS,
    KUHN_TETS,
    TET_CASE_EDGES,
    TET_CASES,
    TET_EDGES,
    edge_id,
)


class TestCornerLayout:
    def test_offsets_binary_order(self):
        for c, (di, dj, dk) in enumerate(CORNER_OFFSETS):
            assert (di, dj, dk) == (c & 1, (c >> 1) & 1, (c >> 2) & 1)


class TestKuhnDecomposition:
    def test_six_tets(self):
        assert len(KUHN_TETS) == 6

    def test_all_share_main_diagonal(self):
        for tet in KUHN_TETS:
            assert 0 in tet and 7 in tet

    def test_tets_partition_cube_volume(self):
        """The 6 tets' volumes sum to the unit cube's volume."""
        corners = np.array(CORNER_OFFSETS, dtype=float)
        total = 0.0
        for tet in KUHN_TETS:
            p = corners[list(tet)]
            v = abs(np.linalg.det(p[1:] - p[0])) / 6.0
            total += v
            assert v > 0  # non-degenerate
        assert total == pytest.approx(1.0)

    def test_tets_interior_disjoint(self):
        """Random points land in exactly one tet (boundary aside)."""
        corners = np.array(CORNER_OFFSETS, dtype=float)
        rng = np.random.default_rng(0)
        pts = rng.random((200, 3))

        def inside(tet, q):
            p = corners[list(tet)]
            mat = np.column_stack([p[1] - p[0], p[2] - p[0], p[3] - p[0]])
            lam = np.linalg.solve(mat, q - p[0])
            return (lam > 1e-9).all() and lam.sum() < 1 - 1e-9

        for q in pts:
            hits = sum(inside(tet, q) for tet in KUHN_TETS)
            assert hits <= 1
        # And collectively they cover the cube (allow boundary misses).
        covered = sum(
            any(inside(tet, q) for tet in KUHN_TETS) for q in pts
        )
        assert covered >= 190


class TestEdges:
    def test_edge_count(self):
        assert len(TET_EDGES) == 6

    def test_edge_id_symmetric(self):
        for a, b in itertools.combinations(range(4), 2):
            assert edge_id(a, b) == edge_id(b, a)

    def test_edge_id_covers_all(self):
        ids = {edge_id(a, b) for a, b in itertools.combinations(range(4), 2)}
        assert ids == set(range(6))


class TestCaseTable:
    def test_16_cases(self):
        assert len(TET_CASES) == 16

    def test_empty_and_full_emit_nothing(self):
        assert TET_CASES[0] == ()
        assert TET_CASES[15] == ()

    def test_triangle_counts(self):
        for case in range(1, 15):
            n_inside = bin(case).count("1")
            expected = 1 if n_inside in (1, 3) else 2
            assert len(TET_CASES[case]) == expected

    def test_complementary_cases_use_same_edges(self):
        """Case c and ~c cut the same edge set (the same surface)."""
        for case in range(1, 15):
            comp = case ^ 0xF
            edges_a = {e for tri in TET_CASES[case] for e in tri}
            edges_b = {e for tri in TET_CASES[comp] for e in tri}
            assert edges_a == edges_b

    def test_triangles_use_only_crossing_edges(self):
        """Every edge used must connect an inside to an outside vertex."""
        for case in range(16):
            inside = {s for s in range(4) if case >> s & 1}
            for tri in TET_CASES[case]:
                for e in tri:
                    a, b = TET_EDGES[e]
                    assert (a in inside) != (b in inside)

    def test_all_crossing_edges_are_used(self):
        """No crossing edge is left without a contour vertex."""
        for case in range(1, 15):
            inside = {s for s in range(4) if case >> s & 1}
            crossing = {
                i
                for i, (a, b) in enumerate(TET_EDGES)
                if (a in inside) != (b in inside)
            }
            used = {e for tri in TET_CASES[case] for e in tri}
            assert used == crossing

    def test_quad_triangles_share_diagonal(self):
        """Two-triangle cases share exactly one edge pair (the diagonal)."""
        for case in range(1, 15):
            tris = TET_CASES[case]
            if len(tris) == 2:
                shared = set(tris[0]) & set(tris[1])
                assert len(shared) == 2


class TestCellEdges:
    def test_nineteen_distinct_edges(self):
        """12 cube edges, 6 face diagonals and the body diagonal."""
        assert len(CELL_EDGES) == 19
        assert len(set(CELL_EDGES)) == 19
        steps = sorted(
            sum(a != b for a, b in zip(CORNER_OFFSETS[ca], CORNER_OFFSETS[cb]))
            for ca, cb in CELL_EDGES
        )
        assert steps == [1] * 12 + [2] * 6 + [3]

    def test_pairs_ascend(self):
        for ca, cb in CELL_EDGES:
            assert ca < cb

    def test_offsets_never_decrease_along_an_edge(self):
        """Walking an edge from its lower corner id never steps back on any
        axis — what lets the kernel take ``pb - pa`` from two fixed ends."""
        for ca, cb in CELL_EDGES:
            for oa, ob in zip(CORNER_OFFSETS[ca], CORNER_OFFSETS[cb]):
                assert oa <= ob

    def test_every_tet_edge_is_a_cell_edge(self):
        for tet in KUHN_TETS:
            assert list(tet) == sorted(tet)
            for a, b in TET_EDGES:
                assert (tet[a], tet[b]) in CELL_EDGES


class TestTetCaseEdges:
    def test_shape_follows_tet_cases(self):
        assert len(TET_CASE_EDGES) == len(KUHN_TETS)
        for per_tet in TET_CASE_EDGES:
            assert len(per_tet) == 16
            for case in range(16):
                assert len(per_tet[case]) == len(TET_CASES[case])

    def test_reproduces_tet_cases(self):
        """All 6 x 16 entries name the cell edges TET_CASES names through
        TET_EDGES, slot by slot and vertex by vertex."""
        for t, tet in enumerate(KUHN_TETS):
            for case in range(16):
                expected = tuple(
                    tuple((tet[TET_EDGES[e][0]], tet[TET_EDGES[e][1]]) for e in tri)
                    for tri in TET_CASES[case]
                )
                got = tuple(
                    tuple(CELL_EDGES[ce] for ce in tri)
                    for tri in TET_CASE_EDGES[t][case]
                )
                assert got == expected, (t, case)

    def test_entries_straddle_their_case(self):
        """Every (tet, case, slot) entry names edges with one end inside
        and one outside, judged on the tet's own corner classification."""
        for t, tet in enumerate(KUHN_TETS):
            for case in range(16):
                inside = {tet[s] for s in range(4) if case >> s & 1}
                for tri in TET_CASE_EDGES[t][case]:
                    for ce in tri:
                        ca, cb = CELL_EDGES[ce]
                        assert (ca in inside) != (cb in inside), (t, case, tri)
