"""Output checks, run outside every timed region.

References come from the generated grids through the stock filters (never
through the server under test): a contour must be array-equal to
``contour_grid`` on the full grid, a threshold must hold exactly the points
NumPy's mask holds, a slice must equal ``slice_grid``, statistics must match
NumPy, and a shipped block must decompress to the generated array.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.filters.contour import contour_grid
from repro.filters.slice import slice_grid

from perf.workloads import FRAME_SIZE, Op


def _step_of(key: str) -> int:
    return int(key.rsplit("/ts", 1)[1].split(".")[0])


def _geometry(polydata) -> tuple:
    return (np.asarray(polydata.points), np.asarray(polydata.triangles()))


def _same_geometry(polydata, reference) -> bool:
    points, triangles = _geometry(polydata)
    return (np.array_equal(points, reference[0])
            and np.array_equal(triangles, reference[1]))


class References:
    """Expected output per distinct :class:`Op`, built during set-up."""

    def __init__(self, grids: dict, tenants: dict):
        self.contour_grid_seconds: list[float] = []
        self._expected: dict[Op, object] = {}
        #: first digest seen per frame op; later rounds must repeat it
        self._frame_digests: dict[Op, str] = {}
        for ops in tenants.values():
            for op in ops:
                if op not in self._expected:
                    self._expected[op] = self._build(grids[_step_of(op.key)], op)

    def _build(self, grid, op: Op):
        values = grid.point_data.get(op.array).values
        if op.kind in ("contour", "frame"):
            t0 = time.perf_counter()
            polydata = contour_grid(grid, op.array, [op.args[0]])
            self.contour_grid_seconds.append(time.perf_counter() - t0)
            return _geometry(polydata)
        if op.kind == "threshold":
            lower, upper = op.args
            return int(((values >= lower) & (values <= upper)).sum())
        if op.kind == "slice":
            sliced = slice_grid(grid, op.args[0], op.args[1], [op.array])
            return (_geometry(sliced), sliced.point_data.get(op.array).values)
        if op.kind == "stats":
            return (int(values.size), float(values.min()), float(values.max()))
        if op.kind == "read_block":
            return np.ascontiguousarray(values).tobytes()
        raise ValueError(f"no reference for op kind {op.kind!r}")

    def check(self, op: Op, output) -> bool:
        """True when ``output`` (what ``ops.run_op`` returned) is right."""
        expected = self._expected[op]
        if op.kind == "contour":
            return _same_geometry(output, expected)
        if op.kind == "frame":
            polydata, ppm = output
            digest = hashlib.sha256(ppm).hexdigest()
            first = self._frame_digests.setdefault(op, digest)
            header_len = len(ppm) - 3 * FRAME_SIZE[0] * FRAME_SIZE[1]
            pixels = np.frombuffer(ppm, dtype=np.uint8, offset=header_len)
            lit = bool((pixels.reshape(-1, 3) != pixels[:3]).any())
            return _same_geometry(polydata, expected) and digest == first and lit
        if op.kind == "threshold":
            return output.num_points == expected
        if op.kind == "slice":
            return (_same_geometry(output, expected[0]) and np.array_equal(
                output.point_data.get(op.array).values, expected[1]))
        if op.kind == "stats":
            return (output["count"], output["min"], output["max"]) == expected
        if op.kind == "read_block":
            return output == expected
        raise ValueError(f"no check for op kind {op.kind!r}")
