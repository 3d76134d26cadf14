"""The storage-side pre-filter: full array in, sparse selection out.

The paper's pre-filter "takes a full VTK data array as input and extracts
a subarray that contains only the data points relevant to the contour
being generated" (Sec. VI).  Two selection modes:

* ``"edge"`` — exactly the points incident to an interesting edge: the
  paper's definition, and the statistic its Fig. 6 reports.  Sufficient to
  place every contour vertex, but a cell can emit geometry while owning a
  corner that touches no interesting edge, so reconstruction from this set
  alone is *approximate* at such cells.
* ``"cell-closure"`` (default) — every corner of every cell that will emit
  geometry.  A strict superset of ``"edge"`` of the same order of
  magnitude, and the minimal set from which the post-filter provably
  rebuilds the contour bit-exactly.  This refinement over the paper's
  description is what makes DESIGN.md §5 invariant 1 hold.
"""

from __future__ import annotations

import numpy as np

from repro.core.interesting import (
    cell_closure_point_mask,
    cell_mask_to_point_mask,
    interesting_point_mask,
    roi_cell_mask,
)
from repro.errors import FilterError
from repro.filters.contour import _values_unset, normalize_values
from repro.grid.selection import PointSelection
from repro.grid.uniform import UniformGrid
from repro.pipeline.filter_base import Filter

from repro.filters.contour import STRUCTURED_GRID_TYPES

__all__ = [
    "prefilter_contour",
    "selection_rate",
    "ContourPreFilter",
    "SELECTION_MODES",
]

SELECTION_MODES = ("cell-closure", "edge")


def prefilter_contour(
    grid,
    array_name: str,
    values,
    mode: str = "cell-closure",
    roi=None,
) -> PointSelection:
    """Run the contour pre-filter on a grid's named scalar array.

    Returns the sparse :class:`~repro.grid.selection.PointSelection` that
    must travel to the client for the given contour ``values``.  ``roi``
    (a :class:`~repro.grid.bounds.Bounds`) restricts the selection to the
    cells inside an axis-aligned box — the post-filter must be given the
    same region.
    """
    if mode not in SELECTION_MODES:
        raise FilterError(f"unknown selection mode {mode!r}; use one of {SELECTION_MODES}")
    vals = normalize_values(values)
    field = grid.scalar_field(array_name)
    roi_cells = roi_cell_mask(grid, roi) if roi is not None else None
    if mode == "edge":
        mask = interesting_point_mask(field, vals)
        if roi_cells is not None:
            mask &= cell_mask_to_point_mask(roi_cells, field.shape)
    else:
        mask = cell_closure_point_mask(field, vals, cell_mask=roi_cells)
    ids = np.nonzero(mask.reshape(-1))[0].astype(np.int64)
    return PointSelection.from_grid(grid, array_name, ids)


def selection_rate(grid, array_name: str, values) -> float:
    """The paper's Fig. 6 statistic: selected permillage under ``"edge"`` mode."""
    return prefilter_contour(grid, array_name, values, mode="edge").permillage


class ContourPreFilter(Filter):
    """Pipeline form of the pre-filter: :class:`UniformGrid` in,
    :class:`~repro.grid.selection.PointSelection` out.

    Configuration mirrors :class:`~repro.filters.contour.ContourFilter`, so
    :func:`~repro.core.split.split_contour_filter` can derive one from the
    other.
    """

    def __init__(self, array_name: str | None = None, values=(), mode: str = "cell-closure"):
        super().__init__()
        if mode not in SELECTION_MODES:
            raise FilterError(f"unknown selection mode {mode!r}")
        self._array_name = array_name
        self._values: tuple[float, ...] = ()
        self._mode = mode
        if not _values_unset(values):
            self.set_values(values)

    def set_array_name(self, name: str) -> None:
        self._array_name = name
        self.modified()

    @property
    def array_name(self) -> str | None:
        return self._array_name

    def set_values(self, values) -> None:
        self._values = normalize_values(values)
        self.modified()

    @property
    def values(self) -> tuple[float, ...]:
        return self._values

    def set_mode(self, mode: str) -> None:
        if mode not in SELECTION_MODES:
            raise FilterError(f"unknown selection mode {mode!r}")
        self._mode = mode
        self.modified()

    @property
    def mode(self) -> str:
        return self._mode

    def _execute(self, grid) -> PointSelection:
        if not isinstance(grid, STRUCTURED_GRID_TYPES):
            raise FilterError(
                f"ContourPreFilter expects a UniformGrid or RectilinearGrid, "
                f"got {type(grid).__name__}"
            )
        if self._array_name is None:
            raise FilterError("ContourPreFilter has no array name configured")
        if not self._values:
            raise FilterError("ContourPreFilter has no contour values configured")
        return prefilter_contour(grid, self._array_name, self._values, self._mode)
