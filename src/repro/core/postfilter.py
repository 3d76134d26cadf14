"""The client-side post-filter: sparse selection in, contour geometry out.

The paper's post-filter "takes this subarray as input and produces the
final contour" (Sec. VI).  Reconstruction here is *exact* under the
default cell-closure selection:

1. scatter the selection back onto a dense field, filling unselected
   points with ``-inf`` (never compared true, never interpolated),
2. compute the *complete-cell* mask — cells whose eight corners were all
   transferred,
3. run the stock contour kernels restricted to complete cells.

Why this equals contouring the full array (DESIGN.md §5, invariant 1):
every cell that emits geometry has mixed corner classification, hence
contains a crossing lattice edge, hence is in the pre-filter's closure —
so it arrives complete, with true values at all corners.  Complete cells
that emit nothing in the full run have identical (true) corner values
here and still emit nothing.  Incomplete cells are skipped, and are
exactly the cells that emit nothing in the full run.  The kernels visit
the same cells with the same values in the same order, so outputs match
bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.interesting import point_mask_to_cell_complete
from repro.errors import FilterError
from repro.filters.contour import _values_unset, contour_grid, normalize_values
from repro.grid.polydata import PolyData
from repro.grid.selection import PointSelection
from repro.pipeline.filter_base import Filter

__all__ = ["postfilter_contour", "ContourPostFilter"]


def postfilter_contour(selection: PointSelection, values, roi=None) -> PolyData:
    """Generate the contour from a pre-filtered selection.

    When the pre-filter ran with a region of interest, pass the same
    ``roi`` here; reconstruction is then bit-exact against
    ``contour_grid(grid, ..., roi=roi)``.
    """
    vals = normalize_values(values)
    grid, mask_flat = selection.to_grid(fill=-np.inf)
    nx, ny, nz = grid.dims
    point_mask = mask_flat.reshape(nz, ny, nx)
    complete = point_mask_to_cell_complete(point_mask)
    if grid.is_2d:
        # contour_grid squeezes 2-D grids; squeeze the mask the same way.
        flat_axis = grid.dims.index(1)
        if flat_axis == 2:      # nz == 1
            cell_mask = complete[0]
        elif flat_axis == 1:    # ny == 1
            cell_mask = complete[:, 0, :]
        else:                   # nx == 1
            cell_mask = complete[:, :, 0]
    else:
        cell_mask = complete
    return contour_grid(grid, selection.array_name, vals, cell_mask=cell_mask,
                        roi=roi)


class ContourPostFilter(Filter):
    """Pipeline form: :class:`PointSelection` in, :class:`PolyData` out."""

    def __init__(self, values=()):
        super().__init__()
        self._values: tuple[float, ...] = ()
        if not _values_unset(values):
            self.set_values(values)

    def set_values(self, values) -> None:
        self._values = normalize_values(values)
        self.modified()

    @property
    def values(self) -> tuple[float, ...]:
        return self._values

    def _execute(self, selection: PointSelection) -> PolyData:
        if not isinstance(selection, PointSelection):
            raise FilterError(
                f"ContourPostFilter expects a PointSelection, got "
                f"{type(selection).__name__}"
            )
        if not self._values:
            raise FilterError("ContourPostFilter has no contour values configured")
        return postfilter_contour(selection, self._values)
