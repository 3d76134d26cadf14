"""Stock dataset filters: contouring, thresholding, slicing, geometry.

:class:`~repro.filters.contour.ContourFilter` is the library's equivalent of
``vtkContourFilter`` restricted to uniform rectilinear grids — the filter the
paper splits into a pre-/post-filter pair.  Its geometry kernels live in
:mod:`repro.filters.marching_squares` (2-D) and
:mod:`repro.filters.marching_tets` (3-D).  Thresholding and slicing are
plain kernels (:func:`~repro.filters.threshold.threshold_point_ids`,
:func:`~repro.filters.slice.slice_grid`); their pre/post splits live in
:mod:`repro.core.filter_splits`.
"""

from repro.filters.geometry import (
    component_sizes,
    connected_components,
    surface_area,
    weld_points,
)
from repro.filters.contour import ContourFilter, contour_grid
from repro.filters.marching_squares import marching_squares
from repro.filters.marching_tets import marching_tetrahedra
from repro.filters.slice import slice_grid
from repro.filters.threshold import threshold_point_ids

__all__ = [
    "ContourFilter",
    "contour_grid",
    "marching_squares",
    "marching_tetrahedra",
    "threshold_point_ids",
    "slice_grid",
    "weld_points",
    "surface_area",
    "connected_components",
    "component_sizes",
]
