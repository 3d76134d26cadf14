"""Threshold kernel: the points whose scalar value lies in a range.

A second selective filter alongside contouring.  Its storage-side half is
the ``threshold`` split filter (:mod:`repro.core.filter_splits`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FilterError

__all__ = ["threshold_point_ids"]


def threshold_point_ids(
    grid, array_name: str, lower: float, upper: float
) -> np.ndarray:
    """Flat ids of points whose scalar value is in ``[lower, upper]``."""
    if lower > upper:
        raise FilterError(f"lower ({lower}) > upper ({upper})")
    arr = grid.point_data.get(array_name)
    if arr.components != 1:
        raise FilterError(f"array {array_name!r} is not a scalar field")
    mask = (arr.values >= lower) & (arr.values <= upper)
    return np.nonzero(mask)[0].astype(np.int64)
