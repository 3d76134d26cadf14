"""Axis-aligned bounding boxes in world coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GridError

__all__ = ["Bounds"]


@dataclass(frozen=True)
class Bounds:
    """An axis-aligned box ``[xmin, xmax] x [ymin, ymax] x [zmin, zmax]``."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    zmin: float
    zmax: float

    def __post_init__(self):
        if self.xmin > self.xmax or self.ymin > self.ymax or self.zmin > self.zmax:
            raise GridError(f"inverted bounds: {self}")

    @classmethod
    def from_points(cls, points: np.ndarray) -> "Bounds":
        """Bounds of an ``(n, 3)`` point array."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if pts.shape[0] == 0:
            raise GridError("cannot compute bounds of zero points")
        # Per column: an axis-0 reduce over (n, 3) is ~7x slower.
        x, y, z = pts.T
        return cls(x.min(), x.max(), y.min(), y.max(), z.min(), z.max())

    @property
    def center(self) -> tuple[float, float, float]:
        return (
            0.5 * (self.xmin + self.xmax),
            0.5 * (self.ymin + self.ymax),
            0.5 * (self.zmin + self.zmax),
        )

    @property
    def lengths(self) -> tuple[float, float, float]:
        return (self.xmax - self.xmin, self.ymax - self.ymin, self.zmax - self.zmin)

    @property
    def diagonal(self) -> float:
        dx, dy, dz = self.lengths
        return float(np.sqrt(dx * dx + dy * dy + dz * dz))

    def contains(self, point) -> bool:
        x, y, z = point
        return (
            self.xmin <= x <= self.xmax
            and self.ymin <= y <= self.ymax
            and self.zmin <= z <= self.zmax
        )

    def intersects(self, other: "Bounds") -> bool:
        """True when the closed boxes overlap (touching faces count).

        Closed-interval semantics match the pre-filter's ROI test
        (:func:`~repro.core.interesting.roi_cell_mask` keeps points with
        coordinates in ``[lo, hi]``), so a block whose bounds merely touch
        an ROI can still own ROI-complete cells and must not be pruned.
        """
        return (
            self.xmin <= other.xmax and other.xmin <= self.xmax
            and self.ymin <= other.ymax and other.ymin <= self.ymax
            and self.zmin <= other.zmax and other.zmin <= self.zmax
        )

    def intersection(self, other: "Bounds") -> "Bounds | None":
        """The overlapping box, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Bounds(
            max(self.xmin, other.xmin),
            min(self.xmax, other.xmax),
            max(self.ymin, other.ymin),
            min(self.ymax, other.ymax),
            max(self.zmin, other.zmin),
            min(self.zmax, other.zmax),
        )

    def union(self, other: "Bounds") -> "Bounds":
        return Bounds(
            min(self.xmin, other.xmin),
            max(self.xmax, other.xmax),
            min(self.ymin, other.ymin),
            max(self.ymax, other.ymax),
            min(self.zmin, other.zmin),
            max(self.zmax, other.zmax),
        )

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.xmin, self.xmax, self.ymin, self.ymax, self.zmin, self.zmax)
