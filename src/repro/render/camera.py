"""Perspective look-at camera."""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError

__all__ = ["Camera"]


class Camera:
    """A right-handed perspective camera.

    Parameters
    ----------
    position:
        Eye location in world coordinates.
    target:
        Point the camera looks at.
    up:
        Approximate up direction (re-orthogonalized internally).
    fov_degrees:
        Vertical field of view.
    near, far:
        Clip distances (points outside are culled by the rasterizer).
    """

    def __init__(
        self,
        position=(0.0, 0.0, 5.0),
        target=(0.0, 0.0, 0.0),
        up=(0.0, 0.0, 1.0),
        fov_degrees: float = 40.0,
        near: float = 0.01,
        far: float = 1000.0,
    ):
        self.position = np.asarray(position, dtype=np.float64)
        self.target = np.asarray(target, dtype=np.float64)
        self.up = np.asarray(up, dtype=np.float64)
        if not 0 < fov_degrees < 180:
            raise ReproError(f"fov must be in (0, 180), got {fov_degrees}")
        if not 0 < near < far:
            raise ReproError(f"need 0 < near < far, got {near}, {far}")
        self.fov_degrees = float(fov_degrees)
        self.near = float(near)
        self.far = float(far)

    # ------------------------------------------------------------------
    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthonormal camera axes (right, true_up, forward)."""
        forward = self.target - self.position
        norm = np.linalg.norm(forward)
        if norm == 0:
            raise ReproError("camera position equals target")
        forward = forward / norm
        right = np.cross(forward, self.up)
        rnorm = np.linalg.norm(right)
        if rnorm < 1e-12:
            raise ReproError("camera up vector is parallel to view direction")
        right = right / rnorm
        true_up = np.cross(right, forward)
        return right, true_up, forward

    def project(self, points: np.ndarray, width: int, height: int):
        """Project world points to pixel coordinates + camera depth.

        Returns
        -------
        xy : ndarray (n, 2)
            Pixel coordinates (x right, y down).
        depth : ndarray (n,)
            Distance along the view axis (for z-buffering / clipping).
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        right, true_up, forward = self.basis()
        # Per column: a (n, 3) - (3,) broadcast runs a 3-long inner loop n times.
        rel = np.empty_like(pts)
        for a in range(3):
            np.subtract(pts[:, a], self.position[a], out=rel[:, a])
        cx = rel @ right
        cy = rel @ true_up
        cz = rel @ forward
        f = 1.0 / np.tan(np.radians(self.fov_degrees) / 2.0)
        safe_z = np.where(cz > 1e-12, cz, 1e-12)
        ndc_x = f * cx / safe_z * (height / width)
        ndc_y = f * cy / safe_z
        px = (ndc_x * 0.5 + 0.5) * (width - 1)
        py = (1.0 - (ndc_y * 0.5 + 0.5)) * (height - 1)
        return np.stack([px, py], axis=1), cz

    @classmethod
    def fit_bounds(cls, bounds, direction=(1.0, -1.2, 0.8), fov_degrees: float = 35.0,
                   margin: float = 1.35) -> "Camera":
        """Place a camera that frames an axis-aligned bounds object."""
        center = np.asarray(bounds.center)
        d = np.asarray(direction, dtype=np.float64)
        d = d / np.linalg.norm(d)
        radius = bounds.diagonal / 2.0
        dist = margin * radius / np.tan(np.radians(fov_degrees) / 2.0)
        return cls(
            position=center + d * dist,
            target=center,
            up=(0.0, 0.0, 1.0),
            fov_degrees=fov_degrees,
            near=dist / 100.0,
            far=dist * 10.0,
        )
