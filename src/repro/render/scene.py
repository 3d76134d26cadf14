"""Scene assembly: the end of every render path.

:class:`Scene` accumulates meshes (e.g. one per contour filter output,
like the paper's cyan water + yellow asteroid in Fig. 4) and renders them
through a shared z-buffer.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.grid.bounds import Bounds
from repro.grid.polydata import PolyData
from repro.render.camera import Camera
from repro.render.rasterizer import Framebuffer, rasterize_mesh

__all__ = ["Scene"]


class Scene:
    """A list of (PolyData, color-or-scalars) actors with one camera."""

    def __init__(self, background=(0.08, 0.09, 0.11)):
        self.background = background
        self._actors: list[tuple[PolyData, tuple, str | None, str, tuple]] = []

    def add_mesh(
        self,
        polydata: PolyData,
        color=(0.2, 0.7, 0.9),
        scalars: str | None = None,
        cmap: str = "viridis",
        value_range: tuple | None = None,
    ) -> None:
        """Add an actor, flat-colored or colored by a point-data array.

        ``scalars`` names a point array of ``polydata`` (e.g.
        ``"contour_value"``) mapped per-triangle through ``cmap`` — the
        ParaView color-by-array behaviour.
        """
        if not isinstance(polydata, PolyData):
            raise ReproError(f"expected PolyData, got {type(polydata).__name__}")
        if scalars is not None and scalars not in polydata.point_data:
            raise ReproError(
                f"no point array {scalars!r} on this PolyData; "
                f"available: {polydata.point_data.names()}"
            )
        self._actors.append(
            (polydata, tuple(color), scalars, cmap,
             tuple(value_range) if value_range else None)
        )

    def clear(self) -> None:
        self._actors.clear()

    @property
    def num_actors(self) -> int:
        return len(self._actors)

    def bounds(self) -> Bounds:
        """Union bounds of all actor geometry."""
        bounds = None
        for pd, *_ in self._actors:
            if pd.num_points == 0:
                continue
            b = pd.bounds
            bounds = b if bounds is None else bounds.union(b)
        if bounds is None:
            raise ReproError("scene has no geometry to bound")
        return bounds

    def render(
        self,
        width: int = 640,
        height: int = 480,
        camera: Camera | None = None,
    ) -> np.ndarray:
        """Render all actors; returns a float RGB image in [0, 1]."""
        if camera is None:
            camera = Camera.fit_bounds(self.bounds())
        fb = Framebuffer(width, height, background=self.background)
        for pd, color, scalars, cmap, value_range in self._actors:
            tris = pd.triangles() if pd.polys.num_cells else None
            if tris is not None and len(tris):
                world = np.take(pd.points, tris, axis=0)  # 3x faster than pd.points[tris]
                tri_colors = None
                if scalars is not None:
                    from repro.render.colormaps import map_scalars

                    point_vals = pd.point_data.get(scalars).values
                    per_tri = point_vals[tris].mean(axis=1)
                    vmin, vmax = value_range if value_range else (None, None)
                    tri_colors = map_scalars(per_tri, cmap, vmin, vmax)
                rasterize_mesh(fb, camera, world, color=color, colors=tri_colors)
            # Line geometry (2-D contours): draw as short segments of pixels.
            if pd.lines.num_cells:
                self._draw_lines(fb, camera, pd, color)
        return fb.image()

    @staticmethod
    def _draw_lines(fb: Framebuffer, camera: Camera, pd: PolyData, color) -> None:
        segs = pd.segments()
        if not len(segs):
            return
        pts = pd.points
        xy, depth = camera.project(pts, fb.width, fb.height)
        col = np.asarray(color, dtype=np.float64)
        for a, b in segs:
            if depth[a] <= camera.near or depth[b] <= camera.near:
                continue
            n = int(max(abs(xy[b, 0] - xy[a, 0]), abs(xy[b, 1] - xy[a, 1]))) + 1
            ts = np.linspace(0.0, 1.0, n)
            px = np.round(xy[a, 0] + ts * (xy[b, 0] - xy[a, 0])).astype(int)
            py = np.round(xy[a, 1] + ts * (xy[b, 1] - xy[a, 1])).astype(int)
            ok = (px >= 0) & (px < fb.width) & (py >= 0) & (py < fb.height)
            fb.color[py[ok], px[ok]] = col
            fb.depth[py[ok], px[ok]] = 0.0
