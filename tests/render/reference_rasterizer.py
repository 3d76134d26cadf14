"""Frozen oracle: the per-triangle rasteriser loop as it stood before ISSUE 13.

``repro.render.rasterizer.rasterize_mesh`` resolves all fragments in one
batched pass; this is the sequential loop it replaced, kept verbatim so
the pixel-identity tests can demand ``np.array_equal`` colour and depth
buffers.  Test-only: never import it from ``src``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.render.camera import Camera
from repro.render.rasterizer import Framebuffer

__all__ = ["reference_rasterize_mesh"]


def _shade(normals: np.ndarray, base_color: np.ndarray, light_dir: np.ndarray) -> np.ndarray:
    """Two-sided Lambert shading with an ambient floor."""
    lambert = np.abs(normals @ light_dir)
    intensity = 0.25 + 0.75 * lambert
    return intensity[:, None] * base_color[None, :]


def reference_rasterize_mesh(
    fb: Framebuffer,
    camera: Camera,
    triangles: np.ndarray,
    color=(0.2, 0.7, 0.9),
    light_dir=(0.4, -0.35, 0.85),
    colors: np.ndarray | None = None,
) -> None:
    """Rasterize a world-space triangle soup into ``fb``.

    Parameters
    ----------
    fb:
        Target framebuffer (depth-shared across calls, so multiple meshes
        composite correctly).
    camera:
        Projection camera.
    triangles:
        ``(n, 3, 3)`` world-space triangle array.
    color:
        Base RGB color in [0, 1] (used when ``colors`` is None).
    light_dir:
        World-space directional light (normalized internally).
    colors:
        Optional ``(n, 3)`` per-triangle base colors (scalar coloring).
    """
    tris = np.asarray(triangles, dtype=np.float64)
    if tris.ndim != 3 or tris.shape[1:] != (3, 3):
        raise ReproError(f"triangles must be (n, 3, 3); got {tris.shape}")
    if tris.shape[0] == 0:
        return
    light = np.asarray(light_dir, dtype=np.float64)
    light = light / np.linalg.norm(light)
    base = np.asarray(color, dtype=np.float64)

    # World-space flat normals.
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    normals = np.cross(e1, e2)
    norms = np.linalg.norm(normals, axis=1)
    valid = norms > 1e-20
    normals[valid] = normals[valid] / norms[valid, None]
    if colors is not None:
        colors = np.asarray(colors, dtype=np.float64)
        if colors.shape != (tris.shape[0], 3):
            raise ReproError(
                f"colors must be ({tris.shape[0]}, 3); got {colors.shape}"
            )
        lambert = np.abs(normals @ light)
        shades = (0.25 + 0.75 * lambert)[:, None] * colors
    else:
        shades = _shade(normals, base, light)

    # Project all vertices at once.
    flat = tris.reshape(-1, 3)
    xy, depth = camera.project(flat, fb.width, fb.height)
    xy = xy.reshape(-1, 3, 2)
    depth = depth.reshape(-1, 3)

    # Cull triangles behind the near plane or fully off-screen.
    in_front = (depth > camera.near).all(axis=1) & (depth < camera.far).all(axis=1)
    xs = xy[:, :, 0]
    ys = xy[:, :, 1]
    on_screen = (
        (xs.max(axis=1) >= 0)
        & (xs.min(axis=1) <= fb.width - 1)
        & (ys.max(axis=1) >= 0)
        & (ys.min(axis=1) <= fb.height - 1)
    )
    keep = in_front & on_screen & valid
    idx = np.nonzero(keep)[0]

    width, height = fb.width, fb.height
    colorbuf = fb.color
    depthbuf = fb.depth

    for t in idx:
        v = xy[t]  # (3, 2) pixel coords
        z = depth[t]
        x0 = int(max(np.floor(v[:, 0].min()), 0))
        x1 = int(min(np.ceil(v[:, 0].max()), width - 1))
        y0 = int(max(np.floor(v[:, 1].min()), 0))
        y1 = int(min(np.ceil(v[:, 1].max()), height - 1))
        if x1 < x0 or y1 < y0:
            continue
        # Barycentric coordinates over the bbox.
        px = np.arange(x0, x1 + 1)[None, :] + 0.0
        py = np.arange(y0, y1 + 1)[:, None] + 0.0
        d = (v[1, 1] - v[2, 1]) * (v[0, 0] - v[2, 0]) + (
            v[2, 0] - v[1, 0]
        ) * (v[0, 1] - v[2, 1])
        if abs(d) < 1e-12:
            # Degenerate in screen space: splat the nearest pixel.
            cx = int(round(v[:, 0].mean()))
            cy = int(round(v[:, 1].mean()))
            if 0 <= cx < width and 0 <= cy < height:
                zmid = z.mean()
                if zmid < depthbuf[cy, cx]:
                    depthbuf[cy, cx] = zmid
                    colorbuf[cy, cx] = shades[t]
            continue
        l0 = ((v[1, 1] - v[2, 1]) * (px - v[2, 0]) + (v[2, 0] - v[1, 0]) * (py - v[2, 1])) / d
        l1 = ((v[2, 1] - v[0, 1]) * (px - v[2, 0]) + (v[0, 0] - v[2, 0]) * (py - v[2, 1])) / d
        l2 = 1.0 - l0 - l1
        inside = (l0 >= -1e-9) & (l1 >= -1e-9) & (l2 >= -1e-9)
        if not inside.any():
            continue
        # Interpolate depth (linear in screen space: adequate here).
        pz = l0 * z[0] + l1 * z[1] + l2 * z[2]
        sub_depth = depthbuf[y0 : y1 + 1, x0 : x1 + 1]
        win = inside & (pz < sub_depth)
        if not win.any():
            continue
        sub_depth[win] = pz[win]
        colorbuf[y0 : y1 + 1, x0 : x1 + 1][win] = shades[t]
