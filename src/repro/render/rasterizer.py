"""NumPy z-buffer rasterizer with flat Lambert shading.

Rasterizes a triangle soup into an RGB image: each triangle is projected,
shaded by the angle between its world-space normal and the light, then
scan-converted with barycentric coverage against a shared depth buffer.
There is no per-triangle Python loop: every surviving triangle's clamped
bounding box is expanded into one flat fragment array, coverage and depth
are evaluated element-wise, and the z-buffer is resolved by one stable
sort on ``(pixel, depth)`` (docs/ARCHITECTURE.md, "Render").
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.render.camera import Camera

__all__ = ["rasterize_mesh", "Framebuffer"]

# Fragments (bounding-box pixels) expanded per batch.  Caps the temporaries
# however much of the screen the triangles cover, and at this size they
# stay cache-resident: measured fastest from 10 k to 100 k triangles at
# 160x120 and 640x480.  A batch holds at least one triangle, so a single
# screen-filling one can exceed the budget by its own bounding box.
_FRAGMENT_BUDGET = 1 << 14


class Framebuffer:
    """An RGB color buffer plus a float depth buffer."""

    def __init__(self, width: int, height: int, background=(0.08, 0.09, 0.11)):
        if width < 1 or height < 1:
            raise ReproError(f"invalid framebuffer size {width}x{height}")
        self.width = width
        self.height = height
        self.color = np.empty((height, width, 3), dtype=np.float64)
        self.color[:] = np.asarray(background, dtype=np.float64)
        self.depth = np.full((height, width), np.inf)

    def image(self) -> np.ndarray:
        """The color buffer as float RGB in [0, 1]."""
        return np.clip(self.color, 0.0, 1.0)


def _shade(normals: np.ndarray, base_color: np.ndarray, light_dir: np.ndarray) -> np.ndarray:
    """Two-sided Lambert shading with an ambient floor."""
    lambert = np.abs(normals @ light_dir)
    intensity = 0.25 + 0.75 * lambert
    return intensity[:, None] * base_color[None, :]


def rasterize_mesh(
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
    v0x, v1x, v2x = xy[:, :, 0].T
    v0y, v1y, v2y = xy[:, :, 1].T
    xmin = np.minimum(np.minimum(v0x, v1x), v2x)
    xmax = np.maximum(np.maximum(v0x, v1x), v2x)
    ymin = np.minimum(np.minimum(v0y, v1y), v2y)
    ymax = np.maximum(np.maximum(v0y, v1y), v2y)
    on_screen = (xmax >= 0) & (xmin <= fb.width - 1) & (ymax >= 0) & (ymin <= fb.height - 1)
    idx = np.flatnonzero(in_front & on_screen & valid)
    if idx.size == 0:
        return
    v0x, v1x, v2x, v0y, v1y, v2y = (c[idx] for c in (v0x, v1x, v2x, v0y, v1y, v2y))
    z0, z1, z2 = depth[idx].T

    # Bounding boxes clamped to the screen; the culls above leave none empty.
    x0 = np.maximum(np.floor(xmin[idx]), 0).astype(np.intp)
    x1 = np.minimum(np.ceil(xmax[idx]), fb.width - 1).astype(np.intp)
    y0 = np.maximum(np.floor(ymin[idx]), 0).astype(np.intp)
    y1 = np.minimum(np.ceil(ymax[idx]), fb.height - 1).astype(np.intp)
    bw = x1 - x0 + 1
    count = bw * (y1 - y0 + 1)

    # Barycentric coordinates of pixel (px, py):
    #   l0 = (a0 * (px - v2x) + b0 * (py - v2y)) / d, l1 likewise, l2 the rest.
    a0, b0 = v1y - v2y, v2x - v1x
    a1, b1 = v2y - v0y, v0x - v2x
    d = a0 * (v0x - v2x) + b0 * (v0y - v2y)

    # Degenerate in screen space: splat the nearest pixel at the mean depth.
    # As a fragment that is a 1x1 box with l0 = l1 = 0 and l2 = 1, always
    # inside, whose interpolated depth is whatever sits in z2.
    degenerate = np.abs(d) < 1e-12
    if degenerate.any():
        cx = np.rint(((v0x + v1x) + v2x) / 3)
        cy = np.rint(((v0y + v1y) + v2y) / 3)
        on = (cx >= 0) & (cx < fb.width) & (cy >= 0) & (cy < fb.height)
        x0 = np.where(degenerate & on, cx, x0).astype(np.intp)
        y0 = np.where(degenerate & on, cy, y0).astype(np.intp)
        bw = np.where(degenerate, 1, bw)
        count = np.where(degenerate, on, count)
        z2 = np.where(degenerate, ((z0 + z1) + z2) / 3, z2)
        a0, b0, a1, b1 = (np.where(degenerate, 0.0, c) for c in (a0, b0, a1, b1))
        d = np.where(degenerate, 1.0, d)

    start = np.cumsum(count) - count
    boxes = np.stack((idx, x0, y0, bw, start))
    coef = np.stack((a0, b0, a1, b1, d, v2x, v2y, z0, z1, z2))

    # Index-ordered chunks of about _FRAGMENT_BUDGET fragments each: a later
    # chunk sees the depths an earlier one wrote, as a later triangle would.
    cuts = np.flatnonzero(np.diff(start // _FRAGMENT_BUDGET)) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, idx.size]):
        _resolve_fragments(fb, shades, boxes[:, lo:hi], coef[:, lo:hi], count[lo:hi])


def _resolve_fragments(
    fb: Framebuffer,
    shades: np.ndarray,
    boxes: np.ndarray,
    coef: np.ndarray,
    count: np.ndarray,
) -> None:
    """Expand one chunk of triangles into fragments and z-resolve them.

    ``boxes`` rows are (triangle index, bbox x0, bbox y0, bbox width, first
    fragment number) and ``coef`` rows the barycentric coefficients and
    vertex depths, one column per triangle; ``count`` is each bbox's area.
    """
    tri, x0, y0, bw, start = np.repeat(boxes, count, axis=1)
    if tri.size == 0:
        return
    a0, b0, a1, b1, d, v2x, v2y, z0, z1, z2 = np.repeat(coef, count, axis=1)
    local = np.arange(start[0], start[0] + tri.size) - start
    row = local // bw
    ix = x0 + (local - row * bw)
    iy = y0 + row
    dx = ix - v2x
    dy = iy - v2y
    l0 = (a0 * dx + b0 * dy) / d
    l1 = (a1 * dx + b1 * dy) / d
    l2 = 1.0 - l0 - l1
    # Interpolate depth (linear in screen space: adequate here).
    pz = l0 * z0 + l1 * z1 + l2 * z2
    win = (l0 >= -1e-9) & (l1 >= -1e-9) & (l2 >= -1e-9) & (pz < fb.depth[iy, ix])
    tri, ix, iy, pz = tri[win], ix[win], iy[win], pz[win]
    # Drawn one after another, a pixel keeps the first triangle to reach its
    # minimum depth.  Fragments are in triangle order and lexsort is stable,
    # so that triangle's fragment leads the pixel's run in (pixel, depth) order.
    pixel = iy * fb.width + ix
    order = np.lexsort((pz, pixel))
    pixel = pixel[order]
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = pixel[1:] != pixel[:-1]
    keep = order[lead]
    fb.depth[iy[keep], ix[keep]] = pz[keep]
    fb.color[iy[keep], ix[keep]] = shades[tri[keep]]
