"""NumPy z-buffer rasterizer with flat Lambert shading.

Rasterizes a triangle soup into an RGB image: each triangle is projected,
shaded by the angle between its world-space normal and the light, then
scan-converted with barycentric coverage against a shared depth buffer.
There is no per-triangle Python loop.  Each surviving triangle's box is
shrunk to the pixel centres it can provably cover (:func:`_pixel_boxes`),
every box is expanded into one flat fragment array, coverage and depth are
evaluated element-wise, and the z-buffer is resolved by two
``np.minimum.at`` passes: each pixel's minimum depth, then the first
fragment to reach it (docs/ARCHITECTURE.md, "Render").
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.render.camera import Camera

__all__ = ["rasterize_mesh", "Framebuffer"]

# Fragments (box pixels) expanded per batch.  Caps the temporaries however
# much of the screen the triangles cover, and at this size they stay
# cache-resident: measured fastest from 2 k to 180 k triangles at 160x120
# and 640x480.  A batch holds at least one triangle, so a single
# screen-filling one can exceed the budget by its own box.
_FRAGMENT_BUDGET = 1 << 14

#: A barycentric weight counts as inside down to ``-_INSIDE_SLACK``.
_INSIDE_SLACK = 1e-9

#: Unit roundoff of float64.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


class Framebuffer:
    """An RGB color buffer plus a float depth buffer (both C-contiguous:
    the rasterizer writes them through flat views)."""

    def __init__(self, width: int, height: int, background=(0.08, 0.09, 0.11)):
        if width < 1 or height < 1:
            raise ReproError(f"invalid framebuffer size {width}x{height}")
        self.width = width
        self.height = height
        self.color = np.empty((height, width, 3), dtype=np.float64)
        # Per channel: assigning a (3,) broadcast loops 3 long per pixel.
        for c, level in enumerate(np.asarray(background, dtype=np.float64)):
            self.color[..., c] = level
        self.depth = np.full((height, width), np.inf)

    def image(self) -> np.ndarray:
        """The color buffer as float RGB in [0, 1]."""
        return np.clip(self.color, 0.0, 1.0)


def _shade(lambert: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Two-sided Lambert shading with an ambient floor: ``(n, 3)`` shades
    for base ``colors``, one ``(3,)`` or one row per triangle."""
    intensity = 0.25 + 0.75 * np.abs(lambert)
    shades = np.empty((intensity.size, 3))
    for c in range(3):  # per column: (n, 1) * (3,) loops 3 long, n times
        np.multiply(intensity, colors[..., c], out=shades[:, c])
    return shades


def _flat_normals(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit world-space normals and the mask of triangles that have one.

    ``np.cross`` and ``np.linalg.norm`` spelled per column, so the bits are
    theirs; a zero-area triangle keeps its (unnormalised) cross product.
    """
    e1x, e1y, e1z = (tris[:, 1, a] - tris[:, 0, a] for a in range(3))
    e2x, e2y, e2z = (tris[:, 2, a] - tris[:, 0, a] for a in range(3))
    normals = np.empty((len(tris), 3))
    nx, ny, nz = normals.T
    np.subtract(e1y * e2z, e1z * e2y, out=nx)
    np.subtract(e1z * e2x, e1x * e2z, out=ny)
    np.subtract(e1x * e2y, e1y * e2x, out=nz)
    norms = np.sqrt((nx * nx + ny * ny) + nz * nz)
    valid = norms > 1e-20
    norms = np.where(valid, norms, 1.0)
    for column in (nx, ny, nz):
        column /= norms
    return normals, valid


def _pixel_boxes(xmin, xmax, ymin, ymax, a0, b0, a1, b1, d, width, height):
    """Each triangle's candidate pixels, as inclusive ``(x0, x1, y0, y1)``.

    The ``floor .. ceil`` box of the vertices, clamped to the screen, then
    shrunk to the pixel centres within a margin of ``[xmin, xmax] x [ymin,
    ymax]`` that the coverage test provably rejects beyond.  The margin,
    for the pixels of the clamped box:

    * With exact weights ``L0 + L1 + L2 = 1``, ``px - xmin = sum Li * (vix
      - xmin)``.  At most two weights are negative, so if each is at least
      ``-s`` then ``px >= xmin - 2 * s * (xmax - xmin)``.
    * The computed weights differ from the exact ones by at most
      ``err = 64u (1 + r)(1 + kappa)``: ``r`` bounds ``|l0| + |l1|`` over
      the box, ``kappa`` is the condition number of ``d`` (an error
      analysis of the expressions in :func:`_resolve_fragments` gives
      ``14u``).  A covered pixel has every exact weight at least
      ``-(slack + err)``.
    * The margin is twice that distance, plus the rounding of ``xmin -
      margin`` itself.

    Where ``u * kappa`` is too large for the bound to hold (as for ``|d|``
    just above the degenerate cut), or anything is not finite, the margin
    is ``inf`` or NaN and ``fmax``/``fmin`` keep the clamped box.  A fixed
    margin is not enough: the slack widens a triangle by up to ``2e-9``
    times its extent, past ``1e-6`` px once it is 500 px across.  A box
    can come out empty (``x1 < x0``): the triangle covers no centre.
    """
    u = _UNIT_ROUNDOFF
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = xmax - xmin
        h = ymax - ymin
        ad = np.abs(d)
        # d = a0 * b1 - b0 * a1 exactly: v0x - v2x is b1, v0y - v2y is -a1.
        kappa = (np.abs(a0 * b1) + np.abs(b0 * a1)) / ad
        r = ((np.abs(a0) + np.abs(a1)) * (w + 1) + (np.abs(b0) + np.abs(b1)) * (h + 1)) / ad
        spread = 4 * (_INSIDE_SLACK + 64 * u * (1 + r) * (1 + kappa))
        spread = np.where(kappa < 1 / (16 * u), spread, np.inf)
        mx = spread * w + 2 * u * (np.abs(xmin) + np.abs(xmax) + 1)
        my = spread * h + 2 * u * (np.abs(ymin) + np.abs(ymax) + 1)
        x0 = np.fmax(np.maximum(np.floor(xmin), 0), np.ceil(xmin - mx))
        x1 = np.fmin(np.minimum(np.ceil(xmax), width - 1), np.floor(xmax + mx))
        y0 = np.fmax(np.maximum(np.floor(ymin), 0), np.ceil(ymin - my))
        y1 = np.fmin(np.minimum(np.ceil(ymax), height - 1), np.floor(ymax + my))
    return tuple(c.astype(np.intp) for c in (x0, x1, y0, y1))


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
    if colors is None:
        colors = np.asarray(color, dtype=np.float64)
    else:
        colors = np.asarray(colors, dtype=np.float64)
        if colors.shape != (tris.shape[0], 3):
            raise ReproError(
                f"colors must be ({tris.shape[0]}, 3); got {colors.shape}"
            )
    normals, valid = _flat_normals(tris)
    shades = _shade(normals @ light, colors)

    # Project all vertices at once.
    xy, depth = camera.project(tris.reshape(-1, 3), fb.width, fb.height)
    v0x, v1x, v2x = xy[:, 0].reshape(-1, 3).T
    v0y, v1y, v2y = xy[:, 1].reshape(-1, 3).T
    z0, z1, z2 = depth.reshape(-1, 3).T

    # Cull triangles behind the near plane or fully off-screen.
    near, far = camera.near, camera.far
    in_front = ((z0 > near) & (z1 > near) & (z2 > near)
                & (z0 < far) & (z1 < far) & (z2 < far))
    xmin = np.minimum(np.minimum(v0x, v1x), v2x)
    xmax = np.maximum(np.maximum(v0x, v1x), v2x)
    ymin = np.minimum(np.minimum(v0y, v1y), v2y)
    ymax = np.maximum(np.maximum(v0y, v1y), v2y)
    on_screen = (xmax >= 0) & (xmin <= fb.width - 1) & (ymax >= 0) & (ymin <= fb.height - 1)
    idx = np.flatnonzero(in_front & on_screen & valid)
    if idx.size == 0:
        return
    v0x, v1x, v2x, v0y, v1y, v2y, z0, z1, z2, xmin, xmax, ymin, ymax = (
        c[idx] for c in (v0x, v1x, v2x, v0y, v1y, v2y, z0, z1, z2, xmin, xmax, ymin, ymax))

    # Barycentric coordinates of pixel (px, py):
    #   l0 = (a0 * (px - v2x) + b0 * (py - v2y)) / d, l1 likewise, l2 the rest.
    a0, b0 = v1y - v2y, v2x - v1x
    a1, b1 = v2y - v0y, v0x - v2x
    d = a0 * (v0x - v2x) + b0 * (v0y - v2y)

    x0, x1, y0, y1 = _pixel_boxes(
        xmin, xmax, ymin, ymax, a0, b0, a1, b1, d, fb.width, fb.height)
    bw = np.maximum(x1 - x0 + 1, 0)
    count = bw * np.maximum(y1 - y0 + 1, 0)

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

    ``boxes`` rows are (triangle index, box x0, box y0, box width, first
    fragment number) and ``coef`` rows the barycentric coefficients and
    vertex depths, one column per triangle; ``count`` is each box's area.
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
    depth = fb.depth.reshape(-1)
    pixel = iy * fb.width + ix
    slack = -_INSIDE_SLACK
    win = (l0 >= slack) & (l1 >= slack) & (l2 >= slack) & (pz < depth[pixel])
    tri, pixel, pz = tri[win], pixel[win], pz[win]
    # Drawn one after another, a pixel keeps the first triangle to reach its
    # minimum depth.  Every survivor beat the buffer, so the first pass
    # leaves each pixel's minimum there; fragments are in triangle order, so
    # the second finds the lowest-numbered fragment at that minimum.
    np.minimum.at(depth, pixel, pz)
    tied = np.flatnonzero(pz == depth[pixel])
    at = pixel[tied]
    first = np.empty(depth.size, dtype=np.intp)
    first[at] = pz.size
    np.minimum.at(first, at, tied)
    keep = tied[first[at] == tied]
    # The kept fragment's own depth, not the ufunc's: -0.0 and 0.0 tie.
    depth[pixel[keep]] = pz[keep]
    fb.color.reshape(-1, 3)[pixel[keep]] = shades[tri[keep]]
