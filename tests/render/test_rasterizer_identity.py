"""Pixel identity: the batched rasteriser against the frozen per-triangle loop.

``rasterize_mesh`` resolves every fragment in one batched pass;
``reference_rasterize_mesh`` is the sequential loop it replaced.  The
arithmetic per fragment is the same, so the colour *and* depth buffers
must be ``np.array_equal`` — no tolerance — for any triangle soup,
including the cases where only the draw order decides a pixel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.asteroid import AsteroidImpactDataset, AsteroidParams
from repro.filters import contour_grid
from repro.render import Camera
from repro.render import rasterizer
from repro.render.rasterizer import Framebuffer, rasterize_mesh

from tests.conftest import make_sphere_grid
from tests.render.reference_rasterizer import reference_rasterize_mesh

# Eye on +z looking at the origin: world z maps to depth 5 - z, so the
# near plane (1) is at z = 4 and the far plane (9) at z = -4.
CAMERA = Camera(position=(0, 0, 5), target=(0, 0, 0), up=(0, 1, 0), near=1.0, far=9.0)

KINDS = (
    "generic",
    "sub_pixel",
    "screen_filling",
    "behind_near",
    "straddles_near",
    "beyond_far",
    "off_screen",
    "partly_off_screen",
    "zero_area",
    "screen_degenerate",
    "duplicate",
    "duplicate_reversed",
    "shared_edge",
    "coplanar_overlap",
    "pixel_aligned",
    "grazing_tip",
    "centre_edge",
    "sliver",
)


def _grid(rng, lo, hi, size):
    """Coordinates on a 1/8 lattice, so edges and depths tie exactly."""
    return rng.integers(int(lo * 8), int(hi * 8) + 1, size=size) / 8.0


def _unproject(pixels, depth, width, height):
    """World points that ``CAMERA.project`` sends to ``pixels`` at ``depth``."""
    f = 1.0 / np.tan(np.radians(CAMERA.fov_degrees) / 2.0)
    ndc_x = pixels[:, 0] / max(width - 1, 1) * 2.0 - 1.0
    ndc_y = 1.0 - pixels[:, 1] / max(height - 1, 1) * 2.0
    right, true_up, forward = CAMERA.basis()
    rel = (
        np.outer(ndc_x * depth / f * (width / height), right)
        + np.outer(ndc_y * depth / f, true_up)
        + np.outer(depth, forward)
    )
    return CAMERA.position + rel


def _wedge(rng, width, height):
    """Screen vertices of a wedge whose tip stops 1e-5 to 1e-3 px short of a
    pixel centre and whose far edge is 1e4 to 1e6 px away.  The -1e-9
    slack, scaled by that reach, decides whether the centre is covered: a
    box margin fixed at 1e-6 px drops it when it is."""
    centre = rng.integers(0, (width, height)).astype(float)
    axis = np.array(((1, 0), (-1, 0), (0, 1), (0, -1))[rng.integers(4)], dtype=float)
    reach = 10.0 ** rng.uniform(4, 6)
    half = reach * 10.0 ** rng.uniform(-3, 0)
    tip = centre + 10.0 ** rng.uniform(-5, -3) * axis
    far = tip + reach * axis
    return np.array([tip, far + half * axis[::-1], far - half * axis[::-1]])


def _sliver(rng, width, height):
    """Screen vertices of a nearly collinear triangle: its ``|d|`` runs from
    below the 1e-12 degenerate cut to 1e-4, ill-conditioned throughout."""
    a, b = rng.uniform(-4, (width + 4, height + 4), size=(2, 2))
    ab = b - a
    normal = np.array([-ab[1], ab[0]]) / max(np.hypot(*ab), 1e-300)
    c = a + rng.uniform(-0.5, 1.5) * ab + 10.0 ** rng.uniform(-15, -4) * normal
    return np.array([a, b, c])


def _soup(kinds, seed, width, height):
    """One or two triangles per kind, in the order drawn."""
    rng = np.random.default_rng(seed)
    tris = []
    for kind in kinds:
        xy = _grid(rng, -1.5, 1.5, (3, 2))
        z = _grid(rng, -1.0, 1.0, (3, 1))
        tri = np.hstack([xy, z])
        if kind == "sub_pixel":
            tri = tri[0] + (tri - tri[0]) * 10.0 ** -rng.integers(2, 9)
        elif kind == "screen_filling":
            tri = np.array([[-40, -40, z[0, 0]], [40, -40, z[1, 0]], [0, 40, z[2, 0]]])
        elif kind == "behind_near":
            tri[:, 2] = 4.5
        elif kind == "straddles_near":
            tri[0, 2] = 4.5
        elif kind == "beyond_far":
            tri[:, 2] = -6.0
        elif kind == "off_screen":
            tri[:, 0] += 20.0
        elif kind == "partly_off_screen":
            tri[0, :2] *= 6.0
        elif kind == "zero_area":
            tri[2] = tri[0] + 0.5 * (tri[1] - tri[0])
        elif kind == "screen_degenerate":
            # Two vertices on one ray from the eye project to one point:
            # world area is non-zero, screen area is not.
            tri[1] = CAMERA.position + 0.5 * (tri[0] - CAMERA.position)
        elif kind in ("duplicate", "duplicate_reversed") and tris:
            tri = tris[rng.integers(len(tris))]
            if kind == "duplicate_reversed":
                tri = tri[::-1]
        elif kind == "shared_edge":
            tris.append(tri)
            tri = np.vstack([tri[1], tri[0], np.hstack([_grid(rng, -1.5, 1.5, 2), z[2]])])
        elif kind == "coplanar_overlap":
            tri[:, 2] = z[0, 0]
            tris.append(tri)
            tri = np.hstack([_grid(rng, -1.5, 1.5, (3, 2)), tri[:, 2:]])
        elif kind == "pixel_aligned":
            # A quad on the half-pixel lattice split along its diagonal: the
            # edges run through pixel centres, where a barycentric weight
            # is zero up to rounding and the -1e-9 slack decides coverage.
            corner = rng.integers(-4, 2 * max(width, height) + 4, size=2) / 2.0
            span = rng.integers(1, 24, size=2) / 2.0
            quad = corner + span * np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
            quad = _unproject(quad, 5.0 - _grid(rng, -1.0, 1.0, 4), width, height)
            tris.append(quad[[0, 1, 2]])
            tri = quad[[0, 2, 3]]
        elif kind == "grazing_tip":
            tri = _unproject(_wedge(rng, width, height), np.full(3, 5.0 - z[0, 0]), width, height)
        elif kind == "centre_edge":
            # Vertices on pixel centres, so the edges run through centres
            # and the vertex box's bounds are whole pixels.
            corners = rng.integers(-2, (width + 2, height + 2), size=(3, 2))
            tri = _unproject(corners.astype(float), 5.0 - z[:, 0], width, height)
        elif kind == "sliver":
            tri = _unproject(_sliver(rng, width, height), 5.0 - z[:, 0], width, height)
        tris.append(np.asarray(tri, dtype=np.float64))
    return np.stack(tris)


def _assert_identical(meshes, width, height, camera):
    """Composite ``meshes`` (triangles, colors-or-None) through both rasterisers."""
    new = Framebuffer(width, height)
    ref = Framebuffer(width, height)
    for i, (tris, colors) in enumerate(meshes):
        base = (0.2 + 0.3 * i, 0.7, 0.9 - 0.3 * i)
        rasterize_mesh(new, camera, tris, color=base, colors=colors)
        reference_rasterize_mesh(ref, camera, tris, color=base, colors=colors)
    assert np.array_equal(new.depth, ref.depth)
    assert np.array_equal(new.color, ref.color)
    return ref


# 250 examples in tier-1; ``--hypothesis-profile=raster-ci`` raises it.
@settings(max_examples=max(250, settings.default.max_examples), deadline=None)
@given(
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from([(48, 36), (33, 21), (7, 5), (1, 1)]),
    split=st.integers(0, 12),
    per_triangle_colors=st.booleans(),
    budget=st.sampled_from([1, 5, 64, 1 << 14]),
)
def test_random_soups_match_reference(kinds, seed, size, split, per_triangle_colors, budget):
    tris = _soup(kinds, seed, *size)
    colors = None
    if per_triangle_colors:
        # Distinct per triangle, so which of two tied triangles won shows.
        colors = np.random.default_rng(seed).random((len(tris), 3))
    meshes = [
        (tris[part], None if colors is None else colors[part])
        for part in (slice(None, split), slice(split, None))
    ]
    with pytest.MonkeyPatch.context() as patch:  # not the fixture: one per example
        patch.setattr(rasterizer, "_FRAGMENT_BUDGET", budget)
        _assert_identical(meshes, *size, CAMERA)


def _reference_coverage(v, width, height):
    """The pixels the reference loop covers of screen triangle ``v``, its
    ``(3, 2)`` vertices: the clamped ``floor .. ceil`` box and the
    barycentric test, spelled as it spells them.  Also returns the box and
    ``d``; None for a degenerate triangle (the 1x1 splat has its own box)."""
    x0 = int(max(np.floor(v[:, 0].min()), 0))
    x1 = int(min(np.ceil(v[:, 0].max()), width - 1))
    y0 = int(max(np.floor(v[:, 1].min()), 0))
    y1 = int(min(np.ceil(v[:, 1].max()), height - 1))
    px = np.arange(x0, x1 + 1)[None, :] + 0.0
    py = np.arange(y0, y1 + 1)[:, None] + 0.0
    d = (v[1, 1] - v[2, 1]) * (v[0, 0] - v[2, 0]) + (v[2, 0] - v[1, 0]) * (v[0, 1] - v[2, 1])
    if abs(d) < 1e-12:
        return None
    l0 = ((v[1, 1] - v[2, 1]) * (px - v[2, 0]) + (v[2, 0] - v[1, 0]) * (py - v[2, 1])) / d
    l1 = ((v[2, 1] - v[0, 1]) * (px - v[2, 0]) + (v[0, 0] - v[2, 0]) * (py - v[2, 1])) / d
    l2 = 1.0 - l0 - l1
    iy, ix = np.nonzero((l0 >= -1e-9) & (l1 >= -1e-9) & (l2 >= -1e-9))
    return ix + x0, iy + y0, (x0, x1, y0, y1), d


def _box(v, d, width, height):
    """``rasterizer._pixel_boxes`` for one screen triangle."""
    (v0x, v0y), (v1x, v1y), (v2x, v2y) = v
    xs, ys = v.T
    cols = (xs.min(), xs.max(), ys.min(), ys.max(),
            v1y - v2y, v2x - v1x, v2y - v0y, v0x - v2x, d)
    box = rasterizer._pixel_boxes(*(np.array([c]) for c in cols), width, height)
    return tuple(int(c[0]) for c in box)


@settings(max_examples=max(250, settings.default.max_examples), deadline=None)
@given(
    kind=st.sampled_from(["generic", "grazing_tip", "centre_edge", "sliver", "huge"]),
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from([(48, 36), (33, 21), (7, 5), (1, 1)]),
)
def test_every_covered_pixel_is_inside_the_box(kind, seed, size):
    """Direct: each pixel of the old ``floor .. ceil`` box that passes the
    coverage test lies in the shrunk box, which lies in the old box."""
    width, height = size
    rng = np.random.default_rng(seed)
    if kind == "grazing_tip":
        v = _wedge(rng, width, height)
    elif kind == "centre_edge":
        v = rng.integers(-2, (width + 2, height + 2), size=(3, 2)).astype(float)
    elif kind == "sliver":
        v = _sliver(rng, width, height)
    elif kind == "huge":
        v = rng.uniform(-1e6, 1e6, size=(3, 2))
    else:
        v = rng.uniform(-4, (width + 4, height + 4), size=(3, 2))
    xs, ys = v.T
    if xs.max() < 0 or xs.min() > width - 1 or ys.max() < 0 or ys.min() > height - 1:
        return  # culled before any box is made
    covered = _reference_coverage(v, width, height)
    if covered is None:
        return
    ix, iy, (ox0, ox1, oy0, oy1), d = covered
    x0, x1, y0, y1 = _box(v, d, width, height)
    assert ((x0 <= ix) & (ix <= x1) & (y0 <= iy) & (iy <= y1)).all()
    if x0 <= x1 and y0 <= y1:
        assert ox0 <= x0 and x1 <= ox1 and oy0 <= y0 and y1 <= oy1


def test_box_holds_only_the_centres_a_triangle_can_cover():
    """Vertices half-way between centres: the floor .. ceil box is 12 px
    wide, the centres a right triangle can cover span 10."""
    v = np.array([[0.5, 0.5], [10.5, 0.5], [0.5, 10.5]])
    ix, iy, old, d = _reference_coverage(v, 48, 36)
    assert old == (0, 11, 0, 11)
    assert _box(v, d, 48, 36) == (1, 10, 1, 10)
    assert (ix.min(), ix.max(), iy.min(), iy.max()) == (1, 10, 1, 10)
    # No centre at all: an empty box.
    v = np.array([[3.1, 4.1], [3.9, 4.1], [3.1, 4.9]])
    x0, x1, y0, y1 = _box(v, _reference_coverage(v, 48, 36)[3], 48, 36)
    assert x1 < x0 or y1 < y0


def test_equal_depth_duplicates_keep_the_first_drawn():
    """The tie rule, pinned without the oracle: first triangle to reach a depth."""
    tri = np.array([[[-1, -1, 0], [1, -1, 0], [0, 1, 0]]], dtype=np.float64)
    both = np.concatenate([tri, tri])
    red_green = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    for colors, winner in ((red_green, 0), (red_green[::-1], 1)):
        fb = Framebuffer(40, 40, background=(0, 0, 0))
        rasterize_mesh(fb, CAMERA, both, colors=colors)
        covered = np.isfinite(fb.depth)
        assert covered.sum() > 50
        assert (fb.color[covered][:, winner] > 0).all()
        assert (fb.color[covered][:, 1 - winner] == 0).all()


def _sphere_mesh():
    grid = make_sphere_grid(20)
    pd = contour_grid(grid, "r", [4.0, 7.5])
    return pd.points[pd.triangles()], Camera.fit_bounds(grid.bounds)


def _asteroid_mesh():
    dataset = AsteroidImpactDataset(AsteroidParams(dims=(24, 24, 24)))
    grid = dataset.generate_arrays(dataset.params.timesteps[-1], ["v02"])
    pd = contour_grid(grid, "v02", [0.1, 0.5])
    return pd.points[pd.triangles()], Camera.fit_bounds(grid.bounds)


@pytest.fixture(scope="module", params=[_sphere_mesh, _asteroid_mesh], ids=["sphere", "asteroid"])
def contour_mesh(request):
    tris, camera = request.param()
    assert len(tris) > 1000
    return tris, camera


@pytest.mark.parametrize("size", [(160, 120), (97, 61)], ids=["160x120", "97x61"])
class TestContourMeshes:
    def test_single_mesh(self, contour_mesh, size):
        tris, camera = contour_mesh
        ref = _assert_identical([(tris, None)], *size, camera)
        assert np.isfinite(ref.depth).sum() > 200  # the surface is on screen

    def test_per_triangle_colors(self, contour_mesh, size):
        tris, camera = contour_mesh
        colors = np.random.default_rng(3).random((len(tris), 3))
        _assert_identical([(tris, colors)], *size, camera)

    def test_two_meshes_composited(self, contour_mesh, size):
        tris, camera = contour_mesh
        # The same surface nudged towards the eye, drawn first and second.
        nudge = 0.3 * (camera.position - camera.target) / np.linalg.norm(
            camera.position - camera.target
        )
        for meshes in ([(tris, None), (tris + nudge, None)], [(tris + nudge, None), (tris, None)]):
            _assert_identical(meshes, *size, camera)

    @pytest.mark.parametrize("budget", [1, 37, 4096])
    def test_tiny_fragment_budget(self, contour_mesh, size, budget, monkeypatch):
        tris, camera = contour_mesh
        monkeypatch.setattr(rasterizer, "_FRAGMENT_BUDGET", budget)
        _assert_identical([(tris[:1500], None)], *size, camera)


def test_screen_filling_triangles_stay_within_the_budget(monkeypatch):
    """Each 640x480 bounding box is a batch of its own, not one 5x-screen array."""
    sizes = []
    resolve = rasterizer._resolve_fragments

    def spy(fb, shades, boxes, coef, count):
        sizes.append(int(count.sum()))
        return resolve(fb, shades, boxes, coef, count)

    monkeypatch.setattr(rasterizer, "_resolve_fragments", spy)
    tris = np.array(
        [[[-40, -40, z], [40, -40, z], [0, 40, z]] for z in (-1.0, 0.0, 1.0, 0.5, -0.5)]
    )
    fb = Framebuffer(640, 480)
    rasterize_mesh(fb, CAMERA, tris)
    assert sizes == [640 * 480] * 5
    assert np.isfinite(fb.depth).all()
    assert np.allclose(fb.depth, 4.0)  # the z = 1 plane is nearest everywhere
