"""Pixel identity: the batched rasteriser against the frozen per-triangle loop.

``rasterize_mesh`` resolves every fragment in one sorted pass;
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


@settings(max_examples=250, deadline=None)
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
