"""Unit tests for the camera, rasterizer, and scene."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.filters import contour_grid
from repro.grid import Bounds, CellArray, PolyData
from repro.render import Camera, Scene
from repro.render.rasterizer import Framebuffer, rasterize_mesh

from tests.conftest import make_sphere_grid


class TestCamera:
    def test_center_projects_to_image_center(self):
        cam = Camera(position=(0, 0, 10), target=(0, 0, 0), up=(0, 1, 0))
        xy, depth = cam.project(np.array([[0.0, 0.0, 0.0]]), 200, 100)
        assert xy[0, 0] == pytest.approx(99.5)
        assert xy[0, 1] == pytest.approx(49.5)
        assert depth[0] == pytest.approx(10.0)

    def test_depth_along_view_axis(self):
        cam = Camera(position=(5, 0, 0), target=(0, 0, 0), up=(0, 0, 1))
        _, depth = cam.project(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), 10, 10)
        assert depth[0] == pytest.approx(4.0)
        assert depth[1] == pytest.approx(6.0)

    def test_invalid_configs(self):
        with pytest.raises(ReproError):
            Camera(position=(0, 0, 0), target=(0, 0, 0)).basis()
        with pytest.raises(ReproError):
            Camera(up=(0, 0, 1), position=(0, 0, 5), target=(0, 0, 0)).basis()
        with pytest.raises(ReproError):
            Camera(fov_degrees=0)
        with pytest.raises(ReproError):
            Camera(near=1.0, far=0.5)

    def test_fit_bounds_sees_everything(self):
        bounds = Bounds(0, 1, 0, 1, 0, 1)
        cam = Camera.fit_bounds(bounds)
        corners = np.array(
            [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float
        )
        xy, depth = cam.project(corners, 100, 100)
        assert (depth > cam.near).all()
        assert (xy >= 0).all() and (xy <= 99).all()


class TestRasterizer:
    def test_triangle_covers_pixels(self):
        fb = Framebuffer(50, 50, background=(0, 0, 0))
        cam = Camera(position=(0, 0, 5), target=(0, 0, 0), up=(0, 1, 0))
        tri = np.array([[[-1, -1, 0], [1, -1, 0], [0, 1, 0]]], dtype=float)
        rasterize_mesh(fb, cam, tri, color=(1, 0, 0))
        img = fb.image()
        assert img[:, :, 0].max() > 0.2
        assert img[25, 25, 0] > 0.2  # center covered

    def test_depth_occlusion(self):
        fb = Framebuffer(40, 40, background=(0, 0, 0))
        cam = Camera(position=(0, 0, 10), target=(0, 0, 0), up=(0, 1, 0))
        far_tri = np.array([[[-2, -2, -2], [2, -2, -2], [0, 2, -2]]], dtype=float)
        near_tri = np.array([[[-1, -1, 2], [1, -1, 2], [0, 1, 2]]], dtype=float)
        rasterize_mesh(fb, cam, far_tri, color=(1, 0, 0))
        rasterize_mesh(fb, cam, near_tri, color=(0, 1, 0))
        img = fb.image()
        # center pixel shows the nearer (green) triangle
        assert img[20, 20, 1] > img[20, 20, 0]

    def test_behind_camera_culled(self):
        fb = Framebuffer(30, 30, background=(0, 0, 0))
        cam = Camera(position=(0, 0, 5), target=(0, 0, 0), up=(0, 1, 0))
        tri = np.array([[[-1, -1, 20], [1, -1, 20], [0, 1, 20]]], dtype=float)
        rasterize_mesh(fb, cam, tri)
        assert fb.image().max() == 0.0

    def test_empty_input(self):
        fb = Framebuffer(10, 10)
        cam = Camera()
        rasterize_mesh(fb, cam, np.zeros((0, 3, 3)))

    def test_bad_shape(self):
        with pytest.raises(ReproError):
            rasterize_mesh(Framebuffer(10, 10), Camera(), np.zeros((3, 3)))

    def test_bad_framebuffer(self):
        with pytest.raises(ReproError):
            Framebuffer(0, 10)


class TestScene:
    def test_render_sphere_contour(self):
        grid = make_sphere_grid(16)
        pd = contour_grid(grid, "r", [5.0])
        scene = Scene()
        scene.add_mesh(pd, color=(0.2, 0.8, 0.9))
        img = scene.render(80, 60)
        assert img.shape == (60, 80, 3)
        # the sphere must actually appear (some cyan-ish pixels)
        assert (img[:, :, 1] > 0.3).sum() > 50

    def test_two_actors(self):
        grid = make_sphere_grid(16)
        inner = contour_grid(grid, "r", [3.0])
        outer = contour_grid(grid, "r", [5.5])
        scene = Scene(background=(0, 0, 0))
        scene.add_mesh(outer, color=(1, 0, 0))
        scene.add_mesh(inner, color=(0, 1, 0))
        assert scene.num_actors == 2
        img = scene.render(60, 60)
        # outer sphere occludes inner: red visible, green hidden
        red = (img[:, :, 0] > 0.1).sum()
        green = (img[:, :, 1] > 0.1).sum()
        assert red > 100
        assert green == 0

    def test_line_rendering_2d_contour(self):
        from tests.conftest import make_2d_grid

        pd = contour_grid(make_2d_grid(20, 16), "f", [0.0])
        scene = Scene(background=(0, 0, 0))
        scene.add_mesh(pd, color=(1, 1, 0))
        img = scene.render(64, 64)
        assert (img[:, :, 0] > 0.5).sum() > 10

    def test_empty_scene_bounds_error(self):
        with pytest.raises(ReproError):
            Scene().bounds()

    def test_add_non_polydata(self):
        with pytest.raises(ReproError):
            Scene().add_mesh("nope")

    def test_clear(self):
        scene = Scene()
        scene.add_mesh(PolyData(np.zeros((1, 3))))
        scene.clear()
        assert scene.num_actors == 0
