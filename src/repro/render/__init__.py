"""Software rendering sink: camera, z-buffer rasterizer, scene.

The paper's pipelines end in "an OpenGL subpipeline that renders the
contours ... on the screen" (Sec. III).  This package is the offline
equivalent: a perspective camera, a NumPy z-buffer rasterizer with
Lambert shading, and a :class:`~repro.render.scene.Scene` that renders
:class:`~repro.grid.polydata.PolyData` to images (written out via
:func:`repro.io.ppm.write_ppm`).
"""

from repro.render.camera import Camera
from repro.render.colormaps import available_colormaps, map_scalars
from repro.render.rasterizer import rasterize_mesh
from repro.render.scene import Scene

__all__ = ["Camera", "rasterize_mesh", "Scene", "map_scalars", "available_colormaps"]
