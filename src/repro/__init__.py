"""repro: near-data processing for scientific visualization pipelines.

A from-scratch, pure-Python reproduction of *"Accelerating Viz Pipelines
Using Near-Data Computing: An Early Experience"* (Zheng et al., SC 2024):
a VTK-like pipeline engine whose contour filter can be split into a
storage-side **pre-filter** (selects only the mesh points the contour
needs) and a client-side **post-filter** (rebuilds the identical contour
from that sparse selection), connected by a MessagePack RPC layer, over a
MinIO/s3fs-like storage substrate with GZip/LZ4 compression.

Quickstart::

    import numpy as np
    from repro import UniformGrid, DataArray, ContourFilter
    from repro.pipeline import TrivialProducer

    grid = UniformGrid((64, 64, 64))
    zz, yy, xx = np.meshgrid(*(np.arange(64),) * 3, indexing="ij")
    grid.point_data.add(
        DataArray("r", np.hypot(np.hypot(xx - 32, yy - 32), zz - 32).ravel())
    )

    contour = ContourFilter("r", [16.0])
    contour.set_input_connection(0, TrivialProducer(grid))
    surface = contour.output()          # PolyData triangle soup

See ``examples/`` for the NDP offload path and the paper's workloads.
"""

from repro.core import (
    ContourPostFilter,
    ContourPreFilter,
    NDPServer,
    ndp_contour,
    postfilter_contour,
    prefilter_contour,
    split_contour_filter,
)
from repro.errors import ReproError
from repro.filters import ContourFilter, contour_grid
from repro.grid import DataArray, PointSelection, PolyData, RectilinearGrid, UniformGrid
from repro.io import read_vgf, write_vgf

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "UniformGrid",
    "RectilinearGrid",
    "DataArray",
    "PolyData",
    "PointSelection",
    "ContourFilter",
    "contour_grid",
    "prefilter_contour",
    "postfilter_contour",
    "ContourPreFilter",
    "ContourPostFilter",
    "split_contour_filter",
    "NDPServer",
    "ndp_contour",
    "read_vgf",
    "write_vgf",
]
