"""Shared fixtures: small grids and fields every test group reuses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.encoding import decode_selection
from repro.core.filter_splits import bind_request, wire_request
from repro.filters.threshold import threshold_point_ids
from repro.grid import DataArray, UniformGrid
from repro.grid.polydata import CellArray, PolyData
from repro.io.checksum import checksum
from repro.rpc.msgpack import pack, unpack

# CI runs tests/rpc/test_envelope.py with --hypothesis-profile=envelope-ci:
# more examples than a developer run, and the same ones every time.
settings.register_profile(
    "envelope-ci", max_examples=2000, derandomize=True, deadline=None)
# CI runs tests/filters/test_marching_identity.py with
# --hypothesis-profile=marching-ci: the kernel-vs-frozen-reference suite
# at 20x its tier-1 slice.
settings.register_profile(
    "marching-ci", max_examples=2000, derandomize=True, deadline=None)
# CI runs tests/render/test_rasterizer_identity.py with
# --hypothesis-profile=raster-ci: the rasteriser-vs-frozen-loop suite and
# the box property at 8x their tier-1 250 examples.
settings.register_profile(
    "raster-ci", max_examples=2000, derandomize=True, deadline=None)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_sphere_grid(n: int = 20, name: str = "r") -> UniformGrid:
    """An n^3 grid carrying the distance-from-center field."""
    zz, yy, xx = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    r = np.sqrt((xx - n / 2) ** 2 + (yy - n / 2) ** 2 + (zz - n / 2) ** 2)
    grid = UniformGrid((n, n, n))
    grid.point_data.add(DataArray(name, r.reshape(-1).astype(np.float32)))
    return grid


def make_wave_grid(n: int = 24, name: str = "f", seed: int = 7) -> UniformGrid:
    """A smooth multiscale 3-D field with mixed positive/negative values."""
    rng = np.random.default_rng(seed)
    zz, yy, xx = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    field = (
        np.sin(xx / 3.5) * np.cos(yy / 4.5)
        + 0.4 * np.sin(zz / 2.5)
        + 0.05 * rng.normal(size=xx.shape)
    )
    grid = UniformGrid((n, n, n), origin=(0.5, -1.0, 2.0), spacing=(0.7, 1.1, 0.9))
    grid.point_data.add(DataArray(name, field.reshape(-1)))
    return grid


def make_2d_grid(nx: int = 16, ny: int = 12, name: str = "f", seed: int = 3) -> UniformGrid:
    rng = np.random.default_rng(seed)
    field = rng.normal(size=(ny, nx))
    grid = UniformGrid((nx, ny, 1))
    grid.point_data.add(DataArray(name, field.reshape(-1)))
    return grid


def axis_edge_counts(dims) -> tuple[int, int, int]:
    """Lattice edges along each axis: the formula the enumerators must meet."""
    nx, ny, nz = dims
    return (max(nx - 1, 0) * ny * nz, nx * max(ny - 1, 0) * nz,
            nx * ny * max(nz - 1, 0))


def threshold_points(grid, name: str, lower: float, upper: float) -> PolyData:
    """The threshold kernel's points as vertex geometry carrying their
    values: what the threshold split must rebuild bit for bit."""
    ids = threshold_point_ids(grid, name, lower, upper)
    out = PolyData(grid.point_ids_to_coords(ids))
    out.verts = CellArray.from_uniform(
        np.arange(ids.size, dtype=np.int64).reshape(-1, 1))
    out.point_data.add(DataArray(name, grid.point_data.get(name).values[ids]))
    return out


def prefilter_batch(client, key: str, requests: list) -> list:
    """Several split-filter requests in one ``prefilter_batch`` round trip,
    each reply post-filtered locally: ``[(polydata, stats), ...]``."""
    bound = [bind_request(req, i) for i, req in enumerate(requests)]
    replies = client.call("prefilter_batch", key,
                          [wire_request(*entry) for entry in bound])
    return [(op.post(decode_selection(encoded), args), encoded.get("stats"))
            for (op, _array, args), encoded in zip(bound, replies)]


@pytest.fixture
def sphere_grid():
    return make_sphere_grid()


@pytest.fixture
def wave_grid():
    return make_wave_grid()


@pytest.fixture
def grid_2d():
    return make_2d_grid()


def restamp_vgf(blob: bytes, edit=None) -> bytes:
    """VGF ``blob`` with ``edit(header)`` applied to its header map and
    every checksum the header carries recomputed over the bytes as they
    now are: a well-formed file around a corrupt block or header field."""
    hlen = int.from_bytes(blob[4:8], "little")
    header, data = unpack(blob[8:8 + hlen]), blob[8 + hlen:]
    if edit is not None:
        edit(header)
    for e in header["arrays"]:
        if "crc" in e:
            stored = data[e["offset"]:e["offset"] + e["stored_bytes"]]
            e["crc"] = checksum(stored, e["crc_algo"])
    if "header_crc" in header:
        del header["header_crc"]
        header["header_crc"] = checksum(pack(header),
                                        header["header_crc_algo"])
    packed = pack(header)
    return blob[:4] + len(packed).to_bytes(4, "little") + packed + data
