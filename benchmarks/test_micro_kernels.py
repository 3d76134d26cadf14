"""Microbenchmarks of the hot kernels under every experiment.

Not a paper artifact: these isolate the building blocks (MessagePack,
LZ4, marching tetrahedra, the pre-filter scan, the full RPC round trip)
so regressions in any layer are visible independently of the end-to-end
tables.
"""

import numpy as np
import pytest

from repro.compression.lz4 import lz4_compress_block, lz4_decompress_block
from repro.core.encoding import encode_selection
from repro.core.prefilter import prefilter_contour
from repro.filters import contour_grid
from repro.filters.marching_tets import marching_tetrahedra
from repro.grid import DataArray, UniformGrid
from repro.render import Camera
from repro.render.rasterizer import Framebuffer, rasterize_mesh
from repro.rpc import RPCClient, RPCServer, pack, unpack


@pytest.fixture(scope="module")
def v02_grid(env):
    return env.grid("asteroid", env.timesteps[4])


def test_micro_msgpack_pack(benchmark, env):
    sel = env.selection("asteroid", env.timesteps[4], "v02", [0.1])
    payload = encode_selection(sel)
    result = benchmark(lambda: pack(payload))
    assert len(result) > 0


def test_micro_msgpack_unpack(benchmark, env):
    sel = env.selection("asteroid", env.timesteps[4], "v02", [0.1])
    frame = pack(encode_selection(sel))
    result = benchmark(lambda: unpack(frame))
    assert result["array"] == "v02"


def test_micro_lz4_compress(benchmark, v02_grid):
    data = v02_grid.point_data.get("v02").values.tobytes()
    block = benchmark(lambda: lz4_compress_block(data))
    assert len(block) < len(data)


def test_micro_lz4_decompress(benchmark, v02_grid):
    data = v02_grid.point_data.get("v02").values.tobytes()
    block = lz4_compress_block(data)
    out = benchmark(lambda: lz4_decompress_block(block))
    assert out == data


def test_micro_lz4_decompress_constant_block(benchmark):
    """One long overlapping match: the store's most compressible blocks."""
    data = bytes(442_368)
    block = lz4_compress_block(data)
    out = benchmark(lambda: lz4_decompress_block(block))
    assert out == data


def test_micro_marching_tets(benchmark, v02_grid):
    field = v02_grid.scalar_field("v02")
    tris = benchmark(lambda: marching_tetrahedra(field, 0.1))
    assert tris.shape[0] > 0


def test_micro_prefilter_scan(benchmark, v02_grid):
    sel = benchmark(lambda: prefilter_contour(v02_grid, "v02", [0.1, 0.5, 0.9]))
    assert sel.count > 0


@pytest.mark.parametrize("n", [10, 32], ids=["2k", "20k"])
def test_micro_rasterize(benchmark, n):
    """A screen-filling sphere contour of ~2 k / ~20 k triangles at 160x120."""
    zz, yy, xx = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    r = np.sqrt((xx - n / 2) ** 2 + (yy - n / 2) ** 2 + (zz - n / 2) ** 2)
    grid = UniformGrid((n, n, n))
    grid.point_data.add(DataArray("r", r.reshape(-1).astype(np.float32)))
    pd = contour_grid(grid, "r", [0.42 * n])
    tris = pd.points[pd.triangles()]
    camera = Camera.fit_bounds(pd.bounds)

    def draw():
        fb = Framebuffer(160, 120)
        rasterize_mesh(fb, camera, tris)
        return fb

    fb = benchmark(draw)
    benchmark.extra_info["triangles"] = len(tris)
    assert np.isfinite(fb.depth).sum() > 2_000


def test_micro_rpc_round_trip(benchmark):
    srv = RPCServer({"echo": lambda x: x})
    cli = RPCClient.in_process(srv)
    payload = np.zeros(65536, dtype=np.float32).tobytes()
    result = benchmark(lambda: cli.call("echo", payload))
    assert result == payload


def test_micro_full_ndp_load(benchmark, env):
    step = env.timesteps[4]
    _, res = benchmark(lambda: env.ndp_load("asteroid", "lz4", step, "v02", [0.1]))
    assert res.network_bytes > 0
