"""ClusterClient acceptance: bit-identical scatter–gather contours.

For shards in {1, 2, 4} the cluster contour must be byte-equal — points,
polys, point-data — to BOTH the single-server NDP path and the baseline
full-read path, on the asteroid and Nyx datasets, including contour
values whose surface crosses block seams.
"""

import numpy as np
import pytest

from repro.cluster import ClusterClient, load_manifest, shard_object
from repro.core.filter_splits import SPLIT_FILTERS
from repro.core.ndp_client import ndp_contour
from repro.core.ndp_server import NDPServer
from repro.core.prefilter import prefilter_contour
from repro.datasets.asteroid import AsteroidImpactDataset, AsteroidParams
from repro.datasets.nyx import NyxDataset, NyxParams
from repro.errors import ReproError
from repro.filters import contour_grid
from repro.grid.bounds import Bounds
from repro.io import write_vgf
from repro.rpc.client import RPCClient
from repro.rpc.pool import EndpointPool
from repro.rpc.transport import InProcessTransport
from repro.storage.object_store import MemoryBackend, ObjectStore
from repro.storage.s3fs import S3FileSystem

from tests.cluster.test_stitch import assert_poly_bytes_equal

SHARD_COUNTS = (1, 2, 4)
#: 1x2x2 = 4 blocks: every shard count in SHARD_COUNTS divides cleanly
#: and every block face lies on a seam crossed by the test contours.
BLOCKS = (1, 2, 2)


def make_fs():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    return S3FileSystem(store, "sim")


def make_cluster(fs, key, shards, **kwargs):
    manifest = load_manifest(fs, key)
    assert manifest.shards == shards
    servers = [NDPServer(fs) for _ in range(shards)]
    pool = EndpointPool(
        [InProcessTransport(s.rpc.dispatch) for s in servers]
    )
    return ClusterClient(pool, manifest, **kwargs)


def seam_values(grid, array):
    """Contour values straddled by seam-plane cells: mid-range quantiles."""
    vals = grid.point_data.get(array).values
    return [float(np.quantile(vals, q)) for q in (0.35, 0.6)]


@pytest.fixture(scope="module", params=["asteroid", "nyx"])
def dataset(request):
    fs = make_fs()
    if request.param == "asteroid":
        ds = AsteroidImpactDataset(AsteroidParams(dims=(20, 20, 20)))
        grid = ds.generate_arrays(ds.timesteps[2], ["v02"])
        array = "v02"
    else:
        grid = NyxDataset(NyxParams(dims=(16, 16, 16))).generate()
        array = "baryon_density"
    fs.write_object("data/full.vgf", write_vgf(grid, codec="lz4"))
    for k in SHARD_COUNTS:
        shard_object(
            fs, "data/full.vgf", blocks=BLOCKS, shards=k,
            manifest_key=f"data/full.k{k}.manifest.json",
        )
    return fs, grid, array


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_cluster_matches_monolithic_and_baseline(dataset, shards):
    fs, grid, array = dataset
    values = seam_values(grid, array)
    baseline = contour_grid(grid, array, values)
    mono_client = RPCClient(InProcessTransport(NDPServer(fs).rpc.dispatch))
    mono, _ = ndp_contour(mono_client, "data/full.vgf", array, values)

    cluster = make_cluster(fs, f"data/full.k{shards}.manifest.json", shards)
    result, stats = cluster.contour(array, values)

    assert_poly_bytes_equal(result, baseline)
    assert_poly_bytes_equal(result, mono)
    assert stats["path"] == "cluster"
    assert stats["shards"] == shards
    assert stats["blocks"] == 4
    assert stats["fallback_blocks"] == 0
    assert stats["selected_points"] > 0

    # The shards get each request's own bound args (the edge tier sends
    # its client's): in every mode the stitch is the monolithic selection.
    op = SPLIT_FILTERS["contour"]
    for mode in ("cell-closure", "edge"):
        selection, _ = cluster.prefilter(
            array, op.bind({"values": values, "mode": mode}))
        assert selection == prefilter_contour(grid, array, values, mode=mode)


@pytest.mark.parametrize("shards", (1, 2))
def test_cluster_roi_matches_baseline(dataset, shards):
    fs, grid, array = dataset
    values = seam_values(grid, array)[:1]
    b = grid.bounds
    # An off-center box crossing both seam planes.
    roi = Bounds(
        b.xmin + 0.2 * (b.xmax - b.xmin), b.xmax,
        b.ymin, b.ymin + 0.7 * (b.ymax - b.ymin),
        b.zmin + 0.1 * (b.zmax - b.zmin), b.zmax,
    )
    baseline = contour_grid(grid, array, values, roi=roi)
    cluster = make_cluster(fs, f"data/full.k{shards}.manifest.json", shards)
    result, stats = cluster.contour(array, values, roi=roi)
    assert_poly_bytes_equal(result, baseline)
    assert stats["blocks"] <= 4


def test_roi_prunes_shards(dataset):
    fs, grid, array = dataset
    b = grid.bounds
    # A sliver strictly inside the low-y, low-z corner: with the 1x2x2
    # layout only block (0,0,0) intersects, so only its shard is asked.
    roi = Bounds(
        b.xmin, b.xmax,
        b.ymin, b.ymin + 0.1 * (b.ymax - b.ymin),
        b.zmin, b.zmin + 0.1 * (b.zmax - b.zmin),
    )
    values = seam_values(grid, array)[:1]
    cluster = make_cluster(fs, "data/full.k4.manifest.json", 4)
    result, stats = cluster.contour(array, values, roi=roi)
    assert stats["blocks"] == 1
    assert stats["shards_queried"] == 1
    assert_poly_bytes_equal(result, contour_grid(grid, array, values, roi=roi))


def test_empty_roi_yields_empty_but_valid(dataset):
    fs, grid, array = dataset
    b = grid.bounds
    far = Bounds(b.xmax + 10, b.xmax + 11, b.ymin, b.ymax, b.zmin, b.zmax)
    cluster = make_cluster(fs, "data/full.k2.manifest.json", 2)
    result, stats = cluster.contour(array, seam_values(grid, array)[:1],
                                    roi=far)
    assert stats["blocks"] == 0 and stats["shards_queried"] == 0
    reference = contour_grid(grid, array, seam_values(grid, array)[:1],
                             roi=far)
    assert_poly_bytes_equal(result, reference)


def test_pool_size_must_match_manifest(dataset):
    fs, _, _ = dataset
    manifest = load_manifest(fs, "data/full.k2.manifest.json")
    pool = EndpointPool(
        [InProcessTransport(NDPServer(fs).rpc.dispatch)]
    )
    with pytest.raises(ReproError):
        ClusterClient(pool, manifest)


def test_unknown_array_fails_before_any_rpc(dataset):
    fs, _, _ = dataset
    cluster = make_cluster(fs, "data/full.k2.manifest.json", 2)
    with pytest.raises(ReproError):
        cluster.contour("not_an_array", [0.5])
