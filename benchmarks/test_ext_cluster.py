"""Extension — sharded cluster: storage-side scan scaling with shard count.

The paper's NDP node does the whole read + decompress + scan serially on
one storage server.  Splitting the object into K blocks served by K
independent NDP servers lets those storage-side costs run concurrently;
the gather (selection transfer + stitch + post-filter) stays on the
client.  This bench contours the asteroid dataset through clusters of
1, 2, 4, and 8 shards, each shard on its **own** simulated testbed, and
reports the storage-side critical path — the *slowest* shard's simulated
seconds, which is when the gather can complete.

Expected shape: near-linear descent while the per-shard work dominates
(the gzip decompress + scan split evenly), flattening only at block
granularity limits.  Geometry must stay byte-identical at every K.
"""

import numpy as np

from repro.bench.reporting import print_table
from repro.cluster import ClusterClient, load_manifest, shard_object
from repro.core import NDPServer
from repro.core.filter_splits import SPLIT_FILTERS
from repro.filters import contour_grid
from repro.io import write_vgf
from repro.rpc import InProcessTransport
from repro.rpc.pool import EndpointPool
from repro.storage import ObjectStore, S3FileSystem
from repro.storage.netsim import NATIVE_WIRE_CODEC, Testbed

SHARD_COUNTS = (1, 2, 4, 8)
VALUES = [0.3]
CONTOUR = SPLIT_FILTERS["contour"]
#: the testbed prices the paper's native reply codec
ARGS = CONTOUR.bind({"values": VALUES, "wire_codec": NATIVE_WIRE_CODEC})


def _assert_bytes_equal(a, b):
    assert a.points.tobytes() == b.points.tobytes()
    assert a.polys.connectivity.tobytes() == b.polys.connectivity.tobytes()
    assert a.polys.offsets.tobytes() == b.polys.offsets.tobytes()
    for x, y in zip(a.point_data, b.point_data):
        assert x.name == y.name and x.values.tobytes() == y.values.tobytes()


def _build_cluster(env, shards):
    """K shard servers over one backend, each metered by its own testbed."""
    grid = env.grid("asteroid", env.timesteps[0])
    backend = env.store.backend.__class__()
    setup_store = ObjectStore(backend)
    setup_store.create_bucket("sim")
    setup_fs = S3FileSystem(setup_store, "sim")
    key = f"k{shards}/full.vgf"
    setup_fs.write_object(key, write_vgf(grid, codec="gzip"))
    manifest_obj = shard_object(setup_fs, key, blocks=(1, 1, shards),
                                shards=shards)
    manifest = load_manifest(setup_fs, manifest_obj.manifest_key)

    testbeds = [Testbed() for _ in range(shards)]
    servers = []
    for tb in testbeds:
        fs = S3FileSystem(ObjectStore(backend, device=tb.ssd), "sim")
        servers.append(NDPServer(fs, testbed=tb))
    pool = EndpointPool([InProcessTransport(s.rpc.dispatch) for s in servers])
    return setup_fs, ClusterClient(pool, manifest), testbeds


def test_ext_cluster_scan_scaling(benchmark, bench_record, env):
    grid = env.grid("asteroid", env.timesteps[0])
    reference = contour_grid(grid, "v02", VALUES)

    rows, storage_s = [], {}
    last_fs = None
    for shards in SHARD_COUNTS:
        last_fs, cluster, testbeds = _build_cluster(env, shards)
        marks = [tb.clock.now for tb in testbeds]
        stitched, stats = cluster.prefilter("v02", ARGS)
        result = CONTOUR.post(stitched, ARGS)
        # The gather completes when the slowest shard does.
        critical = max(
            tb.clock.now - t0 for tb, t0 in zip(testbeds, marks)
        )
        storage_s[shards] = critical
        _assert_bytes_equal(result, reference)
        assert stats["fallback_blocks"] == 0
        rows.append({
            "shards": shards,
            "blocks": stats["blocks"],
            "storage_s": critical,
            "speedup": storage_s[1] / critical if critical else float("inf"),
            "wire_kB": stats["wire_bytes"] / 1e3,
            "selected": stats["selected_points"],
        })

    print_table(
        rows,
        title=("Extension — cluster scan scaling (asteroid v02, gzip, "
               "simulated storage-side seconds, critical path)"),
    )

    # Storage-side work must actually spread: monotone, and 8 shards at
    # least halve the single-server scan (linear would be 8x).
    curve = [storage_s[k] for k in SHARD_COUNTS]
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert storage_s[8] < storage_s[1] / 2.0

    bench_record(
        storage_s={str(k): v for k, v in storage_s.items()},
        scaling_8x=storage_s[1] / storage_s[8],
    )
    benchmark(lambda: load_manifest(last_fs, "k8/full.manifest.json"))
