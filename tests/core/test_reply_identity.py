"""Replies are byte-identical to the ones the parent of PR 14 produced.

PR 14 replaced the three hand-kept pre-filter endpoints, the fused twin
and the edge's private encode tail with one ``source -> op -> finish``
path.  ``reply_digests.json`` holds SHA-256 digests of the packed
replies below, captured by running this file as a script *at the parent
commit* (``PYTHONPATH=src python tests/core/test_reply_identity.py
--capture``), over the perf ledger's store content (``perf/store.py``:
asteroid series, dim 48, v02/v03, raw/gzip/lz4) served three ways — a
cache-off server, the ``repro serve`` default caches, and an edge in
front of a ``map_version``-stamping server.  One digest covers the
replies for one ``(server, object, array)`` in request order.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.ndp_server import NDPServer
from repro.datasets.asteroid import AsteroidImpactDataset, AsteroidParams
from repro.edge import EdgeCacheServer
from repro.io.vgf import write_vgf
from repro.rpc import RPCClient, pack
from repro.rpc.transport import InProcessTransport
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

DIGESTS = Path(__file__).with_name("reply_digests.json")
DIM = 48
TIMESTEPS = AsteroidParams().timesteps
CODECS = ("raw", "gzip", "lz4")
ARRAYS = ("v02", "v03")
ISOVALUES = (0.2, 0.35, 0.5, 0.65, 0.8)


def ledger_fs(step: int) -> S3FileSystem:
    """One timestep of the ledger store, in memory (deterministic tokens)."""
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    dataset = AsteroidImpactDataset(AsteroidParams(dims=(DIM, DIM, DIM)))
    grid = dataset.generate_arrays(step, list(ARRAYS))
    for codec in CODECS:
        fs.write_object(
            f"asteroid/{codec}/ts{step:05d}.vgf",
            write_vgf(grid, codec=codec, meta={"timestep": step}),
        )
    return fs


def clients(fs) -> dict:
    direct = lambda server: RPCClient(InProcessTransport(server.dispatch))
    default = dict(cache_bytes=256 << 20, selection_cache_bytes=64 << 20)
    edge = EdgeCacheServer(
        [InProcessTransport(NDPServer(fs, map_version=7, **default).dispatch)]
    )
    return {
        "cache-off": direct(NDPServer(fs)),
        "default": direct(NDPServer(fs, **default)),
        "edge": direct(edge),
    }


def block_requests(key: str, array: str, i: int) -> list:
    """``(label, method, params)`` for one block.  Order matters: the edge
    promotes a block after two reply misses, so ``contour-new`` and
    ``contour-roi`` are computed at the edge from the pulled block."""
    v = ISOVALUES[i % len(ISOVALUES)]
    roi = [0.1, 0.8, 0.15, 0.9, 0.0, 0.7]
    return [
        ("contour", "prefilter_contour", [key, array, [v]]),
        ("contour-spelled", "prefilter_contour",
         [key, array, [v], "cell-closure", "auto", "lz4"]),
        ("contour-edge-ids", "prefilter_contour",
         [key, array, [v + 0.07, v], "edge", "ids", "raw"]),
        ("contour-new", "prefilter_contour", [key, array, [v + 0.03]]),
        ("contour-roi", "prefilter_contour",
         [key, array, [v], "cell-closure", "bitmap", "gzip", roi]),
        ("threshold", "prefilter_threshold", [key, array, v, v + 0.1]),
        ("threshold-ids-raw", "prefilter_threshold",
         [key, array, 0.9, 1.0, "ids", "raw"]),
        ("slice", "prefilter_slice", [key, array, i % 3, 0.4]),
        ("slice-bitmap-gzip", "prefilter_slice",
         [key, array, 2, 0.0, "bitmap", "gzip"]),
        ("contour-again", "prefilter_contour", [key, array, [v]]),
        ("read_block", "read_block", [key, array]),
        ("array_statistics", "array_statistics", [key, array]),
        ("array_statistics-8", "array_statistics", [key, array, 8]),
        ("read_array", "read_array", [key, array]),
    ]


def batch_request(key: str, i: int) -> tuple:
    v = ISOVALUES[i % len(ISOVALUES)]
    return ("batch", "prefilter_batch", [key, [
        {"kind": "contour", "array": "v02", "values": [v],
         "roi": [0.0, 0.5, 0.0, 0.5, 0.0, 0.5]},
        {"kind": "threshold", "array": "v03", "lower": 0.5, "upper": 0.6,
         "wire_codec": "raw"},
        {"kind": "slice", "array": "v02", "axis": 1, "coordinate": 0.25,
         "encoding": "ids"},
        {"kind": "contour", "array": "v03", "values": [v], "mode": "edge"},
    ]])


def step_digests(step: int) -> dict:
    """``"<server>|<key>|<array>" -> sha256`` over its packed replies."""
    out = {}
    for name, client in clients(ledger_fs(step)).items():
        i = TIMESTEPS.index(step)
        for codec in CODECS:
            key = f"asteroid/{codec}/ts{step:05d}.vgf"
            calls = [("-",) + batch_request(key, i)]
            for array in ARRAYS:
                i += 1
                calls += [(array,) + r for r in block_requests(key, array, i)]
            for array, _label, method, params in calls:
                digest = out.setdefault(f"{name}|{key}|{array}", hashlib.sha256())
                digest.update(pack(client.call(method, *params)))
    return {group: digest.hexdigest() for group, digest in out.items()}


@pytest.mark.parametrize("step", TIMESTEPS)
def test_replies_match_parent_digests(step):
    expected = json.loads(DIGESTS.read_text())[str(step)]
    got = step_digests(step)
    assert got.keys() == expected.keys()
    assert sorted(k for k in got if got[k] != expected[k]) == []


if __name__ == "__main__" and sys.argv[1:] == ["--capture"]:
    DIGESTS.write_text(json.dumps(
        {str(step): step_digests(step) for step in TIMESTEPS},
        indent=0, sort_keys=True) + "\n")
