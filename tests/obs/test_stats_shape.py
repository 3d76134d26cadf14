"""``stats`` and ``health`` reply shapes are pinned key for key.

PR 18 folded the three counter bags into ``obs.metrics`` and deleted the
second stats endpoint; what ``stats`` and ``health`` answer must not have
changed by a key.  ``stats_key_trees.json`` holds the key trees of both
replies, for an NDP server and for an edge in front of one, after the
request sequence in :func:`key_trees` — recorded by running this file as
a module *at the parent commit* (``PYTHONPATH=src python -m
tests.obs.test_stats_shape --capture``; it imports nothing the parent
lacks).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.ndp_server import NDPServer
from repro.edge import EdgeCacheServer
from repro.errors import ServerOverloadedError
from repro.io.vgf import write_vgf
from repro.rpc import RPCClient, pack
from repro.rpc.transport import TCPTransport
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

RECORDING = Path(__file__).with_name("stats_key_trees.json")


def warmed_server() -> NDPServer:
    """An NDP server that has seen a contour, a selection-cache hit and
    a shed — every count ``perf/layers.py`` reads has moved."""
    from tests.conftest import make_sphere_grid

    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    fs.write_object("g.vgf", write_vgf(make_sphere_grid(12), codec="lz4"))
    return NDPServer(fs, cache_bytes=1 << 20, selection_cache_bytes=1 << 20,
                     map_version=3)


#: How :func:`drive` needs the server listening: one worker, one queue slot.
SERVE = {"workers": 1, "tenant_pending": 1}


def drive(server: NDPServer, listener, client: RPCClient) -> None:
    """Two contours, then a third shed because ``client``'s tenant has
    the one worker busy and the one queue slot full."""
    for _ in range(2):  # a miss on both caches, then a selection-cache hit
        client.call("prefilter_contour", "g.vgf", "r", [3.0])
    release = threading.Event()
    server.rpc.bind("hold", lambda: release.wait(timeout=10.0))
    gate = listener.scheduler
    hold = pack([0, 0, "hold", [], {"tenant": client.tenant}])
    try:
        gate.submit(hold, lambda reply: None)  # takes the one worker
        _wait_for(lambda: gate.inflight == 1)
        gate.submit(hold, lambda reply: None)  # fills the one queue slot
        _wait_for(lambda: gate.pending == 1)
        with pytest.raises(ServerOverloadedError):
            client.call("prefilter_contour", "g.vgf", "r", [4.0])
    finally:
        release.set()
    _wait_for(gate.quiescent)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "server never got there"
        time.sleep(0.002)


def key_tree(value):
    """Keys only: dicts recurse, a list is the union of its elements'
    trees (which bucket holds an exemplar depends on timing), leaves are
    ``None``."""
    if isinstance(value, dict):
        return {str(k): key_tree(v) for k, v in sorted(value.items())}
    if isinstance(value, list):
        merged: dict = {}
        for item in value:
            tree = key_tree(item)
            if isinstance(tree, dict):
                merged.update(tree)
        return [merged] if merged else None
    return None


def key_trees() -> dict:
    server = warmed_server()
    upstream = server.serve_tcp(tenant_weights={"viz": 2.0}, **SERVE)
    edge = EdgeCacheServer(
        [TCPTransport(upstream.host, upstream.port, timeout=10.0)])
    front = edge.serve_tcp()
    direct = RPCClient(
        TCPTransport(upstream.host, upstream.port, timeout=10.0), tenant="viz")
    via_edge = RPCClient(
        TCPTransport(front.host, front.port, timeout=10.0), tenant="viz")
    try:
        drive(server, upstream, direct)
        for _ in range(2):  # an edge miss, then an edge hit
            via_edge.call("prefilter_contour", "g.vgf", "r", [5.0])
        return {
            f"{name}.{method}": key_tree(client.call(method))
            for name, client in (("ndp", direct), ("edge", via_edge))
            for method in ("stats", "health")
        }
    finally:
        direct.close()
        via_edge.close()
        edge.close()
        upstream.stop()


def test_stats_and_health_keys_match_the_parent_recording():
    assert key_trees() == json.loads(RECORDING.read_text())


if __name__ == "__main__" and sys.argv[1:] == ["--capture"]:
    RECORDING.write_text(
        json.dumps(key_trees(), indent=1, sort_keys=True) + "\n")
