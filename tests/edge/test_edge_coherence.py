"""Coherence: an upstream overwrite or rebalance is never served stale.

The edge keys every cached entry by the upstream store's version token
plus the cluster ``map_version``, so coherence reduces to "does the edge
learn the new tokens before serving?" — strict mode must *always* (it
probes per serve), watch mode within one :meth:`poll`.  These tests
overwrite objects and bump map generations mid-session and assert the
client observes only fresh bytes.
"""

import pytest

from repro.cluster import ClusterClient, load_manifest, shard_object
from repro.core import NDPServer
from repro.core.encoding import decode_selection
from repro.core.filter_splits import SPLIT_FILTERS
from repro.core.prefilter import prefilter_contour
from repro.edge import CoherenceTracker, EdgeCacheServer
from repro.errors import ReproError, RPCTransportError, SelectionError
from repro.grid.bounds import Bounds
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient
from repro.rpc.msgpack import pack
from repro.rpc.pool import EndpointPool
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid, make_wave_grid


def edge_counts(edge):
    """The edge's own counters, as the ``stats`` endpoint carries them."""
    return edge.stats_snapshot()["collected"]["edge"]


def make_fs():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    return S3FileSystem(store, "sim")


class TestCoherenceTracker:
    def test_strict_probes_every_revalidate(self):
        calls = []

        def probe(key):
            calls.append(key)
            return (("gen", len(calls)), None)

        tracker = CoherenceTracker(probe, mode="strict")
        tracker.revalidate("k")
        tracker.revalidate("k")
        assert calls == ["k", "k"]

    def test_watch_probes_once_then_serves_known(self):
        calls = []

        def probe(key):
            calls.append(key)
            return (("gen", 1), None)

        tracker = CoherenceTracker(probe, mode="watch")
        assert tracker.revalidate("k") == tracker.revalidate("k")
        assert calls == ["k"]

    def test_poll_reprobes_and_counts_changes(self):
        state = {"gen": 1}
        tracker = CoherenceTracker(
            lambda key: (("gen", state["gen"]), None), mode="watch")
        tracker.revalidate("a")
        tracker.revalidate("b")
        state["gen"] = 2
        assert tracker.poll() == 2
        assert tracker.revalidate("a") == (("gen", 2), None)

    def test_poll_failure_keeps_old_tokens(self):
        state = {"fail": False}

        def probe(key):
            if state["fail"]:
                raise RPCTransportError("down")
            return (("gen", 1), 7)

        tracker = CoherenceTracker(probe, mode="watch")
        tracker.revalidate("k")
        state["fail"] = True
        assert tracker.poll() == 0
        assert tracker.last_known("k") == (("gen", 1), 7)

    def test_note_map_version_updates_known(self):
        tracker = CoherenceTracker(lambda key: (("gen", 1), 1), mode="watch")
        tracker.revalidate("k")
        tracker.note_map_version("k", 2)
        assert tracker.revalidate("k") == (("gen", 1), 2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError, match="unknown coherence mode"):
            CoherenceTracker(lambda key: (None, None), mode="ttl")


class TestStrictOverwrite:
    def test_overwrite_never_served_stale(self):
        fs = make_fs()
        grid = make_sphere_grid(12)
        fs.write_object("g.vgf", write_vgf(grid, codec="lz4"))
        server = NDPServer(fs)
        edge = EdgeCacheServer([InProcessTransport(server.dispatch)])
        client = RPCClient(InProcessTransport(edge.dispatch))
        direct = RPCClient(InProcessTransport(server.dispatch))

        old = client.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert old["stats"]["codec"] == "lz4"
        # overwrite with a different codec: same geometry, new bytes
        fs.write_object("g.vgf", write_vgf(grid, codec="gzip"))
        fresh = client.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert fresh["stats"]["codec"] == "gzip"
        assert fresh == direct.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert edge_counts(edge)["invalidations"] >= 1

    def test_overwrite_with_different_field_changes_selection(self):
        fs = make_fs()
        fs.write_object("g.vgf", write_vgf(make_sphere_grid(12), codec="lz4"))
        server = NDPServer(fs)
        edge = EdgeCacheServer([InProcessTransport(server.dispatch)])
        client = RPCClient(InProcessTransport(edge.dispatch))
        a = client.call("prefilter_contour", "g.vgf", "r", [3.0])
        fs.write_object(
            "g.vgf",
            write_vgf(make_sphere_grid(12, name="r"), codec="raw"),
        )
        b = client.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert b["stats"]["codec"] == "raw"
        assert a["stats"]["codec"] == "lz4"

    def test_overwrite_invalidates_promoted_block(self):
        # Local compute must key its block by the same version token.
        fs = make_fs()
        grid = make_wave_grid(14)
        fs.write_object("g.vgf", write_vgf(grid, codec="lz4"))
        server = NDPServer(fs)
        edge = EdgeCacheServer([InProcessTransport(server.dispatch)])
        client = RPCClient(InProcessTransport(edge.dispatch))
        direct = RPCClient(InProcessTransport(server.dispatch))
        for v in (0.0, 0.2, 0.4):  # third value computes locally
            client.call("prefilter_contour", "g.vgf", "f", [v])
        assert edge_counts(edge)["local_computes"] >= 1
        # overwrite with a *different field*: stale block must not be used
        grid2 = make_wave_grid(14, seed=99)
        fs.write_object("g.vgf", write_vgf(grid2, codec="lz4"))
        fresh = client.call("prefilter_contour", "g.vgf", "f", [0.4])
        assert fresh == direct.call("prefilter_contour", "g.vgf", "f", [0.4])


class TestWatchMode:
    def test_staleness_bounded_by_poll(self):
        fs = make_fs()
        grid = make_sphere_grid(12)
        fs.write_object("g.vgf", write_vgf(grid, codec="lz4"))
        server = NDPServer(fs)
        edge = EdgeCacheServer([InProcessTransport(server.dispatch)],
                               coherence="watch")
        client = RPCClient(InProcessTransport(edge.dispatch))
        client.call("prefilter_contour", "g.vgf", "r", [3.0])
        reval_before = edge_counts(edge)["revalidations"]
        fs.write_object("g.vgf", write_vgf(grid, codec="gzip"))
        # before the poll: the edge serves from last-known tokens (no WAN)
        stale = client.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert stale["stats"]["codec"] == "lz4"
        assert edge_counts(edge)["revalidations"] == reval_before
        # one poll round learns the new token; next serve is fresh
        assert edge.poll() == 1
        fresh = client.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert fresh["stats"]["codec"] == "gzip"

    def test_watch_warm_serves_without_upstream_traffic(self):
        fs = make_fs()
        fs.write_object("g.vgf", write_vgf(make_sphere_grid(12), codec="lz4"))
        server = NDPServer(fs)

        calls = {"n": 0}

        class Counting(InProcessTransport):
            def request(self, payload):
                calls["n"] += 1
                return super().request(payload)

        edge = EdgeCacheServer([Counting(server.dispatch)],
                               coherence="watch")
        client = RPCClient(InProcessTransport(edge.dispatch))
        client.call("prefilter_contour", "g.vgf", "r", [3.0])
        after_cold = calls["n"]
        for _ in range(5):
            client.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert calls["n"] == after_cold  # zero upstream frames when warm


class TestMapVersionPath:
    def test_map_version_bump_invalidates(self):
        fs = make_fs()
        grid = make_sphere_grid(12)
        fs.write_object("g.vgf", write_vgf(grid, codec="lz4"))
        gen = {"v": 1}
        server = NDPServer(fs, map_version=lambda: gen["v"])
        edge = EdgeCacheServer([InProcessTransport(server.dispatch)])
        client = RPCClient(InProcessTransport(edge.dispatch))
        out = client.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert out["map_version"] == 1
        misses_before = edge_counts(edge)["misses"]
        # same request, bumped map generation: must re-fetch, and the
        # reply must advertise the live generation
        gen["v"] = 2
        out = client.call("prefilter_contour", "g.vgf", "r", [3.0])
        assert out["map_version"] == 2
        assert edge_counts(edge)["misses"] == misses_before + 1

    def test_cluster_fronting_with_rebalance(self):
        fs = make_fs()
        grid = make_wave_grid(16)
        fs.write_object("g.vgf", write_vgf(grid, codec="lz4"))
        shard_object(fs, "g.vgf", blocks=(1, 2, 2), shards=2,
                     manifest_key="g.manifest")
        manifest = load_manifest(fs, "g.manifest")
        gen = {"v": int(manifest.map_version)}
        servers = [NDPServer(fs, map_version=lambda: gen["v"])
                   for _ in range(2)]
        pool = EndpointPool(
            [InProcessTransport(s.rpc.dispatch) for s in servers])
        cluster = ClusterClient(pool, manifest)
        edge = EdgeCacheServer(cluster=cluster)
        client = RPCClient(InProcessTransport(edge.dispatch))
        single = NDPServer(fs)
        direct = RPCClient(InProcessTransport(single.dispatch))

        out = client.call("prefilter_contour", "g.vgf", "f", [0.0])
        ref = direct.call("prefilter_contour", "g.vgf", "f", [0.0])
        # cluster scatter-gather stitches the same selection the
        # monolithic server computes (payload bytes equal, stats differ)
        assert out["count"] == ref["count"]
        assert out["map_version"] == gen["v"]
        # warm: served from the edge cache
        misses = edge_counts(edge)["misses"]
        again = client.call("prefilter_contour", "g.vgf", "f", [0.0])
        assert again == out
        assert edge_counts(edge)["misses"] == misses
        # rebalance: generation bump must invalidate coherently
        gen["v"] += 1
        fresh = client.call("prefilter_contour", "g.vgf", "f", [0.0])
        assert fresh["map_version"] == gen["v"]
        assert edge_counts(edge)["misses"] == misses + 1

    @staticmethod
    def _cluster_front(fs):
        """An edge fronting a 2-shard cluster of ``a.vgf``, plus a direct
        client to a single server over the same store."""
        shard_object(fs, "a.vgf", blocks=(1, 2, 2), shards=2,
                     manifest_key="a.manifest")
        pool = EndpointPool(
            [InProcessTransport(NDPServer(fs, map_version=1).rpc.dispatch)
             for _ in range(2)])
        edge = EdgeCacheServer(
            cluster=ClusterClient(pool, load_manifest(fs, "a.manifest")))
        direct = RPCClient(InProcessTransport(NDPServer(fs).dispatch))
        return edge, RPCClient(InProcessTransport(edge.dispatch)), direct

    def test_cluster_front_forwards_other_keys(self):
        # The shards hold a.vgf only: a request for b.vgf must be answered
        # from b.vgf, not scatter-gathered over a.vgf's blocks.
        fs = make_fs()
        fs.write_object("a.vgf", write_vgf(make_wave_grid(16), codec="lz4"))
        fs.write_object("b.vgf", write_vgf(make_wave_grid(16, seed=11),
                                           codec="lz4"))
        edge, client, direct = self._cluster_front(fs)
        ref = direct.call("prefilter_contour", "b.vgf", "f", [0.0])
        assert ref["count"] != direct.call(
            "prefilter_contour", "a.vgf", "f", [0.0])["count"]
        out = client.call("prefilter_contour", "b.vgf", "f", [0.0])
        assert out["count"] == ref["count"]
        assert edge_counts(edge)["local_computes"] == 0

    def test_cluster_front_computes_edge_mode_locally(self):
        fs = make_fs()
        fs.write_object("a.vgf", write_vgf(make_wave_grid(16), codec="lz4"))
        edge, client, direct = self._cluster_front(fs)
        out = client.call("prefilter_contour", "a.vgf", "f", [0.0], "edge")
        ref = direct.call("prefilter_contour", "a.vgf", "f", [0.0], "edge")
        assert out["count"] == ref["count"]
        assert out["count"] != direct.call(
            "prefilter_contour", "a.vgf", "f", [0.0])["count"]
        assert edge_counts(edge)["local_computes"] == 1

    def test_cluster_front_forwards_edge_mode_roi_on_a_seam(self):
        # An ROI ending on the y seam: a seam point whose only crossing
        # edge lies in the upper block has its ROI cells in the lower one,
        # so no single block selects it while the monolithic scan does.
        fs = make_fs()
        grid = make_wave_grid(16)
        fs.write_object("a.vgf", write_vgf(grid, codec="lz4"))
        edge, client, direct = self._cluster_front(fs)
        m = edge.cluster.manifest
        seam = m.block_world_bounds(m.block_objects[0]).ymax
        b = grid.bounds
        roi = Bounds(b.xmin - 1, b.xmax + 1, b.ymin - 1, seam,
                     b.zmin - 1, b.zmax + 1)
        args = SPLIT_FILTERS["contour"].bind(
            {"values": [0.0], "mode": "edge", "roi": roi})
        wire = SPLIT_FILTERS["contour"].wire(args)
        ref = prefilter_contour(grid, "f", [0.0], mode="edge", roi=roi)
        out = client.call("prefilter_contour", "a.vgf", "f", *wire)
        assert decode_selection(out) == ref
        assert decode_selection(direct.call(
            "prefilter_contour", "a.vgf", "f", *wire)) == ref
        assert edge_counts(edge)["local_computes"] == 0
        assert edge_counts(edge)["forwards"] == 1
        with pytest.raises(SelectionError):
            edge.cluster.prefilter("f", args)

    def test_cluster_front_stampede_single_compute(self):
        import threading

        fs = make_fs()
        fs.write_object("g.vgf", write_vgf(make_wave_grid(16), codec="lz4"))
        shard_object(fs, "g.vgf", blocks=(1, 2, 2), shards=2,
                     manifest_key="g.manifest")
        manifest = load_manifest(fs, "g.manifest")
        servers = [NDPServer(fs, map_version=1) for _ in range(2)]
        pool = EndpointPool(
            [InProcessTransport(s.rpc.dispatch) for s in servers])
        cluster = ClusterClient(pool, manifest)
        edge = EdgeCacheServer(cluster=cluster)

        n = 6
        barrier = threading.Barrier(n)
        outs = [None] * n

        def worker(i):
            barrier.wait(timeout=5)
            outs[i] = edge.dispatch(
                pack([0, i + 1, "prefilter_contour",
                      ["g.vgf", "f", [0.0]]]))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert all(o is not None for o in outs)
        info = edge_counts(edge)
        assert info["misses"] == 1
        assert info["hits"] + info["coalesced"] == n - 1
