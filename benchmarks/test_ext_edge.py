"""Extension — edge cache tier: LAN-like latency over a WAN hop.

The paper's NDP server assumes the client sits next to the storage rack.
When the analyst is a continent away, every contour pays the WAN round
trip plus the narrow uplink/downlink.  The edge cache
(:class:`~repro.edge.EdgeCacheServer`) sits on the client's LAN, speaks
the same RPC protocol on both faces, and forwards misses upstream — so
warm repeats and (after block promotion) nearby-ROI contours are served
without touching the WAN at all.

Topology on one simulated clock::

    direct:  client --wan-cross-country--> storage NDP server
    edged:   client --lan--> edge --wan-cross-country--> storage NDP server

The edge runs in ``watch`` coherence mode (strict would pay one WAN
probe per serve, which is the wrong trade across a 35 ms hop; staleness
is bounded by the poll interval instead).  Acceptance: warm p50 at least
5x better than direct-over-WAN, and the cold path byte-identical to a
direct read of the same frame.
"""

import statistics

from repro.bench.reporting import print_table
from repro.core import NDPServer
from repro.edge import EdgeCacheServer
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient
from repro.rpc.msgpack import pack
from repro.rpc.transport import SimulatedTransport
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem
from repro.storage.netsim import Testbed, wan_link_pair

KEY = "ts.vgf"
ARRAY = "v02"
VALUE = 0.5
REPEATS = 9
WAN = "wan-cross-country"


def _setup(env):
    """Client-side LAN edge fronting a WAN-remote storage server."""
    tb = Testbed()
    store = ObjectStore(MemoryBackend(), device=tb.ssd)
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    grid = env.grid("asteroid", env.timesteps[0])
    fs.write_object(KEY, write_vgf(grid, codec="lz4"))
    server = NDPServer(fs, testbed=tb)
    tb.reset()

    def wan(dispatch):
        up, down = wan_link_pair(WAN, tb.clock)
        return SimulatedTransport(InProcessTransport(dispatch), up,
                                  response_link=down)

    edge = EdgeCacheServer([wan(server.dispatch)], coherence="watch")
    lan_up, lan_down = wan_link_pair("lan", tb.clock)
    edge_client = RPCClient(SimulatedTransport(
        InProcessTransport(edge.dispatch), lan_up, response_link=lan_down))
    direct_client = RPCClient(wan(server.dispatch))
    return tb, server, edge, edge_client, direct_client


def _roi_for(grid, i):
    """A small axis-aligned window, shifted per request."""
    b = grid.bounds
    dx = (b.xmax - b.xmin) / 10.0
    lo = b.xmin + i * dx / 2.0
    return [lo, lo + 3 * dx, b.ymin, b.ymax, b.zmin, b.zmax]


def _timed(tb, fn) -> float:
    t0 = tb.clock.now
    fn()
    return tb.clock.now - t0


def test_ext_edge_wan(benchmark, env, bench_record):
    tb, server, edge, edge_client, direct_client = _setup(env)
    grid = env.grid("asteroid", env.timesteps[0])

    # -- direct over WAN: every repeat pays the round trip + transfer
    direct_times = [
        _timed(tb, lambda: direct_client.call(
            "prefilter_contour", KEY, ARRAY, [VALUE]))
        for _ in range(REPEATS)
    ]

    # -- edge: one cold miss (forwarded over the WAN), then warm repeats
    cold_s = _timed(tb, lambda: edge_client.call(
        "prefilter_contour", KEY, ARRAY, [VALUE]))
    warm_times = [
        _timed(tb, lambda: edge_client.call(
            "prefilter_contour", KEY, ARRAY, [VALUE]))
        for _ in range(REPEATS)
    ]

    # -- block promotion: a second distinct value trips the miss
    # threshold, the edge pulls the decoded block once over the WAN, and
    # every nearby-ROI contour after that is computed on the LAN side.
    promote_s = _timed(tb, lambda: edge_client.call(
        "prefilter_contour", KEY, ARRAY, [VALUE + 0.1]))
    roi_times = [
        _timed(tb, lambda: edge_client.call(
            "prefilter_contour", KEY, ARRAY, [VALUE + 0.2],
            "cell-closure", "auto", "lz4", _roi_for(grid, i)))
        for i in range(REPEATS)
    ]

    direct_p50 = statistics.median(direct_times)
    warm_p50 = statistics.median(warm_times)
    roi_p50 = statistics.median(roi_times)

    print_table(
        [
            {"path": "direct (WAN)", "p50_s": direct_p50,
             "best_s": min(direct_times), "worst_s": max(direct_times)},
            {"path": "edge cold miss", "p50_s": cold_s,
             "best_s": cold_s, "worst_s": cold_s},
            {"path": "edge warm repeat", "p50_s": warm_p50,
             "best_s": min(warm_times), "worst_s": max(warm_times)},
            {"path": "edge block promote", "p50_s": promote_s,
             "best_s": promote_s, "worst_s": promote_s},
            {"path": "edge nearby ROI", "p50_s": roi_p50,
             "best_s": min(roi_times), "worst_s": max(roi_times)},
        ],
        title=(f"Extension — edge cache over {WAN} "
               f"({REPEATS} repeats, simulated s)"),
    )
    bench_record(
        wan_profile=WAN,
        direct_p50_s=direct_p50,
        edge_cold_s=cold_s,
        edge_warm_p50_s=warm_p50,
        edge_roi_p50_s=roi_p50,
        warm_speedup=direct_p50 / warm_p50,
        roi_speedup=direct_p50 / roi_p50,
    )

    # The acceptance gate: warm repeats at least 5x better than direct.
    assert direct_p50 >= 5.0 * warm_p50
    # Nearby-ROI contours ride the promoted block: also LAN-like.
    assert direct_p50 >= 5.0 * roi_p50
    # The warm path really did stay off the WAN.
    info = edge.stats_snapshot()["collected"]["edge"]
    assert info["hits"] >= REPEATS
    assert info["local_computes"] >= REPEATS
    assert info["block_promotions"] == 1

    benchmark(lambda: edge_client.call(
        "prefilter_contour", KEY, ARRAY, [VALUE]))


def test_ext_edge_cold_byte_identity(env):
    """A cold edge is protocol-invisible: byte-identical to direct."""
    tb = Testbed()
    store = ObjectStore(MemoryBackend(), device=tb.ssd)
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    grid = env.grid("asteroid", env.timesteps[0])
    fs.write_object(KEY, write_vgf(grid, codec="lz4"))
    direct = NDPServer(fs)
    upstream = NDPServer(fs)
    edge = EdgeCacheServer([InProcessTransport(upstream.dispatch)])

    for msgid, params in [
        (1, [KEY, ARRAY, [VALUE]]),
        (2, [KEY, ARRAY, [VALUE], "cell-closure", "auto", "gzip"]),
        (3, [KEY, ARRAY, [0.2, 0.8]]),
    ]:
        frame = pack([0, msgid, "prefilter_contour", params])
        assert edge.dispatch(frame) == direct.dispatch(frame)
    # warm replies decode to the same message even after re-packing
    frame = pack([0, 9, "prefilter_contour", [KEY, ARRAY, [VALUE]]])
    assert edge.dispatch(frame) == direct.dispatch(frame)
