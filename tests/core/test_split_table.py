"""The split-filter table and the one serving path behind it.

Everything that serves or calls a split filter is a lookup into
:data:`~repro.core.filter_splits.SPLIT_FILTERS`; these tests hold the
table complete (every row reachable from every route), its two wire
shapes equivalent, and the two defects the hand-kept copies had — cell
arrays and malformed batches — fixed on every route at once.
"""

import numpy as np
import pytest

from repro.core import ndp_client
from repro.core.filter_splits import (
    DEFAULT_WIRE_CODEC,
    SPLIT_FILTERS,
    bind_request,
    wire_request,
)
from repro.core.ndp_server import NDPServer
from repro.core.prefetch import NDPPrefetcher
from repro.edge import EdgeCacheServer
from repro.errors import ReproError, RPCError, RPCRemoteError
from repro.grid import DataArray, UniformGrid
from repro.grid.bounds import Bounds
from repro.io.vgf import write_vgf
from repro.rpc import RPCClient
from repro.rpc.transport import InProcessTransport
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

#: one request per table row; a new row fails ``test_samples_cover_table``
#: until it gets one, and then runs through every route below
SAMPLES = {
    "contour": {"values": [0.5, -0.25], "roi": [0, 4, 0, 3, 0, 2]},
    "threshold": {"lower": 0, "upper": 0.75, "wire_codec": "raw"},
    "slice": {"axis": 2, "coordinate": 1.5, "encoding": "ids"},
}


def make_fs():
    """6x5x4 grid with a point array ``p`` and a cell array ``c``."""
    rng = np.random.default_rng(11)
    grid = UniformGrid((6, 5, 4))
    grid.point_data.add(DataArray("p", rng.normal(size=120).astype(np.float32)))
    grid.cell_data.add(DataArray("c", rng.normal(size=60).astype(np.float32)))
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    fs.write_object("g.vgf", write_vgf(grid, codec="gzip"))
    return fs, grid


def connect(server) -> RPCClient:
    return RPCClient(InProcessTransport(server.dispatch))


class CountingTransport(InProcessTransport):
    def __init__(self, dispatch):
        super().__init__(dispatch)
        self.requests = 0

    def request(self, payload):
        self.requests += 1
        return super().request(payload)


class TestTableComplete:
    def test_samples_cover_table(self):
        assert SAMPLES.keys() == SPLIT_FILTERS.keys()

    @pytest.mark.parametrize("kind", SPLIT_FILTERS)
    def test_wire_round_trips(self, kind):
        op = SPLIT_FILTERS[kind]
        args = op.bind(SAMPLES[kind])
        assert [name for name, *_ in op.params] == list(args)
        assert op.bind(op.wire(args)) == args
        assert bind_request(wire_request(op, "p", args), 0) == (op, "p", args)

    @pytest.mark.parametrize("kind", SPLIT_FILTERS)
    def test_every_route_serves_it(self, kind):
        fs, _ = make_fs()
        client = connect(NDPServer(fs))
        op = SPLIT_FILTERS[kind]
        args = op.bind(SAMPLES[kind])
        request = wire_request(op, "p", args)
        direct = client.call(op.method, "g.vgf", "p", *op.wire(args))
        [batched] = client.call("prefilter_batch", "g.vgf", [request])
        assert batched == direct
        expected = op.post(ndp_client.decode_selection(direct), args)
        [(_, prefetched, _)] = NDPPrefetcher(client, [{"key": "g.vgf", **request}])
        assert np.array_equal(prefetched.points, expected.points)
        assert callable(getattr(ndp_client, f"ndp_{kind}"))

    def test_spelled_defaults_are_the_same_request(self):
        op = SPLIT_FILTERS["contour"]
        codec = DEFAULT_WIRE_CODEC
        short = op.bind([[0.5]])
        assert short == op.bind([[0.5], "cell-closure", "auto", codec])
        assert short == op.bind({"values": (0.5,), "roi": None})
        assert op.request_key("k", "a", short) == op.request_key(
            "k", "a", op.bind([0.5, "cell-closure", "auto", codec, None]))
        assert op.bind({"values": 1, "roi": Bounds(0, 1, 0, 1, 0, 1)}) == \
            op.bind([[1.0], "cell-closure", "auto", codec, [0, 1, 0, 1, 0, 1]])

    def test_edge_keys_replies_canonically(self):
        fs, _ = make_fs()
        edge = EdgeCacheServer([InProcessTransport(NDPServer(fs).dispatch)])
        client = connect(edge)
        first = client.call("prefilter_contour", "g.vgf", "p", [0.5])
        again = client.call("prefilter_contour", "g.vgf", "p", [0.5],
                            "cell-closure", "auto", DEFAULT_WIRE_CODEC)
        assert again == first
        info = edge.stats_snapshot()["collected"]["edge"]
        assert (info["hits"], info["misses"]) == (1, 1)

    @pytest.mark.parametrize("given, complaint", [
        ([], "missing field 'values'"),
        ({"values": []}, "field 'values': at least one"),
        (["half"], "field 'values': could not convert"),
        ([[0.5], "edge", "auto", "lz4", [1, 0, 0, 1, 0, 1]], "field 'roi'"),
        ([[0.5], "edge", "auto", "lz4", None, "extra"], "takes at most 5"),
    ])
    def test_bind_names_the_field(self, given, complaint):
        with pytest.raises(RPCError, match=f"prefilter_contour: {complaint}"):
            SPLIT_FILTERS["contour"].bind(given)

    def test_slice_axis_must_be_integral(self):
        with pytest.raises(RPCError, match="field 'axis'"):
            SPLIT_FILTERS["slice"].bind([1.5, 0.0])


MALFORMED = [
    ("nope", "expected a map, got str"),
    ({"kind": "blur", "array": "p"}, "unknown kind 'blur'"),
    ({"kind": ["contour"], "array": "p"}, "unknown kind"),
    ({"kind": "contour", "values": [0.5]}, "field 'array'"),
    ({"kind": "contour", "array": "p"}, "missing field 'values'"),
    ({"kind": "threshold", "array": "p", "lower": "low", "upper": 1},
     "field 'lower': could not convert"),
]


class TestBatchValidatesFirst:
    @pytest.mark.parametrize("entry, complaint", MALFORMED)
    def test_server_rejects_before_any_work(self, entry, complaint):
        fs, _ = make_fs()
        server = NDPServer(fs, cache_bytes=1 << 20,
                           selection_cache_bytes=1 << 20)
        good = {"kind": "contour", "array": "p", "values": [0.5]}
        with pytest.raises(RPCRemoteError,
                           match=f"RPCError: batch request 1: {complaint}"):
            connect(server).call("prefilter_batch", "g.vgf", [good, entry])
        assert server.stats_snapshot()["counters"]["prefilter_calls"] == 0
        assert len(server.array_cache) == len(server.selection_cache) == 0

    @pytest.mark.parametrize("entry, complaint", MALFORMED)
    def test_clients_reject_without_a_round_trip(self, entry, complaint):
        fs, _ = make_fs()
        transport = CountingTransport(NDPServer(fs).dispatch)
        client = RPCClient(transport)
        good = {"key": "g.vgf", "kind": "contour", "array": "p", "values": [0.5]}
        if isinstance(entry, dict):
            entry = {"key": "g.vgf", **entry}
            complaint = f"batch request 1: {complaint}"
        else:  # the prefetcher asks for a keyed map first
            complaint = "request missing 'key'"
        with pytest.raises(ReproError, match=complaint):
            NDPPrefetcher(client, [good, entry])
        assert transport.requests == 0

    def test_batch_must_be_a_list(self):
        fs, _ = make_fs()
        with pytest.raises(RPCRemoteError, match="RPCError: batch requests"):
            connect(NDPServer(fs)).call("prefilter_batch", "g.vgf", "contour")


class TestCellArrays:
    """A cell-associated block is data to the readers and a typed refusal
    to the pre-filters, whichever way the block is sourced."""

    @pytest.mark.parametrize("cache_bytes", [0, 1 << 20])
    def test_readers_serve_the_cell_array(self, cache_bytes):
        fs, grid = make_fs()
        client = connect(NDPServer(fs, cache_bytes=cache_bytes))
        expected = grid.cell_data.get("c").values
        reply = client.call("read_array", "g.vgf", "c")
        got = np.frombuffer(reply["values"], dtype=np.dtype(reply["dtype"]))
        assert np.array_equal(got, expected)
        stats = client.call("array_statistics", "g.vgf", "c", 4)
        assert stats["count"] == 60
        assert stats["min"] == float(expected.min())
        assert sum(stats["histogram_counts"]) == 60
        assert client.call("read_block", "g.vgf", "c")["array"][
            "association"] == "cell"

    @pytest.mark.parametrize("kind", SPLIT_FILTERS)
    @pytest.mark.parametrize("route", ["store", "array-cache", "batch", "edge-local"])
    def test_prefilters_refuse_with_one_read(self, kind, route):
        fs, _ = make_fs()
        opens = []
        real_open = fs.open
        fs.open = lambda key: opens.append(key) or real_open(key)
        op = SPLIT_FILTERS[kind]
        args = op.bind(SAMPLES[kind])
        server = NDPServer(fs, cache_bytes=(1 << 20) * (route == "array-cache"))
        front = server
        if route == "edge-local":
            front = EdgeCacheServer([InProcessTransport(server.dispatch)],
                                    promote_after=1)
        call = ("prefilter_batch", "g.vgf", [wire_request(op, "c", args)]) \
            if route == "batch" else (op.method, "g.vgf", "c", *op.wire(args))
        with pytest.raises(
            RPCRemoteError,
            match=r"FilterError: array 'c' is cell-associated with 1 component",
        ):
            connect(front).call(*call)
        # The edge pulled the block once (read_block) and the upstream,
        # asked to answer, read it once more; everything else reads once.
        assert len(opens) == (2 if route == "edge-local" else 1)
