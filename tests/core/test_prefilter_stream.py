"""A stored block, decoded once, scans exactly as the in-memory grid does.

Every store read takes one path: the checksum-verified stored block
(:func:`~repro.io.vgf.read_vgf_block`) is decoded once by
:meth:`~repro.io.vgf.StoredBlock.grid` and the split filter's kernel runs
on that grid.  The first class holds the stored byte stream to the grid
it was written from across codecs, selection modes, grid shapes (incl.
2-D), dtypes, NaN-bearing fields, rectilinear axes and store chunk
sizes, and holds a decoded size that disagrees with the header to a
``FormatError``.  The second asserts that which source a deployment
serves a block from — the store read, the array cache, a batch memo, an
edge's promoted block — never shows in the reply bytes (CRC included).
"""

import numpy as np
import pytest

from repro.core.encoding import decode_selection
from repro.core.filter_splits import SPLIT_FILTERS, wire_request
from repro.core.ndp_server import NDPServer
from repro.core.prefilter import prefilter_contour
from repro.edge import EdgeCacheServer
from repro.errors import FilterError, FormatError
from repro.filters.contour import contour_grid
from repro.filters.slice import slice_grid
from repro.grid.array import DataArray
from repro.grid.rectilinear import RectilinearGrid
from repro.grid.uniform import UniformGrid
from repro.io.vgf import (
    StoredBlock,
    read_vgf_array,
    read_vgf_block,
    read_vgf_info,
    write_vgf,
)
from repro.rpc import RPCClient, pack
from repro.rpc.transport import InProcessTransport
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import restamp_vgf, threshold_points

VALUES = (-0.5, 0.0, 0.7)


def same_selection(a, b) -> bool:
    """Byte-identical geometry (NaN-safe, unlike PointSelection.__eq__)."""
    return (
        a.dims == b.dims
        and np.array_equal(a.ids, b.ids)
        and a.values.dtype == b.values.dtype
        and a.values.tobytes() == b.values.tobytes()
    )


def make_grid(dims, dtype=np.float32, nan_every=0, seed=0):
    nx, ny, nz = dims
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(nz, ny, nx)).astype(dtype)
    if nan_every:
        f.ravel()[::nan_every] = np.nan
    grid = UniformGrid(dims, (0, 0, 0), (1, 1, 1))
    grid.point_data.add(DataArray("s", f.reshape(-1)))
    return grid, f


def decoded(grid, codec="raw"):
    """``grid`` written as VGF and read back the way every server reads a
    block: the verified stored bytes, decoded once."""
    blob = write_vgf(grid, codec=codec)
    info = read_vgf_info(blob)
    stored, entry = read_vgf_block(blob, "s", info)
    return StoredBlock(info, entry, stored).grid()


def memory_fs(**options):
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    return S3FileSystem(store, "sim", **options)


def with_raw_bytes(blob: bytes, delta: int) -> bytes:
    """VGF ``blob`` whose first array's header ``raw_bytes`` is moved by
    ``delta``, checksums re-stamped: the block itself is untouched."""
    def edit(header):
        header["arrays"][0]["raw_bytes"] += delta
    return restamp_vgf(blob, edit)


class TestStreamEquivalence:
    @pytest.mark.parametrize("dims", [(7, 5, 9), (4, 4, 1), (3, 3, 2),
                                      (16, 16, 16), (1, 6, 6), (2, 2, 2)])
    @pytest.mark.parametrize("mode", ["cell-closure", "edge"])
    @pytest.mark.parametrize("codec_name", ["raw", "gzip"])
    def test_matches_materializing(self, dims, mode, codec_name):
        grid, _ = make_grid(dims, nan_every=37)
        ref = prefilter_contour(grid, "s", VALUES, mode=mode)
        got = prefilter_contour(decoded(grid, codec_name), "s", VALUES, mode=mode)
        assert same_selection(got, ref), (dims, mode, codec_name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_dtype_preserved(self, dtype):
        grid, _ = make_grid((6, 5, 7), dtype=dtype)
        ref = prefilter_contour(grid, "s", [0.1])
        got = prefilter_contour(decoded(grid), "s", [0.1])
        assert got.values.dtype == np.dtype(dtype)
        assert same_selection(got, ref)

    def test_rectilinear_axes_carried(self):
        axes = (np.linspace(0, 1, 6), np.linspace(0, 2, 4),
                np.cumsum(np.random.default_rng(2).random(5)))
        grid = RectilinearGrid(*axes)
        f = np.random.default_rng(2).normal(size=(5, 4, 6)).astype(np.float32)
        grid.point_data.add(DataArray("s", f.reshape(-1)))
        ref = prefilter_contour(grid, "s", [0.1])
        got = prefilter_contour(decoded(grid, "gzip"), "s", [0.1])
        assert got == ref  # full equality, axes included (no NaN here)

    def test_arbitrary_chunk_splits(self):
        # The store hands the block back in chunks that need not align
        # to layers or even to elements.
        grid, _ = make_grid((6, 4, 5), seed=3)
        ref = prefilter_contour(grid, "s", VALUES)
        blob = write_vgf(grid, codec="gzip")
        for step in (1, 7, 13, 64):
            fs = memory_fs(chunk_bytes=step)
            fs.write_object("x.vgf", blob)
            reply = NDPServer(fs).prefilter_contour("x.vgf", "s", list(VALUES))
            assert same_selection(decode_selection(reply), ref), step

    def test_truncated_stream_raises(self):
        """A block that decodes to one element or one byte less than its
        header says is refused by the library reader and the server."""
        self.assert_size_mismatch_refused(deltas=(4, 1))

    def test_oversized_stream_raises(self):
        """... and so is one that decodes to one element or one byte more."""
        self.assert_size_mismatch_refused(deltas=(-4, -1))

    @staticmethod
    def assert_size_mismatch_refused(deltas):
        grid, f = make_grid((6, 4, 5), seed=4)
        assert f.dtype.itemsize == 4
        for codec in ("raw", "gzip"):
            clean = write_vgf(grid, codec=codec)
            for delta in deltas:
                blob = with_raw_bytes(clean, delta)
                said = f.nbytes + delta
                line = f"decoded {f.nbytes} bytes, header says {said}"
                with pytest.raises(FormatError, match=line):
                    read_vgf_array(blob, "s")
                fs = memory_fs()
                fs.write_object("x.vgf", blob)
                with pytest.raises(FormatError, match=line):
                    NDPServer(fs).prefilter_contour("x.vgf", "s", [0.1])

    def test_bad_mode_rejected(self):
        grid, _ = make_grid((4, 4, 4), seed=6)
        with pytest.raises(FilterError):
            prefilter_contour(decoded(grid), "s", [0.1], mode="nope")


#: kind -> what the client sends for it (``mode`` picks the contour variant)
REQUESTS = {
    "cell-closure": ("contour", {"values": VALUES, "mode": "cell-closure"}),
    "edge": ("contour", {"values": VALUES, "mode": "edge"}),
    "threshold": ("threshold", {"lower": -0.25, "upper": 0.5}),
    "slice": ("slice", {"axis": 1, "coordinate": 3.5}),
}
STORE_CODECS = ("raw", "gzip", "lz4")


def _stock(grid, kind, fields):
    if kind == "contour":
        return contour_grid(grid, "s", fields["values"])
    if kind == "threshold":
        return threshold_points(grid, "s", fields["lower"], fields["upper"])
    return slice_grid(grid, fields["axis"], fields["coordinate"], ["s"])


def same_polydata(a, b) -> bool:
    return (
        np.array_equal(a.points, b.points)
        and np.array_equal(a.polys.connectivity, b.polys.connectivity)
        and np.array_equal(a.verts.connectivity, b.verts.connectivity)
        and [(arr.name, arr.values.tobytes()) for arr in a.point_data]
        == [(arr.name, arr.values.tobytes()) for arr in b.point_data]
    )


class TestServerFusedPath:
    """The cache-off store read against every other source a deployment
    can serve the same request from."""

    GRID, _ = make_grid((11, 9, 13), seed=7)

    @pytest.fixture()
    def fs(self):
        store = ObjectStore(MemoryBackend())
        store.create_bucket("sim")
        fs = S3FileSystem(store, "sim")
        for codec in STORE_CODECS:
            fs.write_object(f"x_{codec}.vgf", write_vgf(self.GRID, codec=codec))
        return fs

    def replies(self, fs, key, op, args) -> dict:
        """``source -> reply`` for one bound request."""
        def client(dispatch):
            return RPCClient(InProcessTransport(dispatch))

        params = [key, "s", *op.wire(args)]
        edge = EdgeCacheServer(
            [InProcessTransport(NDPServer(fs).dispatch)], promote_after=1)
        out = {
            "store": client(NDPServer(fs).dispatch).call(op.method, *params),
            "array-cache": client(
                NDPServer(fs, cache_bytes=1 << 20).dispatch
            ).call(op.method, *params),
            "batch": client(NDPServer(fs).dispatch).call(
                "prefilter_batch", key, [wire_request(op, "s", args)])[0],
            "edge-local": client(edge.dispatch).call(op.method, *params),
        }
        assert edge.stats_snapshot()["collected"]["edge"]["local_computes"] == 1
        return out

    @pytest.mark.parametrize("encoding", ["auto", "ids", "bitmap"])
    @pytest.mark.parametrize("codec", STORE_CODECS)
    @pytest.mark.parametrize("request_name", REQUESTS)
    def test_same_bytes(self, fs, request_name, codec, encoding):
        """Every source ships the store read's reply, byte for byte."""
        kind, fields = REQUESTS[request_name]
        op = SPLIT_FILTERS[kind]
        args = op.bind({**fields, "encoding": encoding, "wire_codec": "gzip"})
        replies = self.replies(fs, f"x_{codec}.vgf", op, args)
        reference = replies.pop("store")
        for source, reply in replies.items():
            # Same bytes on the wire, same integrity stamp.
            assert pack(dict(reply)) == pack(dict(reference)), source
            assert reply["crc"] == reference["crc"], source

    @pytest.mark.parametrize("codec", STORE_CODECS)
    @pytest.mark.parametrize("request_name", ["cell-closure", "threshold", "slice"])
    def test_post_matches_stock(self, fs, request_name, codec):
        """Every source, decoded and post-filtered, is the stock filter on
        the full grid ("edge" mode is approximate by design, see
        prefilter.py, so it is not held to this)."""
        kind, fields = REQUESTS[request_name]
        op = SPLIT_FILTERS[kind]
        args = op.bind(fields)
        expected = _stock(self.GRID, kind, fields)
        for source, reply in self.replies(fs, f"x_{codec}.vgf", op, args).items():
            got = op.post(decode_selection(reply), args)
            assert same_polydata(got, expected), source

    def test_fallbacks_still_serve(self, fs):
        """An ROI, both caches and a mixed batch serve on one server."""
        server = NDPServer(fs, cache_bytes=1 << 20,
                           selection_cache_bytes=1 << 20)
        client = RPCClient(InProcessTransport(server.dispatch))
        roi_reply = client.call(
            "prefilter_contour", "x_gzip.vgf", "s", [0.0], "cell-closure",
            "auto", "lz4", [2, 8, 2, 8, 2, 8],
        )
        assert roi_reply["stats"]["selected_points"] > 0
        batch = client.call("prefilter_batch", "x_gzip.vgf", [
            {"kind": "contour", "array": "s", "values": [0.0]},
            {"kind": "threshold", "array": "s", "lower": 0.0, "upper": 1.0},
        ])
        assert len(batch) == 2
