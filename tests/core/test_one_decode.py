"""One decode per store read: same span, same failure, on every route.

A request reaches a stored block by one of four routes — the cache-off
store read, the array cache, a batch memo, or an edge's promoted block
— and every route decodes it through
:meth:`~repro.io.vgf.StoredBlock.grid`.  So the decode happens exactly
once, inside the ``decompress`` span (the time lands in that layer, not
in ``prefilter``), and a corrupt block answers one ``FormatError`` line
whichever route and split filter asked.
"""

import pytest

from repro.compression.gzip_codec import GzipCodec
from repro.core.filter_splits import SPLIT_FILTERS, wire_request
from repro.core.ndp_server import NDPServer
from repro.edge import EdgeCacheServer
from repro.errors import FormatError, RPCRemoteError
from repro.io.vgf import read_vgf_array, read_vgf_info, write_vgf
from repro.obs.trace import Tracer
from repro.rpc import RPCClient
from repro.rpc.transport import InProcessTransport
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_wave_grid, restamp_vgf

FIELDS = {
    "contour": {"values": [0.0, 0.25]},
    "threshold": {"lower": 0.0, "upper": 0.5},
    "slice": {"axis": 0, "coordinate": 4.0},
}
ROUTES = ("cache-off", "array-cache", "batch", "edge-local")


def store(blob: bytes) -> S3FileSystem:
    objects = ObjectStore(MemoryBackend())
    objects.create_bucket("sim")
    fs = S3FileSystem(objects, "sim")
    fs.write_object("w.vgf", blob)
    return fs


def route(name: str, fs, kind: str):
    """``(call, tracer of the process that decodes)`` for one ``kind``
    request on route ``name``."""
    op = SPLIT_FILTERS[kind]
    args = op.bind(FIELDS[kind])
    params = ["w.vgf", "f", *op.wire(args)]
    if name == "edge-local":
        edge = EdgeCacheServer([InProcessTransport(NDPServer(fs).dispatch)],
                               promote_after=1, tracer=Tracer("edge"))
        client = RPCClient(InProcessTransport(edge.dispatch))
        return (lambda: client.call(op.method, *params)), edge.tracer
    server = NDPServer(fs, cache_bytes=1 << 20 if name == "array-cache" else 0,
                       tracer=Tracer("server"))
    client = RPCClient(InProcessTransport(server.dispatch))
    if name == "batch":
        batch = [wire_request(op, "f", args)]
        return (lambda: client.call("prefilter_batch", "w.vgf", batch)), \
            server.tracer
    return (lambda: client.call(op.method, *params)), server.tracer


@pytest.mark.parametrize("route_name", ROUTES)
@pytest.mark.parametrize("kind", SPLIT_FILTERS)
def test_decode_runs_once_inside_the_decompress_span(kind, route_name,
                                                     monkeypatch):
    call, tracer = route(route_name, store(
        write_vgf(make_wave_grid(12), codec="gzip")), kind)
    seen = []
    decompress = GzipCodec.decompress

    def spy(self, data):
        seen.append(getattr(tracer.current_span(), "name", None))
        return decompress(self, data)

    monkeypatch.setattr(GzipCodec, "decompress", spy)
    call()
    assert seen == ["decompress"]


@pytest.fixture(scope="module")
def corrupt():
    """A gzip block with flipped bytes mid-stream under a re-stamped
    checksum, and the error line the library reader gives for it."""
    blob = bytearray(write_vgf(make_wave_grid(12), codec="gzip"))
    info = read_vgf_info(bytes(blob))
    entry = info.array("f")
    mid = info.data_start + entry.offset + entry.stored_bytes // 2
    blob[mid:mid + 4] = bytes(b ^ 0xFF for b in blob[mid:mid + 4])
    blob = restamp_vgf(bytes(blob))
    with pytest.raises(FormatError) as exc:
        read_vgf_array(blob, "f")
    return blob, f"FormatError: {exc.value}"


@pytest.mark.parametrize("route_name", ROUTES)
@pytest.mark.parametrize("kind", SPLIT_FILTERS)
def test_a_corrupt_block_answers_one_error(kind, route_name, corrupt):
    blob, line = corrupt
    assert line.startswith("FormatError: array 'f': corrupt gzip block: ")
    call, _ = route(route_name, store(blob), kind)
    with pytest.raises(RPCRemoteError) as exc:
        call()
    assert exc.value.remote_message == line

