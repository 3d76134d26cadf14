"""Every split filter leaves the same trail, whichever source served it.

One serving path means one phase vocabulary: a request that reads the
store records ``store.read``, ``decompress``, ``prefilter``, ``encode``
in the flight ring and opens spans of the same names; a request served
from the array cache or a batch memo honestly skips the first two.  The
hand-kept endpoint copies had drifted (threshold and slice never
recorded ``prefilter``; the streamed contour never recorded
``decompress``).
"""

import pytest

from repro.core.filter_splits import SPLIT_FILTERS, wire_request
from repro.core.ndp_server import NDPServer
from repro.io import write_vgf
from repro.obs.flightrec import FlightRecorder
from repro.obs.trace import Tracer
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_wave_grid

READ = ["store.read", "decompress", "prefilter", "encode"]
HIT = ["prefilter", "encode"]
FIELDS = {
    "contour": {"values": [0.0]},
    "threshold": {"lower": 0.0, "upper": 0.5},
    "slice": {"axis": 0, "coordinate": 4.0},
}
#: a second request on the same block that no reply cache could answer
OTHER = {
    "contour": {"values": [0.25]},
    "threshold": {"lower": -0.5, "upper": 0.0},
    "slice": {"axis": 1, "coordinate": 2.0},
}


def serve(cache_bytes=0):
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    fs.write_object("w.vgf", write_vgf(make_wave_grid(12), codec="gzip"))
    server = NDPServer(fs, cache_bytes=cache_bytes, tracer=Tracer("server"),
                       flight_recorder=FlightRecorder(process="server"),
                       profiler=None)
    return server


def trail(server, call):
    """``(ring phase names, span names)`` of one call, in order."""
    before = len(server.recorder.snapshot())
    server.tracer.drain()
    call()
    phases = [e["name"] for e in server.recorder.snapshot()[before:]
              if e["kind"] == "phase"]
    spans = [s.name for s in server.tracer.drain()]
    return phases, spans


def test_fields_cover_table():
    assert FIELDS.keys() == OTHER.keys() == SPLIT_FILTERS.keys()


@pytest.mark.parametrize("kind", SPLIT_FILTERS)
class TestPhaseParity:
    def call(self, server, kind, fields):
        op = SPLIT_FILTERS[kind]
        return lambda: getattr(server, op.method)(
            "w.vgf", "f", *op.wire(op.bind(fields)))

    def test_cache_off(self, kind):
        # Cache off, every kind decodes the block once: same trail.
        server = serve()
        assert trail(server, self.call(server, kind, FIELDS[kind])) == (READ, READ)

    def test_cache_off_materialized(self, kind):
        # An ROI (where the filter takes one) forces the whole-grid decode.
        server = serve()
        roi = {"roi": [0.5, 6.0, -1.0, 8.0, 2.0, 9.0]} if kind == "contour" else {}
        call = self.call(server, kind, {**FIELDS[kind], **roi})
        assert trail(server, call) == (READ, READ)

    def test_array_cache_miss_then_hit(self, kind):
        server = serve(cache_bytes=1 << 20)
        assert trail(server, self.call(server, kind, FIELDS[kind])) == (READ, READ)
        assert trail(server, self.call(server, kind, OTHER[kind])) == (HIT, HIT)

    def test_batch_memo(self, kind):
        server = serve()
        op = SPLIT_FILTERS[kind]
        batch = [wire_request(op, "f", op.bind(fields))
                 for fields in (FIELDS[kind], OTHER[kind])]
        assert trail(server, lambda: server.prefilter_batch("w.vgf", batch)) == (
            READ + HIT, READ + HIT)
