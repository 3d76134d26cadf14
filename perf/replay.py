"""The server half of one request, replayed in-process, one span per layer.

The server's own ``store.read`` span folds the real decode into the read and
its ``decompress`` span carries only the modelled charge, so the traced run
replays each request here through the public functions the server composes.
The result is cost-per-call *as if every cache missed*; how often each layer
really ran comes from the ``stats`` counters (see ``layers.py``).

Two spans cover a whole call of which only the difference is the layer's
own: ``compression.wire_encode`` is ``encode_selection`` with the wire codec
(``core.encode`` is the same call with ``"raw"``), and
``compression.wire_decode`` is ``decode_selection`` of the compressed reply
(``core.decode`` of the raw one).
"""

from __future__ import annotations

import numpy as np

from repro.compression import get_codec
from repro.core.encoding import (
    attach_checksum,
    decode_selection,
    encode_selection,
    wire_size,
)
from repro.core.filter_splits import prefilter_slice, prefilter_threshold
from repro.core.prefilter import prefilter_contour
from repro.grid.array import DataArray
from repro.io.checksum import checksum
from repro.io.vgf import read_vgf_block, read_vgf_info
from repro.rpc.msgpack import pack, unpack

from perf.ops import CONTOUR_MODE, ENCODING, WIRE_CODEC
from perf.spans import Recorder
from perf.workloads import Op

#: spans that stand for work the server does inside its handler
HANDLER_SPANS = ("storage.read", "io.checksum", "compression.store_decode",
                 "core.scan", "compression.wire_encode", "core.checksum")


def _scan(grid, op: Op):
    if op.kind == "threshold":
        return prefilter_threshold(grid, op.array, *op.args)
    if op.kind == "slice":
        return prefilter_slice(grid, op.array, *op.args)
    return prefilter_contour(grid, op.array, [op.args[0]], mode=CONTOUR_MODE)


def replay(op: Op, fs, rec: Recorder) -> None:
    with rec.span("replay", kind=op.kind):
        with rec.span("storage.read") as span:
            with fs.open(op.key) as fh:
                info = read_vgf_info(fh)
                stored, entry = read_vgf_block(fh, op.array, info, verify=False)
            span.attrs["bytes"] = entry.stored_bytes
        with rec.span("io.checksum", bytes=entry.stored_bytes):
            checksum(stored)
        if op.kind == "read_block":
            _envelope(rec, {"array": {"codec": entry.codec}, "stored": stored})
            return
        with rec.span("compression.store_decode", codec=entry.codec,
                      bytes=entry.raw_bytes):
            payload = get_codec(entry.codec).decompress(stored)
        if op.kind == "stats":
            return
        grid = info.make_grid()
        grid.point_data.add(DataArray(
            entry.name, np.frombuffer(payload, dtype=np.dtype(entry.dtype)),
            components=entry.components))
        with rec.span("core.scan", bytes=entry.raw_bytes) as span:
            selection = _scan(grid, op)
            span.attrs.update(selected=int(selection.count),
                              total=int(selection.total_points))
        with rec.span("core.encode"):
            raw = encode_selection(selection, ENCODING, "raw")
        with rec.span("compression.wire_encode") as span:
            wire = encode_selection(selection, ENCODING, WIRE_CODEC)
            span.attrs.update(raw_size=wire_size(raw), wire_size=wire_size(wire))
        with rec.span("core.checksum"):
            wire = attach_checksum(wire)
        raw_reply = unpack(pack([1, 1, None, attach_checksum(raw)]))[3]
        with rec.span("core.decode"):
            decode_selection(raw_reply)
        reply = _envelope(rec, wire)
        with rec.span("compression.wire_decode"):
            decode_selection(reply)


def _envelope(rec: Recorder, result: dict) -> dict:
    """msgpack the reply frame and take it apart again, as both ends do."""
    with rec.span("rpc.pack"):
        frame = pack([1, 1, None, result])
    with rec.span("rpc.unpack"):
        return unpack(frame)[3]
