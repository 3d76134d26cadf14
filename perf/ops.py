"""Client side of one operation: the library call, and its traced twin.

Untraced runs go through the calls a user makes (``ndp_contour`` and
friends, library defaults).  The traced twin calls the pieces those
functions compose, so each piece gets its own span on the real path.
"""

from __future__ import annotations

import inspect
import time

from repro.compression import get_codec
from repro.core.encoding import decode_selection
from repro.core.filter_splits import postfilter_slice, postfilter_threshold
from repro.core.ndp_client import ndp_contour, ndp_slice, ndp_threshold
from repro.core.postfilter import postfilter_contour
from repro.io.ppm import encode_ppm
from repro.render.scene import Scene
from repro.rpc.client import RPCClient
from repro.rpc.transport import TCPTransport, ThrottledTransport, Transport
from repro.storage.netsim import WAN_PROFILES

from perf.spans import Recorder
from perf.workloads import FRAME_SIZE, Op

#: the paper's client<->storage link (63.5 MB/s, 200 us one way), slept for
#: real so that bytes on the wire cost what they cost the paper's users
LINK = WAN_PROFILES["lan"]

# The traced twin must send what the library call sends, whatever the
# library's defaults are at this commit.
_DEFAULTS = inspect.signature(ndp_contour).parameters
CONTOUR_MODE = _DEFAULTS["mode"].default
ENCODING = _DEFAULTS["encoding"].default
WIRE_CODEC = _DEFAULTS["wire_codec"].default


def connect(server, tenant: str | None = None) -> RPCClient:
    """The client stack under test: real TCP plus the link as real sleep."""
    return RPCClient(
        ThrottledTransport(TCPTransport(server.host, server.port), LINK),
        tenant=tenant,
    )


def _render(polydata) -> bytes:
    scene = Scene()
    scene.add_mesh(polydata)
    return encode_ppm(scene.render(*FRAME_SIZE))


def run_op(client: RPCClient, op: Op):
    """Run ``op`` as a user would; returns what ``References.check`` takes."""
    if op.kind == "contour":
        return ndp_contour(client, op.key, op.array, [op.args[0]])[0]
    if op.kind == "frame":
        polydata = ndp_contour(client, op.key, op.array, [op.args[0]])[0]
        return polydata, _render(polydata)
    if op.kind == "threshold":
        return ndp_threshold(client, op.key, op.array, *op.args)[0]
    if op.kind == "slice":
        return ndp_slice(client, op.key, op.array, *op.args)[0]
    if op.kind == "stats":
        return client.call("array_statistics", op.key, op.array)
    if op.kind == "read_block":
        reply = client.call("read_block", op.key, op.array)
        return get_codec(reply["array"]["codec"]).decompress(reply["stored"])
    raise ValueError(f"unknown op kind {op.kind!r}")


# ---------------------------------------------------------------------------
# Traced twin
# ---------------------------------------------------------------------------


class MeteredTransport(Transport):
    """Spans the real socket round trip and counts the bytes both ways."""

    def __init__(self, inner: Transport, recorder: Recorder):
        self._inner = inner
        self._recorder = recorder

    def request(self, payload: bytes) -> bytes:
        with self._recorder.span("rpc.tcp", sent=len(payload)) as span:
            response = self._inner.request(payload)
            span.attrs["received"] = len(response)
        return response

    def close(self) -> None:
        self._inner.close()


def connect_traced(server, recorder: Recorder,
                   tenant: str | None = None) -> RPCClient:
    """Same stack as :func:`connect`, with the link sleep and the socket
    round trip recorded as child spans of the call."""

    def sleep(seconds: float) -> None:
        call = recorder.current  # the open rpc.call span
        with recorder.span("rpc.link", computed=seconds) as link:
            time.sleep(seconds)
        # as slept, not as computed: the overshoot is the user's wait too
        call.attrs["link_seconds"] = (call.attrs.get("link_seconds", 0.0)
                                      + link.duration)

    metered = MeteredTransport(TCPTransport(server.host, server.port), recorder)
    return RPCClient(ThrottledTransport(metered, LINK, sleep=sleep),
                     tenant=tenant)


def _prefilter_call(op: Op) -> tuple:
    """The RPC method and parameters the library call for ``op`` sends."""
    if op.kind == "threshold":
        return "prefilter_threshold", (*op.args, ENCODING, WIRE_CODEC)
    if op.kind == "slice":
        return "prefilter_slice", (*op.args, ENCODING, WIRE_CODEC)
    return "prefilter_contour", ([op.args[0]], CONTOUR_MODE, ENCODING,
                                 WIRE_CODEC)


def run_op_traced(client: RPCClient, op: Op, rec: Recorder):
    """:func:`run_op` with a span around each piece; same return value."""
    with rec.span("request", kind=op.kind):
        if op.kind in ("contour", "frame", "threshold", "slice"):
            method, params = _prefilter_call(op)
            with rec.span("rpc.call", method=method):
                encoded = client.call(method, op.key, op.array, *params)
            with rec.span("core.decode_selection"):
                selection = decode_selection(encoded)
            with rec.span("core.postfilter") as span:
                if op.kind == "threshold":
                    polydata = postfilter_threshold(selection)
                elif op.kind == "slice":
                    polydata = postfilter_slice(selection, *op.args)
                else:
                    polydata = postfilter_contour(selection, [op.args[0]])
                span.attrs["triangles"] = int(polydata.polys.num_cells)
            if op.kind != "frame":
                return polydata
            with rec.span("render.rasterize",
                          triangles=int(polydata.polys.num_cells)):
                scene = Scene()
                scene.add_mesh(polydata)
                image = scene.render(*FRAME_SIZE)
            with rec.span("io.ppm_encode"):
                ppm = encode_ppm(image)
            return polydata, ppm
        if op.kind == "stats":
            with rec.span("rpc.call", method="array_statistics"):
                return client.call("array_statistics", op.key, op.array)
        if op.kind == "read_block":
            with rec.span("rpc.call", method="read_block"):
                reply = client.call("read_block", op.key, op.array)
            with rec.span("compression.client_decode"):
                return get_codec(reply["array"]["codec"]).decompress(
                    reply["stored"])
    raise ValueError(f"unknown op kind {op.kind!r}")
