"""Frame-level request forwarding: the proxy primitive behind the edge tier.

A proxy that unpacked each request, re-issued it through its own
:class:`~repro.rpc.client.RPCClient`, and re-encoded the reply would burn
CPU on every hop and — worse — could subtly reorder dict keys or rewrite
ctx maps, breaking the byte-identity contract the edge cache promises.
:class:`ForwardingHandler` instead relays the *original frame bytes*
upstream and the *original response bytes* back, so an untraced request
observed by the storage server — and the reply observed by the client —
is bit-for-bit what a direct connection would have carried.  The request
ctx (tenant, deadline, trace, and any future key) rides through without
mutation because the proxy never touches it.

Traced requests take the one deliberate exception: the proxy opens its
own span (tagged ``via``) under the client's context and appends it to
the reply's span list, so a merged trace shows edge time and upstream
time as separate children of the same ``rpc.call`` — requests are still
forwarded verbatim; only the *reply's* optional 5th element grows.

Multiple upstreams form a failover chain: transport-level failures
(connection refused/reset, timeouts, open breakers) advance to the next
upstream; remote *handler* errors are a property of the request, travel
back on the error channel, and are never retried here.
"""

from __future__ import annotations

from repro.errors import CircuitOpenError, RPCError, RPCTransportError
from repro.obs.trace import NULL_TRACER
from repro.rpc.msgpack import pack, unpack
from repro.rpc.transport import NOTIFY, REQUEST, RESPONSE

__all__ = ["ForwardingHandler", "classify_frame"]

#: Failures that mean "this upstream, right now" rather than "this
#: request": the chain advances instead of reporting them.
FAILOVER_ERRORS = (RPCTransportError, CircuitOpenError)


def classify_frame(payload: bytes):
    """(kind, msgid, method, params, ctx, message) for one request frame.

    ``kind`` is ``"request"``, ``"notify"``, or ``"other"`` (malformed or
    unexpected frames — let the local server produce its usual protocol
    error).  ``ctx`` is the optional 5th-element dict, ``None`` when the
    frame is classic 4-element.
    """
    try:
        message = unpack(payload)
    except Exception:
        return ("other", None, None, None, None, None)
    if not isinstance(message, list) or not message:
        return ("other", None, None, None, None, message)
    if message[0] == NOTIFY and len(message) == 3:
        return ("notify", None, message[1], message[2], None, message)
    if message[0] == REQUEST and len(message) in (4, 5):
        ctx = message[4] if len(message) == 5 else None
        if ctx is not None and not isinstance(ctx, dict):
            return ("other", None, None, None, None, message)
        return ("request", message[1], message[2], message[3], ctx, message)
    return ("other", None, None, None, None, message)


class ForwardingHandler:
    """Relays raw request frames across a ranked chain of upstreams.

    Parameters
    ----------
    transports:
        Transport-likes in preference order; each must expose
        ``request(payload) -> bytes`` (and ``send`` for NOTIFY frames).
    tracer:
        Edge-side tracer.  With the default NULL_TRACER every forward is
        a pure byte relay; with a real tracer, *traced* requests gain the
        ``via``-tagged proxy span described in the module docstring.
    via:
        Value of the span's ``via`` attribute (``"edge"`` for the edge
        cache tier).
    counters:
        Optional dict of metric counters; ``forwards`` and
        ``upstream_errors`` are incremented when present.
    """

    def __init__(self, transports, tracer=None, via: str = "edge",
                 counters: dict | None = None):
        if not transports:
            raise RPCError("ForwardingHandler needs at least one upstream")
        self.transports = list(transports)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.via = via
        self._counters = counters or {}

    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        counter = self._counters.get(name)
        if counter is not None:
            counter.inc()

    def _request_upstream(self, payload: bytes) -> bytes:
        last_error = None
        for transport in self.transports:
            try:
                raw = transport.request(payload)
                self._count("forwards")
                return raw
            except FAILOVER_ERRORS as exc:
                self._count("upstream_errors")
                last_error = exc
        raise last_error

    # ------------------------------------------------------------------
    def forward(self, payload: bytes, message=None) -> bytes | None:
        """Relay one frame; returns the raw response (``None`` for NOTIFY).

        ``message`` is the already-unpacked frame when the caller has it
        (the edge dispatcher classifies frames anyway); passing it skips a
        second decode.

        Raises the last upstream transport error when every upstream in
        the chain fails — the caller turns that into a typed error reply.
        """
        if message is None:
            kind, _msgid, _method, _params, ctx, message = classify_frame(payload)
        else:
            ctx = message[4] if len(message) == 5 else None
            kind = "notify" if message[0] == NOTIFY else "request"
        if kind == "notify":
            last_error = None
            for transport in self.transports:
                try:
                    transport.send(payload)
                    self._count("forwards")
                    return None
                except FAILOVER_ERRORS as exc:
                    self._count("upstream_errors")
                    last_error = exc
            raise last_error
        traced = (
            bool(self.tracer)
            and isinstance(ctx, dict)
            and ctx.get("trace_id") is not None
        )
        if not traced:
            return self._request_upstream(payload)
        method = message[2] if isinstance(message, list) and len(message) > 2 else None
        with self.tracer.activate(
            ctx, "rpc.forward", method=method, via=self.via
        ) as span:
            raw = self._request_upstream(payload)
        return self._append_span(raw, span)

    # ------------------------------------------------------------------
    def _append_span(self, raw: bytes, span) -> bytes:
        """Graft the proxy's span onto a response's span list."""
        span_dict = getattr(span, "to_dict", lambda: None)()
        if span_dict is None:
            return raw
        try:
            response = unpack(raw)
        except Exception:
            return raw
        if (
            not isinstance(response, list)
            or len(response) not in (4, 5)
            or response[0] != RESPONSE
        ):
            return raw
        spans = list(response[4]) if len(response) == 5 else []
        spans.append(span_dict)
        return pack([response[0], response[1], response[2], response[3], spans])
