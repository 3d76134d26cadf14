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

from repro.errors import CircuitOpenError, FormatError, RPCError, RPCTransportError
from repro.obs.trace import NULL_TRACER
from repro.rpc import envelope

__all__ = ["ForwardingHandler"]

#: Failures that mean "this upstream, right now" rather than "this
#: request": the chain advances instead of reporting them.  Narrower
#: than :data:`repro.errors.FAILOVER_ERRORS` on purpose: a relayed frame
#: is never decoded here, so an integrity failure is the client's to see.
RELAY_ERRORS = (RPCTransportError, CircuitOpenError)


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

    def _relay(self, payload: bytes, one_way: bool = False) -> bytes | None:
        """Try each upstream in turn; raise the last transport error when
        the whole chain fails."""
        last_error = None
        for transport in self.transports:
            try:
                raw = (transport.send(payload) if one_way
                       else transport.request(payload))
                self._count("forwards")
                return raw
            except RELAY_ERRORS as exc:
                self._count("upstream_errors")
                last_error = exc
        raise last_error

    # ------------------------------------------------------------------
    def forward(self, payload: bytes) -> bytes | None:
        """Decode one frame and :meth:`handle` it (in-process fronts; the
        TCP listener decodes at intake and calls :meth:`handle`)."""
        return self.handle(envelope.parse_request(payload))

    def handle(self, req: envelope.Request) -> bytes | None:
        """Relay one frame; returns the raw response (``None`` for NOTIFY).

        Bytes that are not an rpc frame go upstream like any request: the
        terminal server owns the protocol error.

        Raises the last upstream transport error when every upstream in
        the chain fails — the caller turns that into a typed error reply.
        """
        if req.kind == envelope.NOTIFY:
            return self._relay(req.raw, one_way=True)
        trace_ctx = req.trace_ctx if self.tracer else None
        if trace_ctx is None:
            return self._relay(req.raw)
        with self.tracer.activate(
            trace_ctx, "rpc.forward", method=req.method, via=self.via
        ) as span:
            raw = self._relay(req.raw)
        return self._append_span(raw, span)

    # ------------------------------------------------------------------
    def _append_span(self, raw: bytes, span) -> bytes:
        """Graft the proxy's span onto a response's span list."""
        try:
            reply = envelope.parse_response(raw)
        except (FormatError, RPCError):
            return raw
        return envelope.response(reply.msgid, reply.error, reply.result,
                                 list(reply.spans or []) + [span.to_dict()])
