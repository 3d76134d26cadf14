"""rpclib-style RPC client over any :class:`~repro.rpc.transport.Transport`.

Tracing: constructed with a real :class:`~repro.obs.trace.Tracer`, every
:meth:`RPCClient.call` runs inside an ``rpc.call`` span and sends the
span's ids in the request's ctx (:mod:`repro.rpc.envelope`).  A
trace-aware server opens child spans under that context and returns
their summaries with the response, which the client grafts into its own
tracer — one tree across both processes.  With the default
:data:`~repro.obs.trace.NULL_TRACER` the frames are byte-identical to
the plain 4-element protocol, so an untraced client works against any
server, old or new.
"""

from __future__ import annotations

import itertools
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any

from repro.errors import RPCError, RPCTimeoutError
from repro.obs.trace import NULL_TRACER
from repro.rpc import envelope
from repro.rpc.transport import InProcessTransport, TCPTransport, Transport

__all__ = ["RPCClient", "PendingCall"]


class RPCClient:
    """Issues msgpack-rpc calls through a transport.

    Construct with a transport, or use :meth:`connect_tcp` /
    :meth:`in_process` conveniences.  Pass ``tracer`` (a
    :class:`~repro.obs.trace.Tracer`) to record an ``rpc.call`` span per
    call and propagate trace context to the server.
    """

    def __init__(self, transport: Transport, tracer=None, tenant: str | None = None,
                 zero_copy: bool = False):
        self._transport = transport
        self._msgid = itertools.count(1)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: optional fair-queue identity stamped into every request's ctx
        #: map (see :mod:`repro.rpc.fairshare`); ``None`` keeps frames
        #: byte-identical to the classic protocol.
        self.tenant = tenant
        #: decode response bin payloads as :class:`memoryview` slices into
        #: the reply frame (no per-payload copy; ``np.frombuffer`` then
        #: views the frame directly).  Opt-in: callers comparing payloads
        #: with ``isinstance(x, bytes)`` should leave this off.
        self.zero_copy = zero_copy

    @classmethod
    def connect_tcp(cls, host: str, port: int, timeout: float | None = 30.0,
                    tracer=None, tenant: str | None = None) -> "RPCClient":
        """Client over one TCP connection: calls may pipeline.

        Use :meth:`call` as usual (also from many threads at once — each
        caller waits only on its own reply) or :meth:`call_async` to
        pipeline from a single thread.
        """
        return cls(TCPTransport(host, port, timeout=timeout), tracer=tracer,
                   tenant=tenant)

    @classmethod
    def in_process(cls, server, tracer=None) -> "RPCClient":
        """Client wired straight to an :class:`~repro.rpc.server.RPCServer`."""
        return cls(InProcessTransport(server.dispatch), tracer=tracer)

    # ------------------------------------------------------------------
    def _ctx(self, ctx_extra: dict | None) -> dict:
        """The ctx map one call sends: the active span, the tenant, then
        the caller's extras; empty means a classic 4-element frame."""
        ctx = dict(self.tracer.inject() or {})
        if self.tenant:
            ctx["tenant"] = self.tenant
        if ctx_extra:
            ctx.update(ctx_extra)
        return ctx

    def call(self, method: str, *params: Any, ctx_extra: dict | None = None) -> Any:
        """Invoke a remote method and return its result.

        ``ctx_extra`` merges additional keys into the request's optional
        ctx map (the replication layer tags hedge/failover attempts this
        way so servers can count them).  ``None`` — the default — leaves
        frames byte-identical to the classic protocol.

        Raises
        ------
        RPCRemoteError
            If the remote handler raised; carries the remote error line
            (``ExcType: message`` — the server keeps the traceback).
        RPCError
            On protocol violations (bad frame shape, msgid mismatch).
        """
        with self.tracer.span("rpc.call", method=method) as span:
            msgid = next(self._msgid)
            raw = self._transport.request(envelope.request(
                msgid, method, list(params), self._ctx(ctx_extra)))
            return self._decode(raw, msgid, method, anchor=span)

    def call_async(self, method: str, *params: Any,
                   ctx_extra: dict | None = None) -> "PendingCall":
        """Pipeline a call: returns a :class:`PendingCall` immediately.

        Over a multiplexing transport (one with ``submit``) the request
        is written and the caller is free to issue more before collecting
        any result — responses are rehydrated by correlation id whatever
        order the server returns them in.  Over a plain blocking
        transport the call degrades gracefully: it completes synchronously
        and the :class:`PendingCall` is born resolved, so calling code
        does not need to know which transport it got.

        The ctx map carries the same keys :meth:`call` would send: the
        active trace context (so a handler that re-forwards work while
        pipelining keeps the span tree connected — async calls used to
        drop it), the tenant, and any ``ctx_extra`` overrides.
        """
        msgid = next(self._msgid)
        payload = envelope.request(
            msgid, method, list(params), self._ctx(ctx_extra))
        submit = getattr(self._transport, "submit", None)
        if submit is not None:
            future = submit(payload)
        else:
            future = Future()
            try:
                future.set_result(self._transport.request(payload))
            except Exception as exc:
                future.set_exception(exc)
        return PendingCall(self, msgid, method, future)

    def _decode(self, raw: bytes, msgid: int, method: str, anchor=None) -> Any:
        reply = envelope.parse_response(raw, zero_copy=self.zero_copy)
        if reply.msgid != msgid:
            raise RPCError(
                f"response msgid {reply.msgid} != request msgid {msgid}")
        if reply.spans is not None and anchor is not None:
            # The server's span summaries ride back as the 5th element.
            self.tracer.adopt(reply.spans, anchor=anchor)
        if reply.error is not None:
            envelope.raise_remote(method, str(reply.error))
        return reply.result

    def pipeline(self, calls: list) -> list:
        """Issue ``[(method, *params), ...]`` back-to-back, gather in order.

        All requests go out before any result is awaited, so over a
        multiplexed transport N calls cost roughly one round trip plus
        server time instead of N round trips.
        """
        pending = [self.call_async(call[0], *call[1:]) for call in calls]
        return [p.result() for p in pending]

    def notify(self, method: str, *params: Any) -> None:
        """Fire-and-forget call: per msgpack-rpc, no response frame exists."""
        self._transport.send(envelope.notify(method, list(params)))

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "RPCClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PendingCall:
    """A pipelined call in flight; :meth:`result` blocks for *this* reply.

    Results are rehydrated by correlation id, so pending calls may be
    collected in any order regardless of the order responses arrived.
    """

    __slots__ = ("_client", "msgid", "method", "_future")

    def __init__(self, client: RPCClient, msgid: int, method: str, future: Future):
        self._client = client
        self.msgid = msgid
        self.method = method
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None) -> Any:
        """Decoded result of this call; raises what :meth:`RPCClient.call`
        would have raised for the same reply."""
        try:
            raw = self._future.result(timeout=timeout)
        except FutureTimeoutError:
            raise RPCTimeoutError(
                f"no response for pipelined call {self.method!r} "
                f"(msgid {self.msgid}) within {timeout}s"
            ) from None
        return self._client._decode(raw, self.msgid, self.method)
