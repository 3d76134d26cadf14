"""rpclib-style RPC server: register functions, dispatch msgpack-rpc frames.

Frames, ctx keys and error lines are :mod:`repro.rpc.envelope`'s: untraced
clients send plain 4-element frames and always get 4-element responses —
the classic protocol is the zero-trace special case — and a ctx map that
names no caller span (tenant- or deadline-only) likewise gets one.

Survivability: admission — bounding concurrency, queueing and shedding —
is the listener's :class:`~repro.rpc.fairshare.FairScheduler`'s; this
class runs whatever it dispatches.  A request whose propagated deadline
has already expired (queue wait included) is rejected before its handler
runs (``DeadlineExpiredError``).  While a deadline-carrying handler runs,
the budget is active as a thread-local
:class:`~repro.rpc.admission.DeadlineScope`, so long handlers can abandon
doomed work between phases via ``check_deadline``.

Error contract: handler exceptions cross the wire as the stable
``ExcType: message`` line only.  The full server-side traceback never
leaves the process — it goes to the ``on_error`` hook (default: the
``repro.rpc.server`` logger), so operators keep the detail without
leaking internals (paths, line numbers, local state) to remote clients.
"""

from __future__ import annotations

import contextlib
import logging
import time
import traceback
from typing import Any, Callable

from repro.errors import DeadlineExpiredError, RPCError
from repro.obs.flightrec import NULL_RECORDER
from repro.obs.metrics import Counter
from repro.obs.trace import NULL_TRACER
from repro.rpc import envelope
from repro.rpc.admission import DeadlineScope
from repro.rpc.mux import AsyncServerTransport

__all__ = ["RPCServer"]

_log = logging.getLogger("repro.rpc.server")


class RPCServer:
    """Holds a function registry and turns request frames into responses.

    Use :meth:`bind` to register handlers (or pass a dict), then either

    * hand :meth:`dispatch` to an :class:`~repro.rpc.transport.InProcessTransport`, or
    * call :meth:`serve_tcp` to listen on a socket.

    Parameters
    ----------
    handlers:
        Optional initial ``{name: callable}`` registry.
    on_error:
        Server-side sink for handler failures, called as
        ``on_error(method, exc, traceback_text)``.  Defaults to logging
        on the ``repro.rpc.server`` logger.  Hook failures are swallowed:
        observability must never take down the dispatch thread.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When a request frame
        carries trace context, dispatch runs inside an ``rpc.dispatch``
        span parented under the remote caller, and every span the handler
        produced is shipped back in the response's fifth element.
    clock:
        Monotonic clock used for deadline scopes (tests inject a fake).
    recorder:
        Optional :class:`~repro.obs.flightrec.FlightRecorder`; every
        dispatched request records begin/end (or error/expired)
        events with its tenant, so the last seconds of traffic are
        always reconstructable.  Defaults to the inert null recorder.
    slo:
        Optional :class:`~repro.obs.slo.SLOEngine`; every finished
        request feeds its tenant's latency/error windows (the fair queue
        feeds it the sheds).
    ctx_counters:
        Optional ``{ctx_key: zero-arg callable}`` map.  When a REQUEST
        frame's ctx map carries one of these keys with a truthy value,
        the callable fires before dispatch — how replica-aware clients'
        ``hedge``/``failover`` attempt tags become server-side counters
        without widening any handler signature.
    """

    def __init__(
        self,
        handlers: dict[str, Callable[..., Any]] | None = None,
        on_error: Callable[[str, BaseException, str], None] | None = None,
        tracer=None,
        clock: Callable[[], float] = time.monotonic,
        recorder=None,
        slo=None,
        ctx_counters: dict[str, Callable[[], Any]] | None = None,
    ):
        self._handlers: dict[str, Callable[..., Any]] = {}
        self._on_error = on_error
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.slo = slo
        #: requests refused or abandoned because their deadline ran out
        self.expired = Counter("expired")
        self.ctx_counters = dict(ctx_counters or {})
        if handlers:
            for name, fn in handlers.items():
                self.bind(name, fn)

    def bind(self, name: str, fn: Callable[..., Any]) -> None:
        """Register ``fn`` under ``name`` (rpclib's ``srv.bind``)."""
        if not callable(fn):
            raise RPCError(f"handler for {name!r} is not callable")
        if name in self._handlers:
            raise RPCError(f"handler {name!r} already bound")
        self._handlers[name] = fn

    def handlers(self) -> list[str]:
        return sorted(self._handlers)

    # ------------------------------------------------------------------
    def dispatch(self, payload: bytes) -> bytes | None:
        """Decode one frame and :meth:`handle` it (in-process transports;
        the TCP listener decodes at intake and calls :meth:`handle`)."""
        return self.handle(envelope.parse_request(payload))

    def handle(self, req: envelope.Request) -> bytes | None:
        """Invoke the handler for one decoded frame, encode the response.

        Returns ``None`` for NOTIFY frames — per msgpack-rpc a
        notification produces *no* response frame, and transports must
        not write one.  Malformed NOTIFY frames (wrong element count)
        are reported to the error hook and dropped instead of killing
        the worker thread; any other malformed frame is answered at
        msgid 0.
        """
        if req.error is not None:
            if req.kind != envelope.NOTIFY:
                return envelope.response(0, req.error)
            self._report_error("<notify>", RPCError(req.error), req.error)
            return None
        if req.kind == envelope.NOTIFY:
            self._invoke(req.method, req.params)
            return None

        if isinstance(req.ctx, dict):
            for flag, count in self.ctx_counters.items():
                if req.ctx.get(flag):
                    with contextlib.suppress(Exception):
                        count()
        method_name = req.method if isinstance(req.method, str) else repr(req.method)
        if self.recorder:
            self.recorder.record(
                "request.begin", method=method_name, msgid=req.msgid,
                tenant=req.tenant,
            )
        t0 = time.perf_counter()
        error, payload = self._respond(req, method_name)
        latency = time.perf_counter() - t0
        expired = envelope.parse_error(error)[0] is DeadlineExpiredError
        if expired:
            self.expired.inc()
        if self.recorder:
            if error is None:
                self.recorder.record(
                    "request.end", method=method_name, msgid=req.msgid,
                    tenant=req.tenant, latency=latency,
                )
            else:
                self.recorder.record(
                    "deadline.expired" if expired else "request.error",
                    method=method_name, msgid=req.msgid, tenant=req.tenant,
                    latency=latency, error=error,
                )
        if self.slo is not None:
            self.slo.observe(req.tenant, latency, error=error is not None)
        return payload

    def _respond(
        self, req: envelope.Request, method_name: str
    ) -> tuple[str | None, bytes]:
        """Run one admitted request: deadline scope, trace capture, invoke."""
        budget = req.deadline
        if budget is not None and budget <= 0:
            error = envelope.error_line(DeadlineExpiredError(
                "request deadline already expired on arrival "
                f"(budget {budget:.3f}s); nothing attempted"))
            return error, envelope.response(req.msgid, error)
        scope = (
            DeadlineScope(budget, clock=self._clock)
            if budget is not None
            else contextlib.nullcontext()
        )
        # Only a request that names its caller's span is traced: tenant-
        # or deadline-only ctx stays on the classic 4-element path —
        # those clients aren't opted into spans.
        trace_ctx = req.trace_ctx if self.tracer else None
        with scope:
            if trace_ctx is None:
                error, result = self._invoke(req.method, req.params)
                return error, envelope.response(req.msgid, error, result)
            with self.tracer.collect() as captured:
                with self.tracer.activate(
                    trace_ctx, "rpc.dispatch", method=method_name,
                ) as dispatch_span:
                    error, result = self._invoke(req.method, req.params)
                    if error is not None:
                        # _invoke swallows handler exceptions into the error
                        # string; mirror it onto the span so the trace shows
                        # the failing dispatch, not a clean one.
                        dispatch_span.error = str(error)
        spans = [span.to_dict() for span in captured.spans]
        return error, envelope.response(req.msgid, error, result, spans)

    def _invoke(self, method: Any, params: Any) -> tuple[str | None, Any]:
        if not isinstance(method, str) or method not in self._handlers:
            return (f"no such method: {method!r}", None)
        if not isinstance(params, list):
            return (f"params must be an array, got {type(params).__name__}", None)
        try:
            return (None, self._handlers[method](*params))
        except Exception as exc:
            self._report_error(method, exc, traceback.format_exc(limit=8))
            return (envelope.error_line(exc), None)

    def _report_error(self, method: str, exc: BaseException, tb_text: str) -> None:
        if self._on_error is not None:
            try:
                self._on_error(method, exc, tb_text)
            except Exception:
                _log.exception("rpc on_error hook failed for %r", method)
            return
        _log.error("handler %r raised:\n%s", method, tb_text)

    # ------------------------------------------------------------------
    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0,
                  workers: int = 8, scheduler=None,
                  max_connections: int | None = None) -> AsyncServerTransport:
        """Start the TCP listener feeding :meth:`handle`; returns it started.

        One I/O thread owns every connection and ``workers`` threads run
        dispatch (or pass a configured
        :class:`~repro.rpc.fairshare.FairScheduler` for per-tenant fair
        queuing); requests pipelined on one connection overlap.
        """
        return AsyncServerTransport(
            self.handle, host=host, port=port, workers=workers,
            scheduler=scheduler, max_connections=max_connections,
        ).start()
