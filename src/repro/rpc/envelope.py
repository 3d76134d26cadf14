"""The wire envelope: frame shapes, ctx keys and the error-line grammar.

Every hop — client, listener, fair queue, RPC server, edge, forwarder,
load generator — builds and reads msgpack-rpc frames through this module
and nowhere else (``docs/ARCHITECTURE.md``, "Wire envelope", has the
tables).  Element 0 of a frame is its type:

* request  ``[0, msgid, method, params]`` plus an optional **ctx** map:
  ``tenant`` (a ``str`` of 1..:data:`MAX_TENANT_LEN` chars, else the
  :data:`DEFAULT_TENANT`), ``deadline`` (seconds left — a duration, so
  clocks never need agreement), ``trace_id`` / ``span_id`` (the caller's
  span), and any other key, which every hop relays untouched
* response ``[1, msgid, error, result]`` plus, for a traced request, the
  server-side span summaries; ``error`` is ``None`` or one line,
  ``ExcType: message``, an overload line ending ``; retry_after=<s>``
* notify   ``[2, method, params]`` — exactly 3 elements, never answered

A request is decoded once per hop: :func:`parse_request` at intake, and
the :class:`Request` travels from there.  :func:`peek` and
:func:`peek_error` read only a frame's prefix (array header, type,
non-negative msgid, then nil or a str), whatever the size of the result,
through the same format table a full decode walks.
"""

from __future__ import annotations

import re
from typing import Any, NamedTuple

from repro.errors import (
    CircuitOpenError,
    DeadlineExpiredError,
    FormatError,
    IntegrityError,
    RPCError,
    RPCRemoteError,
    RPCTimeoutError,
    RPCTransportError,
    ServerOverloadedError,
)
from repro.rpc.msgpack import ARRAY, NIL, SINT, STR, UINT, Unpacker, pack, unpack

#: msgpack-rpc message types — element 0 of every frame payload.
REQUEST = 0
RESPONSE = 1
NOTIFY = 2

DEFAULT_TENANT = "default"
#: Tenant names come off the wire and end up in shed lines, recorder
#: events and stats keys; a longer one is treated like any malformed ctx.
MAX_TENANT_LEN = 64

#: Conditions of the serving site rather than of the request: a client
#: rebuilds the exception from the line's ``ExcType`` (so retry, backoff
#: and fallback react through any number of hops), a proxy never caches it.
TYPED_ERRORS = {
    cls.__name__: cls
    for cls in (ServerOverloadedError, DeadlineExpiredError, IntegrityError,
                CircuitOpenError, RPCTimeoutError, RPCTransportError)
}

_RETRY_AFTER = re.compile(r"retry_after=([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)")


def request(msgid: Any, method: str, params: list, ctx: dict | None = None) -> bytes:
    """Pack a REQUEST; an empty or absent ``ctx`` gives the 4-element form."""
    if ctx:
        return pack([REQUEST, msgid, method, params, ctx])
    return pack([REQUEST, msgid, method, params])


def response(msgid: Any, error: str | None = None, result: Any = None,
             spans: list | None = None) -> bytes:
    """Pack a RESPONSE; ``spans`` (even empty) adds the fifth element."""
    if spans is not None:
        return pack([RESPONSE, msgid, error, result, spans])
    return pack([RESPONSE, msgid, error, result])


def notify(method: str, params: list) -> bytes:
    return pack([NOTIFY, method, params])


class Request(NamedTuple):
    """One decoded REQUEST or NOTIFY frame (``kind`` is ``None`` for bytes
    that are neither).  ``error`` is set when the frame cannot be served:
    the line to answer at msgid 0, or to log for a NOTIFY.  ``ctx`` is the
    fifth element as sent; ``tenant`` and ``deadline`` are what it means.
    """

    kind: int | None
    raw: bytes
    msgid: Any = None
    method: Any = None
    params: Any = None
    ctx: Any = None
    tenant: str = DEFAULT_TENANT
    deadline: float | None = None
    error: str | None = None

    @property
    def trace_ctx(self) -> dict | None:
        """The ctx map when it names a caller span, else ``None``."""
        ctx = self.ctx
        if isinstance(ctx, dict) and ctx.get("trace_id") is not None:
            return ctx
        return None


def _frame_type(message: Any) -> int | None:
    """Element 0 of a decoded frame — an ``int``: ``False`` and ``0.0``
    equal 0 too, and :func:`peek` would never route them."""
    if isinstance(message, list) and message and type(message[0]) is int:
        return message[0]
    return None


def parse_request(payload: bytes) -> Request:
    """Decode one inbound frame.  Never raises: what cannot be served
    comes back with ``error`` set, so dispatch owns the reply."""
    try:
        message = unpack(payload)
    except FormatError as exc:
        return Request(None, payload, error=f"malformed request: {exc}")
    mtype = _frame_type(message)
    if mtype not in (REQUEST, NOTIFY):
        return Request(None, payload, error=f"invalid rpc message: {message!r}")
    if mtype == NOTIFY:
        if len(message) != 3:
            return Request(NOTIFY, payload, error=(
                f"notify frame must have 3 elements, got {len(message)}"))
        return Request(NOTIFY, payload, None, message[1], message[2])
    if len(message) not in (4, 5):
        return Request(None, payload, error=(
            f"request frame must have 4 or 5 elements, got {len(message)}"))
    ctx = message[4] if len(message) == 5 else None
    tenant, deadline = DEFAULT_TENANT, None
    if isinstance(ctx, dict):
        name = ctx.get("tenant")
        if isinstance(name, str) and 0 < len(name) <= MAX_TENANT_LEN:
            tenant = name
        if "deadline" in ctx:
            try:
                deadline = float(ctx["deadline"])
            except (TypeError, ValueError):
                pass
    return Request(REQUEST, payload, message[1], message[2], message[3],
                   ctx, tenant, deadline)


class Response(NamedTuple):
    msgid: Any
    error: Any
    result: Any
    spans: Any = None


def parse_response(payload: bytes, zero_copy: bool = False) -> Response:
    """Decode one RESPONSE frame; :class:`RPCError` when it is not one
    (:class:`FormatError` when it is not msgpack at all)."""
    message = unpack(payload, zero_copy=zero_copy)
    if _frame_type(message) != RESPONSE or len(message) not in (4, 5):
        raise RPCError(f"invalid rpc response: {message!r}")
    return Response(*message[1:])


def with_ctx(payload: bytes, **keys: Any) -> bytes:
    """Splice ctx keys into a packed REQUEST (existing keys keep their
    place, new ones append; a ``deadline`` is clamped at zero).

    Anything that is not a REQUEST with a map (or no) ctx passes through
    untouched: splicing is sugar for wrappers holding pre-packed frames,
    never a reason to fail a send.
    """
    req = parse_request(payload)
    ctx = {} if req.ctx is None else req.ctx
    if req.kind != REQUEST or req.error or not isinstance(ctx, dict):
        return payload
    if "deadline" in keys:
        keys["deadline"] = max(0.0, float(keys["deadline"]))
    return request(req.msgid, req.method, req.params, dict(ctx, **keys))


def _prefix(payload: bytes) -> tuple[int, int | None, Unpacker, int]:
    """``(type, msgid, reader just past them, offset of the msgid)`` from
    the array header on (a NOTIFY's "msgid" is ``None`` at the reader).

    Headers are read the way a full decode reads them, so every array
    width and every int form of a frame type or non-negative msgid that
    :func:`parse_response` would decode is accepted here too.
    """
    try:
        reader = Unpacker(payload, zero_copy=True)  # a view: no copy of the frame
    except TypeError as exc:  # not bytes at all
        raise FormatError("truncated rpc frame prefix") from exc
    if reader.header()[0] is not ARRAY:
        raise FormatError(f"not an rpc frame (first byte 0x{payload[0]:02x})")
    kind, mtype = reader.header()
    if kind not in (UINT, SINT) or mtype not in (REQUEST, RESPONSE, NOTIFY):
        raise FormatError(f"unknown rpc frame type ({kind} {mtype})")
    start = reader.offset
    if mtype == NOTIFY:
        return NOTIFY, None, reader, start
    kind, msgid = reader.header()
    if kind not in (UINT, SINT) or msgid < 0:
        raise FormatError(f"msgid is not a non-negative int ({kind} {msgid})")
    return mtype, msgid, reader, start


def peek(payload: bytes) -> tuple[int, int | None]:
    """``(type, msgid)`` of a packed frame without decoding it.

    This is what lets the demultiplexer route a multi-megabyte
    ``read_array`` reply on its reader thread.  NOTIFY frames have no
    msgid.  Raises :class:`FormatError` for anything that is not an rpc
    frame prefix with a non-negative int msgid.
    """
    return _prefix(payload)[:2]


def swap_msgid(payload: bytes, token: bytes) -> tuple[int, bytes, bytes]:
    """``(type, payload with its msgid's packed bytes replaced by token,
    the bytes that were there)``.

    This is how a client connection owns its correlation ids: each
    request goes out under a fresh wire msgid, and the caller's own msgid
    bytes are spliced back into the reply, which then reads byte for byte
    as if the caller's id had made the trip.  Raises :class:`FormatError`
    for a NOTIFY or anything :func:`peek` rejects.
    """
    mtype, _, reader, start = _prefix(payload)
    if mtype == NOTIFY:
        raise FormatError("a notify frame has no msgid")
    end = reader.offset
    view = memoryview(payload)  # slices of a view: the frame is copied once
    return (mtype, b"".join((view[:start], token, view[end:])),
            bytes(view[start:end]))


def peek_error(payload: bytes) -> str | None:
    """The error line of a packed RESPONSE (``None`` on success), read
    straight off the prefix — the result behind it is never touched.

    Raises :class:`FormatError` when ``payload`` is not a response prefix
    whose error element is nil or a str.
    """
    mtype, _, reader, _ = _prefix(payload)
    if mtype != RESPONSE:
        raise FormatError("not an rpc response prefix")
    start = reader.offset
    kind, _ = reader.header()
    if kind is not NIL and kind is not STR:
        raise FormatError(f"response error is neither nil nor str ({kind})")
    reader.offset = start
    return reader.unpack_one()


def error_line(exc: BaseException) -> str:
    """The stable wire form of a failure: type and message, never the
    traceback."""
    return f"{type(exc).__name__}: {exc}"


def overloaded_line(detail: str, retry_after: float) -> str:
    return f"ServerOverloadedError: {detail}; retry_after={retry_after}"


def parse_error(line: str | None) -> tuple[type | None, float | None]:
    """``(exception class, retry_after)`` for an error line: the class is
    ``None`` unless the line's ``ExcType`` is one of
    :data:`TYPED_ERRORS`; ``retry_after`` only rides overload lines."""
    cls = TYPED_ERRORS.get((line or "").split(":", 1)[0])
    match = _RETRY_AFTER.search(line) if cls is ServerOverloadedError else None
    return cls, float(match.group(1)) if match else None


def raise_remote(method: str, line: str) -> None:
    """Raise the local exception a remote error line stands for: the
    typed ones the resilience layer must *react* to (shed → back off,
    expired → timeout semantics, corruption → re-read, a proxy's dead
    upstream → fallback), :class:`RPCRemoteError` for everything else."""
    cls, retry_after = parse_error(line)
    if cls is None:
        raise RPCRemoteError(method, line)
    if cls is ServerOverloadedError:
        raise cls(f"remote call {method!r} shed: {line}", retry_after=retry_after)
    raise cls(f"remote call {method!r}: {line}")
