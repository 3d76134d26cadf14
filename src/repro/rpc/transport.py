"""RPC transports: in-process, TCP, and simulated.

A *client transport* exposes one blocking primitive,
:meth:`Transport.request`, mapping a request payload to a response payload.
Three implementations cover the library's needs:

* :class:`InProcessTransport` — calls a dispatcher directly; deterministic
  and dependency-free, used by tests and the benchmark harness,
* :class:`TCPTransport` — a real socket with length-prefixed frames,
  proving the protocol works across processes (the listener it talks to
  is :class:`repro.rpc.mux.AsyncServerTransport`),
* :class:`SimulatedTransport` — wraps another transport and charges every
  byte crossing it to a simulated network link (see
  :mod:`repro.storage.netsim`), which is how benchmarks account for the
  paper's 1 GbE client-storage hop without owning two machines.

Frame format on the wire: ``uint32 BE payload length | payload``, where
the payload is one msgpack-rpc message (see :mod:`repro.rpc.envelope`).
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from abc import ABC, abstractmethod
from typing import Callable

from repro.errors import RPCTimeoutError, RPCTransportError

__all__ = [
    "Transport",
    "InProcessTransport",
    "TCPTransport",
    "SimulatedTransport",
    "ThrottledTransport",
    "FrameBuffer",
    "encode_frame",
    "read_frame",
    "write_frame",
]

_LEN = struct.Struct(">I")
#: Upper bound on a single frame; guards against garbage length prefixes.
MAX_FRAME = 1 << 31


def encode_frame(payload: bytes) -> bytes:
    """Length-prefix one payload, refusing what no peer could read back."""
    if len(payload) >= MAX_FRAME:
        raise RPCTransportError(f"frame of {len(payload)} bytes exceeds MAX_FRAME")
    return _LEN.pack(len(payload)) + payload


def write_frame(sock: socket.socket, payload: bytes) -> None:
    """Send one length-prefixed frame."""
    sock.sendall(encode_frame(payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise RPCTransportError(
                f"connection closed mid-frame ({remaining} of {n} bytes missing)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> bytes:
    """Receive one length-prefixed frame."""
    header = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    if length >= MAX_FRAME:
        raise RPCTransportError(f"frame length {length} exceeds MAX_FRAME")
    return _recv_exact(sock, length)


class FrameBuffer:
    """Incremental parser for the ``uint32 BE length | payload`` framing.

    The event-loop server reads whatever the kernel has and feeds it
    here; :meth:`drain` yields every frame that is complete so far and
    keeps the partial tail for the next :meth:`feed`.  A length prefix at
    or beyond :data:`MAX_FRAME` raises
    :class:`~repro.errors.RPCTransportError` — the stream is garbage and
    the connection must be dropped.
    """

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf += data

    def __len__(self) -> int:
        return len(self._buf)

    def drain(self):
        """Yield complete frame payloads accumulated so far."""
        offset = 0
        buf = self._buf
        while len(buf) - offset >= _LEN.size:
            (length,) = _LEN.unpack_from(buf, offset)
            if length >= MAX_FRAME:
                raise RPCTransportError(
                    f"frame length {length} exceeds MAX_FRAME"
                )
            if len(buf) - offset - _LEN.size < length:
                break
            start = offset + _LEN.size
            yield bytes(buf[start : start + length])
            offset = start + length
        if offset:
            del buf[:offset]


class Transport(ABC):
    """Blocking request/response client transport."""

    @abstractmethod
    def request(self, payload: bytes) -> bytes:
        """Send ``payload``; block until the response payload arrives."""

    def send(self, payload: bytes) -> None:
        """One-way send, for NOTIFY frames that get no response.

        The base implementation delegates to :meth:`request` and discards
        the result; transports that would block waiting for a reply that
        never comes (TCP) must override this with a pure write.
        """
        self.request(payload)

    def close(self) -> None:
        """Release transport resources (no-op by default)."""


class InProcessTransport(Transport):
    """Directly invokes a server dispatcher: zero-copy, single-process."""

    def __init__(self, dispatcher: Callable[[bytes], bytes]):
        self._dispatcher = dispatcher

    def request(self, payload: bytes) -> bytes:
        return self._dispatcher(bytes(payload))


class SimulatedTransport(Transport):
    """Wraps a transport, charging traffic to a simulated network link.

    Parameters
    ----------
    inner:
        The transport that actually moves the payload (usually in-process).
    link:
        Any object with ``charge(nbytes)`` — in practice a
        :class:`repro.storage.netsim.LinkModel` bound to a
        :class:`repro.storage.netsim.SimClock`.  Both request and response
        bytes are charged, like the paper's client<->storage hop.
    response_link:
        Optional second link for the server→client direction.  WAN hops
        are asymmetric (see :data:`repro.storage.netsim.WAN_PROFILES`);
        when given, requests charge ``link`` and responses charge
        ``response_link``, each paying its own one-way latency.
    """

    def __init__(self, inner: Transport, link, response_link=None):
        self._inner = inner
        self._link = link
        self._response_link = response_link if response_link is not None else link

    def request(self, payload: bytes) -> bytes:
        self._link.charge(len(payload))
        response = self._inner.request(payload)
        self._response_link.charge(len(response) if response is not None else 0)
        return response

    def send(self, payload: bytes) -> None:
        self._link.charge(len(payload))
        self._inner.send(payload)

    def close(self) -> None:
        self._inner.close()


class ThrottledTransport(Transport):
    """Wraps a transport in *real* wall-clock WAN delay.

    The simulated-clock :class:`SimulatedTransport` keeps benchmarks fast;
    this one actually sleeps, which is what a multi-process CI chain needs
    to demonstrate edge caching over a WAN with nothing but localhost
    sockets.  ``profile`` is anything with ``one_way_latency_s`` /
    ``up_bps`` / ``down_bps`` — in practice a
    :class:`repro.storage.netsim.WanProfile`.
    """

    def __init__(self, inner: Transport, profile, sleep=time.sleep):
        self._inner = inner
        self._profile = profile
        self._sleep = sleep

    def _delay(self, nbytes: int, bps: float) -> None:
        p = self._profile
        self._sleep(p.one_way_latency_s + (nbytes / bps if bps else 0.0))

    def request(self, payload: bytes) -> bytes:
        self._delay(len(payload), self._profile.up_bps)
        response = self._inner.request(payload)
        self._delay(len(response) if response is not None else 0,
                    self._profile.down_bps)
        return response

    def send(self, payload: bytes) -> None:
        self._delay(len(payload), self._profile.up_bps)
        self._inner.send(payload)

    def reconnect(self) -> None:
        reconnect = getattr(self._inner, "reconnect", None)
        if reconnect is not None:
            reconnect()

    def close(self) -> None:
        self._inner.close()


class TCPTransport(Transport):
    """Client-side TCP transport with length-prefixed frames.

    Thread-safe: concurrent callers are serialized over the single
    connection (matching rpclib's default synchronous client behaviour).
    """

    def __init__(self, host: str, port: int, timeout: float | None = 30.0,
                 lazy: bool = False):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._lock = threading.Lock()
        # lazy=True defers the dial to the first frame, so a currently-down
        # endpoint surfaces as a retryable per-call RPCTransportError (which
        # resilient wrappers and the cluster fallback can absorb) instead of
        # failing construction of the whole client/pool.
        self._sock = None if lazy else self._dial()

    def _dial(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        except socket.timeout as exc:
            raise RPCTimeoutError(
                f"connect to {self._host}:{self._port} timed out "
                f"after {self._timeout}s"
            ) from exc
        except OSError as exc:
            raise RPCTransportError(
                f"cannot connect to {self._host}:{self._port}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def reconnect(self) -> None:
        """Drop the current connection and dial a fresh one.

        A failed request leaves the single framed connection in an unknown
        state (half-written frame, server-side close), so retrying over it
        can never succeed; :class:`~repro.rpc.resilience.ResilientTransport`
        calls this between attempts when the wrapped transport offers it.
        """
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
            self._sock = self._dial()

    def request(self, payload: bytes) -> bytes:
        with self._lock:
            if self._sock is None:
                self._sock = self._dial()
            try:
                write_frame(self._sock, payload)
                return read_frame(self._sock)
            except socket.timeout as exc:
                raise RPCTimeoutError(f"socket timed out: {exc}") from exc
            except OSError as exc:
                raise RPCTransportError(f"socket error: {exc}") from exc

    def send(self, payload: bytes) -> None:
        """Write one frame without awaiting a response (NOTIFY semantics).

        The server sends no response frame for a notification, so reading
        here would either hang or steal the next call's response.
        """
        with self._lock:
            if self._sock is None:
                self._sock = self._dial()
            try:
                write_frame(self._sock, payload)
            except socket.timeout as exc:
                raise RPCTimeoutError(f"socket timed out: {exc}") from exc
            except OSError as exc:
                raise RPCTransportError(f"socket error: {exc}") from exc

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:
            pass
