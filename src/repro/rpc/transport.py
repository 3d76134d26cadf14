"""RPC transports: in-process, TCP, and simulated.

A *client transport* exposes one blocking primitive,
:meth:`Transport.request`, mapping a request payload to a response payload.
Three implementations cover the library's needs:

* :class:`InProcessTransport` — calls a dispatcher directly; deterministic
  and dependency-free, used by tests and the benchmark harness,
* :class:`TCPTransport` — the one client socket: length-prefixed frames,
  many requests pipelined on one connection under wire msgids the
  connection owns (the listener it talks to is
  :class:`repro.rpc.mux.AsyncServerTransport`),
* :class:`SimulatedTransport` — wraps another transport and charges every
  byte crossing it to a simulated network link (see
  :mod:`repro.storage.netsim`), which is how benchmarks account for the
  paper's 1 GbE client-storage hop without owning two machines.

Frame format on the wire: ``uint32 BE payload length | payload``, where
the payload is one msgpack-rpc message (see :mod:`repro.rpc.envelope`).
"""

from __future__ import annotations

import itertools
import socket
import struct
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable

from repro.errors import FormatError, RPCError, RPCTimeoutError, RPCTransportError
from repro.rpc import envelope
from repro.rpc.msgpack import pack

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
#: A connection's wire msgids count modulo this (see :class:`TCPTransport`).
_WIRE_IDS = 1 << 32


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

    def reconnect_if_broken(self) -> bool:
        guarded = getattr(self._inner, "reconnect_if_broken", None)
        return guarded() if guarded is not None else False

    def close(self) -> None:
        self._inner.close()


def _shutdown_and_close(sock: socket.socket) -> None:
    """Close ``sock`` so that a thread blocked in ``recv`` on it wakes:
    on Linux ``close()`` alone leaves it parked until the *peer* closes."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer already reset it
    try:
        sock.close()
    except OSError:
        pass


class TCPTransport(Transport):
    """The client TCP transport: many requests in flight on one socket.

    :meth:`submit` writes the frame and returns a
    :class:`~concurrent.futures.Future` resolving to the raw response
    payload; a background reader thread demultiplexes responses, so
    callers — many threads sharing one transport, or one thread
    pipelining via :meth:`~repro.rpc.client.RPCClient.call_async` — wait
    only on their own reply.  :meth:`request` is submit-then-wait, so
    every wrapper (resilient, simulated, throttled, pooled) composes.

    The connection owns its correlation ids.  Each request goes out under
    a fresh wire msgid — a counter that wraps at 2**32 and skips ids
    still pending — and its reply comes back with the caller's own msgid
    bytes spliced in (:func:`~repro.rpc.envelope.swap_msgid`).  Callers
    may therefore share or reuse msgids, and a reply that arrives after
    its caller timed out matches no later request: it is dropped.

    Connection death fails **all** pending futures with
    :class:`~repro.errors.RPCTransportError`; the next :meth:`submit`
    auto-redials (each dial bumps :attr:`generation`).  A write that
    fails or stalls kills the connection the same way, since a
    half-written frame leaves the stream unreadable.  ``lazy=True``
    defers the first dial to the first frame, so a currently-down
    endpoint surfaces as a retryable per-call error instead of failing
    construction of the whole client or pool.

    ``timeout`` bounds the dial, each write that makes no progress
    (``SO_SNDTIMEO``: :class:`~repro.errors.RPCTimeoutError` when a peer
    stops reading) and the wait for the reply.
    """

    def __init__(self, host: str, port: int, timeout: float | None = 30.0,
                 lazy: bool = False):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._lock = threading.Lock()      # connection + pending-map state
        self._wlock = threading.Lock()     # serializes frame writes
        #: wire msgid -> (generation, future, the caller's msgid bytes)
        self._pending: dict[int, tuple[int, Future, bytes]] = {}
        #: drawn without the lock: ``next`` on a count is atomic, as
        #: :class:`~repro.rpc.client.RPCClient`'s msgids rely on too
        self._wire_ids = itertools.count(1)
        self._sock: socket.socket | None = None
        self._reader: threading.Thread | None = None
        self._dead = False
        self._closing = False
        #: dial count; a stable value across a retry proves no re-dial
        self.generation = 0
        if not lazy:
            with self._lock:
                self._redial_locked()

    # -- connection management -----------------------------------------
    def _redial_locked(self) -> None:
        if self._sock is not None:
            _shutdown_and_close(self._sock)
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
        # The reader blocks in recv indefinitely; request timeouts are
        # enforced on the waiting future, and close() unblocks the read.
        # Writes get the kernel's send timeout, which leaves recv alone.
        sock.settimeout(None)
        if self._timeout is not None:
            seconds = int(self._timeout)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, struct.pack(
                "ll", seconds, int((self._timeout - seconds) * 1e6)))
        self._sock = sock
        self._dead = False
        self.generation += 1
        self._reader = threading.Thread(
            target=self._read_loop, args=(sock, self.generation), daemon=True,
            name=f"tcp-reader-{self._host}:{self._port}",
        )
        self._reader.start()

    def _ensure_connected_locked(self) -> tuple[socket.socket, int]:
        if self._sock is None or self._dead:
            self._redial_locked()
        return self._sock, self.generation

    def _read_loop(self, sock: socket.socket, generation: int) -> None:
        try:
            while True:
                frame = read_frame(sock)
                try:
                    mtype, wire_id = envelope.peek(frame)
                except FormatError:
                    raise RPCTransportError("undecodable response frame")
                if mtype != envelope.RESPONSE:
                    continue  # server never sends these; tolerate garbage
                with self._lock:
                    entry = self._pending.pop(wire_id, None)
                    if entry is not None and entry[0] != generation:
                        # A request from a different dial: not ours to answer.
                        self._pending[wire_id] = entry
                        entry = None
                if entry is not None:
                    _, fut, token = entry
                    fut.set_result(envelope.swap_msgid(frame, token)[1])
        except (RPCTransportError, OSError) as exc:
            self._connection_died(sock, generation, exc)

    def _connection_died(self, sock, generation: int, exc: Exception) -> None:
        with self._lock:
            if self._sock is sock:
                self._dead = True
            closing = self._closing
            doomed = [
                (wire_id, fut) for wire_id, (gen, fut, _) in self._pending.items()
                if gen == generation
            ]
            for wire_id, _ in doomed:
                del self._pending[wire_id]
        message = "transport closed" if closing else f"connection lost: {exc}"
        for _, fut in doomed:
            fut.set_exception(RPCTransportError(message))

    # -- request paths ---------------------------------------------------
    def submit(self, payload: bytes) -> Future:
        """Pipeline one request; resolves to the raw response payload."""
        _, fut = self._submit(payload)
        return fut

    def _submit(self, payload: bytes) -> tuple[int, Future]:
        fut: Future = Future()
        while True:
            wire_id = next(self._wire_ids) % _WIRE_IDS
            try:
                mtype, frame, token = envelope.swap_msgid(payload, pack(wire_id))
            except FormatError as exc:
                raise RPCError(f"cannot multiplex frame: {exc}") from exc
            if mtype != envelope.REQUEST:
                raise RPCError(
                    "only REQUEST frames can be multiplexed (use send() for NOTIFY)"
                )
            with self._lock:
                if self._closing:
                    raise RPCTransportError("transport is closed")
                # An id still pending since the counter last wrapped is
                # skipped: its reply could still arrive.
                if wire_id not in self._pending:
                    sock, generation = self._ensure_connected_locked()
                    self._pending[wire_id] = (generation, fut, token)
                    break
        try:
            self._write(sock, frame)
        except RPCTransportError:
            with self._lock:
                self._pending.pop(wire_id, None)
            raise
        return wire_id, fut

    def _write(self, sock: socket.socket, payload: bytes) -> None:
        frame = encode_frame(payload)
        try:
            with self._wlock:
                sock.sendall(frame)
        except OSError as exc:
            # Part of the frame may be on the wire: the stream is no longer
            # readable, so the connection dies and fails what is pending.
            with self._lock:
                if self._sock is sock:
                    self._dead = True
            _shutdown_and_close(sock)
            if isinstance(exc, BlockingIOError):  # SO_SNDTIMEO ran out
                raise RPCTimeoutError(
                    f"write stalled for {self._timeout}s") from exc
            raise RPCTransportError(f"socket error: {exc}") from exc

    def request(self, payload: bytes) -> bytes:
        wire_id, fut = self._submit(payload)
        try:
            return fut.result(timeout=self._timeout)
        except FutureTimeoutError:
            # Abandon the slot: the late reply finds no future and is
            # dropped, and its wire id is not handed out again until the
            # counter wraps.
            with self._lock:
                self._pending.pop(wire_id, None)
            raise RPCTimeoutError(
                f"no response within {self._timeout}s") from None

    def send(self, payload: bytes) -> None:
        """One-way NOTIFY write: no future, no response expected."""
        with self._lock:
            if self._closing:
                raise RPCTransportError("transport is closed")
            sock, _ = self._ensure_connected_locked()
        self._write(sock, payload)

    # -- lifecycle -------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests currently awaiting a response (leak-test surface)."""
        with self._lock:
            return len(self._pending)

    @property
    def broken(self) -> bool:
        with self._lock:
            return self._sock is None or self._dead

    def reconnect_if_broken(self) -> bool:
        """Re-dial **only** when the shared connection is actually dead.

        An unconditional re-dial between retry attempts would sever every
        other caller's in-flight request over a perfectly healthy socket.
        When the socket *is* dead, all pending futures have already
        failed, so re-dialling harms no one.  Returns whether a re-dial
        happened.
        """
        with self._lock:
            if self._closing:
                raise RPCTransportError("transport is closed")
            if self._sock is not None and not self._dead:
                return False
            self._redial_locked()
            return True

    def close(self) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
            sock, reader = self._sock, self._reader
            self._sock = None
            self._dead = True
        if sock is not None:
            _shutdown_and_close(sock)  # the reader wakes and fails the pending
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=2.0)
        # A reader that never started (lazy, never dialed) leaves pending
        # empty; a closed one has already drained it via _connection_died.
        with self._lock:
            doomed = [fut for _, fut, _ in self._pending.values()]
            self._pending.clear()
        for fut in doomed:
            if not fut.done():
                fut.set_exception(RPCTransportError("transport closed"))
