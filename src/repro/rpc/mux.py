"""The TCP listener: one event loop in front of a scheduler's worker pool.

:class:`AsyncServerTransport` is the one TCP listener; ``repro serve``,
``serve-cluster`` and ``serve-edge`` all run it.  A ``selectors`` event
loop on one I/O thread owns every socket (non-blocking reads,
incremental frame parsing, non-blocking writes), while dispatch runs on
a scheduler's worker pool (by default a
:class:`~repro.rpc.fairshare.FairScheduler`, which adds per-tenant
weighted fair queuing).  Responses are written back as each dispatch
completes, so one slow request never blocks the pipeline behind it, and
the msgid inside each frame pairs them back up on the client
(:class:`~repro.rpc.transport.TCPTransport`).  How bytes on a socket
become ``handle(request)`` calls, and how a drain ends, is decided here
and nowhere else.
"""

from __future__ import annotations

import collections
import selectors
import socket
import threading

from repro.errors import FormatError, RPCTransportError
from repro.rpc import envelope
from repro.rpc.fairshare import FairScheduler
from repro.rpc.transport import FrameBuffer, encode_frame

__all__ = ["AsyncServerTransport"]

#: seconds the serve commands give in-flight requests before forcing
DEFAULT_DRAIN_TIMEOUT = 5.0


# ---------------------------------------------------------------------------
# Event-loop server
# ---------------------------------------------------------------------------


class _Conn:
    """Per-connection state owned jointly by the loop and worker threads."""

    __slots__ = ("sock", "frames", "out", "inflight", "lock",
                 "closed", "peer_closed")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.frames = FrameBuffer()
        self.out: collections.deque = collections.deque()  # (memoryview, offset)
        self.inflight = 0          # frames submitted, response not yet queued
        self.lock = threading.Lock()
        self.closed = False
        self.peer_closed = False

    def idle(self) -> bool:
        with self.lock:
            return self.inflight == 0 and not self.out


def _reply_frame(reply: bytes) -> bytes | None:
    """Length-prefix one reply.

    A reply too large to frame becomes a typed error line for the same
    msgid — the caller must never be left waiting for bytes that cannot
    be sent; ``None`` when the reply names no msgid to answer.
    """
    try:
        return encode_frame(reply)
    except RPCTransportError as exc:
        try:
            msgid = envelope.peek(reply)[1]
        except FormatError:
            msgid = None
        if msgid is None:
            return None
        return encode_frame(
            envelope.response(msgid, f"RPCError: reply not sent: {exc}"))


class AsyncServerTransport:
    """Event-loop TCP listener: one I/O thread, scheduler-pooled dispatch.

    A single ``selectors`` loop multiplexes *all* connections: requests
    pipeline per connection, dispatch fans out to the scheduler's
    workers, and each response is written back the moment it is ready —
    out of order when that is faster.  The msgid inside each frame is the
    correlation id, so classic one-at-a-time clients work unchanged.
    Binding to port 0 picks an ephemeral port, exposed as :attr:`port`.

    Parameters
    ----------
    dispatcher:
        ``Request -> bytes | None``, normally
        :meth:`repro.rpc.server.RPCServer.handle`: the scheduler decodes
        each frame once and hands over the
        :class:`~repro.rpc.envelope.Request`.  Used only when no
        ``scheduler`` is given.
    scheduler:
        An object with ``submit(payload, respond)``, ``start()``,
        ``stop(timeout, finish)``, and ``info()`` — in practice a
        :class:`~repro.rpc.fairshare.FairScheduler`.  When omitted, a
        plain FIFO scheduler with ``workers`` threads is built.
    workers:
        Worker-thread count for the default scheduler (ignored when a
        scheduler is passed).
    max_connections:
        Accept-time cap; excess connections are closed immediately
        (clients see a retryable transport error), counted in
        :attr:`refused`.
    """

    def __init__(
        self,
        dispatcher,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int | None = None,
        scheduler=None,
        workers: int = 8,
    ):
        if scheduler is None:
            scheduler = FairScheduler(dispatcher, workers=workers)
        self.scheduler = scheduler
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()
        self.max_connections = max_connections
        #: lifetime count of connections refused by the cap or a drain
        self.refused = 0
        self._sel = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._conns: set[_Conn] = set()
        self._dirty: set[_Conn] = set()
        self._dirty_lock = threading.Lock()
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._shutdown = threading.Event()
        self._loop_thread: threading.Thread | None = None

    # -- public surface ---------------------------------------------------
    @property
    def draining(self) -> bool:
        """True between a draining ``stop()`` call and its completion."""
        return self._draining.is_set()

    @property
    def connections(self) -> int:
        return len(self._conns)

    def start(self) -> "AsyncServerTransport":
        self.scheduler.start()
        self._sel.register(self._listener, selectors.EVENT_READ, "accept")
        self._sel.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._loop_thread = threading.Thread(
            target=self._loop, daemon=True, name=f"mux-loop-:{self.port}"
        )
        self._loop_thread.start()
        return self

    def stop(self, drain_timeout: float | None = None) -> bool:
        """Stop serving; returns True when nothing had to be forced.

        ``None`` force-closes immediately.  A float drains: the listener
        closes first (new connections refused), buffered and in-flight
        requests get up to the timeout to finish and flush, then whatever
        is left is force-closed.
        """
        try:
            self._listener.close()
        except OSError:
            pass
        self._draining.set()
        self._wakeup()
        clean = True
        if drain_timeout is not None:
            clean = self._drained.wait(timeout=drain_timeout)
        self._shutdown.set()
        self._wakeup()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=2.0)
            clean = clean and not self._loop_thread.is_alive()
        clean = self.scheduler.stop(timeout=2.0, finish=False) and clean
        for conn in list(self._conns):
            self._force_close(conn)
        try:
            self._sel.close()
        except Exception:
            pass
        for s in (self._wake_r, self._wake_w):
            try:
                s.close()
            except OSError:
                pass
        self._draining.clear()
        return clean

    def __enter__(self) -> "AsyncServerTransport":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- event loop -------------------------------------------------------
    def _wakeup(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (OSError, BlockingIOError):
            pass

    def _loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                events = self._sel.select(timeout=0.2)
            except OSError:
                break
            for key, mask in events:
                if key.data == "accept":
                    self._accept()
                elif key.data == "wake":
                    self._on_wake()
                else:
                    conn = key.data
                    if mask & selectors.EVENT_WRITE:
                        self._on_writable(conn)
                    if mask & selectors.EVENT_READ and not conn.closed:
                        self._on_readable(conn)
            if self._draining.is_set():
                self._check_drained()

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            if self._draining.is_set() or (
                self.max_connections is not None
                and len(self._conns) >= self.max_connections
            ):
                self.refused += 1
                try:
                    sock.close()  # client sees a retryable reset/EOF
                except OSError:
                    pass
                continue
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock)
            self._conns.add(conn)
            self._sel.register(sock, selectors.EVENT_READ, conn)

    def _on_readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 18)
        except BlockingIOError:
            return
        except OSError:
            self._force_close(conn)
            return
        if not data:
            conn.peer_closed = True
            if conn.idle():
                self._force_close(conn)
            else:
                # Keep writing queued responses; just stop reading.
                self._set_interest(conn, selectors.EVENT_WRITE)
            return
        try:
            conn.frames.feed(data)
            frames = list(conn.frames.drain())
        except RPCTransportError:
            self._force_close(conn)  # garbage length prefix: protocol broken
            return
        for payload in frames:
            with conn.lock:
                conn.inflight += 1
            self.scheduler.submit(payload, self._responder(conn))

    def _responder(self, conn: _Conn):
        def respond(response: bytes | None) -> None:
            # Worker thread: queue the framed bytes, let the loop write.
            framed = _reply_frame(response) if response is not None else None
            with conn.lock:
                conn.inflight -= 1
                if not conn.closed:
                    if framed is not None:
                        conn.out.append([memoryview(framed), 0])
                    elif response is not None:
                        # Unframeable and unanswerable: the caller gets
                        # a transport error, not a hang.
                        try:
                            conn.sock.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass
            with self._dirty_lock:
                self._dirty.add(conn)
            self._wakeup()

        return respond

    def _on_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass
        with self._dirty_lock:
            dirty, self._dirty = self._dirty, set()
        for conn in dirty:
            if conn.closed:
                continue
            with conn.lock:
                has_out = bool(conn.out)
            if has_out:
                events = selectors.EVENT_WRITE
                if not conn.peer_closed and not self._draining.is_set():
                    events |= selectors.EVENT_READ
                self._set_interest(conn, events)
            elif conn.idle() and (conn.peer_closed or self._draining.is_set()):
                self._force_close(conn)

    def _on_writable(self, conn: _Conn) -> None:
        while True:
            with conn.lock:
                if not conn.out:
                    break
                chunk = conn.out[0]
            view, offset = chunk
            try:
                sent = conn.sock.send(view[offset:])
            except BlockingIOError:
                return
            except OSError:
                self._force_close(conn)
                return
            chunk[1] = offset + sent
            if chunk[1] >= len(view):
                with conn.lock:
                    conn.out.popleft()
            else:
                return  # kernel buffer full; wait for the next WRITE event
        # Out queue flushed.
        if conn.idle() and (conn.peer_closed or self._draining.is_set()):
            self._force_close(conn)
        elif not conn.peer_closed and not self._draining.is_set():
            self._set_interest(conn, selectors.EVENT_READ)
        else:
            self._set_interest(conn, 0)

    def _set_interest(self, conn: _Conn, events: int) -> None:
        try:
            if events:
                self._sel.modify(conn.sock, events, conn)
            else:
                self._sel.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            if events:
                try:
                    self._sel.register(conn.sock, events, conn)
                except (KeyError, ValueError, OSError):
                    pass

    def _force_close(self, conn: _Conn) -> None:
        if conn.closed:
            return
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        with conn.lock:  # never under a worker's shutdown
            conn.closed = True
            try:
                conn.sock.close()
            except OSError:
                pass
        self._conns.discard(conn)

    def _check_drained(self) -> None:
        # During drain: stop reading everywhere, close idle connections,
        # and report drained once nothing is in flight anywhere.
        for conn in list(self._conns):
            if conn.idle():
                self._force_close(conn)
            else:
                with conn.lock:
                    has_out = bool(conn.out)
                self._set_interest(
                    conn, selectors.EVENT_WRITE if has_out else 0
                )
        if not self._conns and self.scheduler.quiescent():
            self._drained.set()
