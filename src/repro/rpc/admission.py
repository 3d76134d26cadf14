"""Admission control, load shedding, and deadline propagation.

The NDP server is the shared storage-side resource the whole design
concentrates load onto: one slow client stampede must not take it down
for everyone else.  This module provides the two mechanisms the server
layers use to survive:

* :class:`AdmissionController` — a counting gate in front of request
  dispatch.  At most ``max_inflight`` requests execute concurrently; up
  to ``max_pending`` more wait (bounded, so memory stays bounded too);
  beyond that the request is *shed* immediately with
  :class:`~repro.errors.ServerOverloadedError` carrying a ``retry_after``
  hint.  Shedding fast is the point — a client that hears "busy, come
  back in 50 ms" within a millisecond is far better off than one queued
  behind a minute of backlog.

* :class:`DeadlineScope` — the server-side half of deadline propagation.
  The client's remaining retry budget rides the request envelope's ctx
  map (key ``"deadline"``, seconds — a *duration*, not a wall-clock
  instant, so client and server clocks never need agreement); the server
  wraps handler execution in a scope and work between phases calls
  :func:`check_deadline` to abandon doomed work early.

The client-side half — splicing the remaining budget into each attempt's
frame and spotting a shed inside a successful exchange — is
``ResilientTransport`` using :mod:`repro.rpc.envelope`.

Wire compatibility: a request without a deadline and a reply without an
overload error are byte-identical to pre-admission frames — both sides
treat the extra ctx key and the typed error line as optional.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import DeadlineExpiredError, ServerOverloadedError

__all__ = [
    "AdmissionController",
    "DeadlineScope",
    "current_deadline",
    "remaining_budget",
    "check_deadline",
]


class AdmissionController:
    """Bounded-concurrency gate with immediate load shedding.

    Parameters
    ----------
    max_inflight:
        Maximum requests executing concurrently.  ``0`` means unlimited —
        the controller still counts (for stats) but never sheds.
    max_pending:
        How many requests may *wait* for a slot before new arrivals are
        shed outright.  ``0`` (default) sheds as soon as all slots are
        busy: lowest latency-under-overload, which is what a retrying
        client wants.
    queue_timeout:
        How long a pending request waits for a slot before it, too, is
        shed.  ``None`` waits indefinitely (bounded by ``max_pending``
        requests doing so).
    retry_after:
        The hint (seconds) embedded in shed errors; the resilient client
        uses it as a floor for its backoff delay.
    clock:
        Injectable monotonic clock (tests use a fake).
    """

    def __init__(
        self,
        max_inflight: int = 0,
        max_pending: int = 0,
        queue_timeout: float | None = None,
        retry_after: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_inflight < 0 or max_pending < 0:
            raise ValueError("max_inflight and max_pending must be >= 0")
        self.max_inflight = int(max_inflight)
        self.max_pending = int(max_pending)
        self.queue_timeout = queue_timeout
        self.retry_after = float(retry_after)
        self._clock = clock
        self._cond = threading.Condition()
        self._inflight = 0
        self._pending = 0
        self._admitted = 0
        self._shed = 0
        self._expired = 0
        self._peak_inflight = 0

    # -- gate ---------------------------------------------------------------

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def acquire(self) -> None:
        """Admit the calling thread or raise :class:`ServerOverloadedError`."""
        with self._cond:
            if self.max_inflight == 0 or self._inflight < self.max_inflight:
                self._admit_locked()
                return
            if self._pending >= self.max_pending:
                self._shed += 1
                raise self._overloaded()
            self._pending += 1
            deadline = (
                None
                if self.queue_timeout is None
                else self._clock() + self.queue_timeout
            )
            try:
                while self._inflight >= self.max_inflight:
                    if deadline is None:
                        self._cond.wait()
                    else:
                        left = deadline - self._clock()
                        if left <= 0 or not self._cond.wait(timeout=left):
                            if self._inflight < self.max_inflight:
                                break  # slot freed exactly at the timeout
                            self._shed += 1
                            raise self._overloaded(queued=True)
            finally:
                self._pending -= 1
            self._admit_locked()

    def release(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify()

    def _admit_locked(self) -> None:
        self._inflight += 1
        self._admitted += 1
        if self._inflight > self._peak_inflight:
            self._peak_inflight = self._inflight

    def _overloaded(self, queued: bool = False) -> ServerOverloadedError:
        where = "pending queue full" if not queued else "queue wait timed out"
        # retry_after= is part of the message so the hint survives the
        # string-only RPC error channel; clients parse it back out.
        return ServerOverloadedError(
            f"server at capacity ({where}: inflight={self._inflight}/"
            f"{self.max_inflight}, pending={self._pending}/{self.max_pending}); "
            f"retry_after={self.retry_after}",
            retry_after=self.retry_after,
        )

    # -- stats --------------------------------------------------------------

    def record_expired(self) -> None:
        """Count a request rejected because its deadline had already passed."""
        with self._cond:
            self._expired += 1

    def record_shed(self) -> None:
        """Count a shed decided by an outer layer (the fair queue).

        The fair scheduler sheds per-tenant *before* requests reach this
        gate; recording here keeps ``health``/``stats`` reporting one
        overload ledger for the whole server.
        """
        with self._cond:
            self._shed += 1

    def saturated(self) -> bool:
        """True when every inflight slot is busy — overload territory,
        where SLO-aware shedding is allowed to refuse burning tenants."""
        with self._cond:
            return self.max_inflight > 0 and self._inflight >= self.max_inflight

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def pending(self) -> int:
        with self._cond:
            return self._pending

    def info(self) -> dict:
        """Snapshot for ``health`` and the registry's ``admission`` collector."""
        with self._cond:
            return {
                "max_inflight": self.max_inflight,
                "max_pending": self.max_pending,
                "inflight": self._inflight,
                "pending": self._pending,
                "admitted": self._admitted,
                "shed": self._shed,
                "expired": self._expired,
                "peak_inflight": self._peak_inflight,
            }


# ---------------------------------------------------------------------------
# Deadline scopes (server side)
# ---------------------------------------------------------------------------

_scope_stack = threading.local()


def _stack() -> list:
    stack = getattr(_scope_stack, "scopes", None)
    if stack is None:
        stack = []
        _scope_stack.scopes = stack
    return stack


class DeadlineScope:
    """A per-request time budget, checkable from anywhere on the thread.

    The budget is converted to an absolute expiry against the injected
    clock at construction, so repeated :meth:`remaining` calls measure
    real elapsed work.  Used as a context manager around handler
    execution; nested scopes see the innermost deadline.
    """

    def __init__(self, budget: float, clock: Callable[[], float] = time.monotonic):
        self.budget = float(budget)
        self._clock = clock
        self.expires_at = clock() + self.budget

    def remaining(self) -> float:
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def __enter__(self) -> DeadlineScope:
        _stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()


def current_deadline() -> DeadlineScope | None:
    """The innermost active scope on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


def remaining_budget() -> float | None:
    """Seconds left in the active scope, or ``None`` outside any scope."""
    scope = current_deadline()
    return None if scope is None else scope.remaining()


def check_deadline(phase: str = "processing") -> None:
    """Abandon doomed work: raise if the active deadline has expired.

    A no-op outside any scope, so pipeline code can call it
    unconditionally — only deadline-carrying requests pay the check.
    """
    scope = current_deadline()
    if scope is not None and scope.expired():
        raise DeadlineExpiredError(
            f"deadline expired before {phase} "
            f"(budget {scope.budget:.3f}s exceeded by "
            f"{-scope.remaining():.3f}s); abandoning request"
        )
