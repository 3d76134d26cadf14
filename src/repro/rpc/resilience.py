"""Fault-tolerant transport: deadlines, retries with backoff, circuit breaker.

The paper's NDP split trusts a single synchronous rpclib hop between the
client and the storage node; on the evaluation testbed (two machines, one
1 GbE link) any transport hiccup stalls the whole pipeline.  This module
wraps any :class:`~repro.rpc.transport.Transport` with the recovery layer
remote-viz systems treat as table stakes:

* **per-request deadline** — a time budget covering *all* attempts of one
  request; exceeded budget surfaces as
  :class:`~repro.errors.RPCTimeoutError`,
* **bounded retries** with exponential backoff and deterministic seeded
  jitter (:class:`RetryPolicy`),
* a **circuit breaker** (:class:`CircuitBreaker`) that trips after N
  consecutive failures and rejects requests locally
  (:class:`~repro.errors.CircuitOpenError`) until a reset interval passes,
  then lets a half-open probe through,
* **overload cooperation** — replies shed by the server's fair queue
  (:class:`~repro.errors.ServerOverloadedError`) are retried with the
  server's ``retry_after`` hint as the backoff floor, without tripping
  the breaker or re-dialling a perfectly healthy connection,
* **deadline propagation** — each attempt's request frame carries the
  remaining budget so the server can abandon doomed work
  (see :mod:`repro.rpc.admission`).

Everything time-related goes through injectable ``clock``/``sleep``
callables, so the fault-injection tests exercise every branch without a
single wall-clock sleep; production code just uses the defaults
(``time.monotonic`` / ``time.sleep``).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.errors import (
    CircuitOpenError,
    FormatError,
    RPCError,
    RPCTimeoutError,
    RPCTransportError,
    ServerOverloadedError,
)
from repro.obs.flightrec import NULL_RECORDER
from repro.obs.trace import NULL_TRACER
from repro.rpc import envelope
from repro.rpc.transport import Transport

__all__ = ["RetryPolicy", "CircuitBreaker", "ResilientTransport"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/deadline knobs for one :class:`ResilientTransport`.

    Parameters
    ----------
    max_attempts:
        Total tries per request (first attempt + retries), >= 1.
    base_delay, multiplier, max_delay:
        Backoff before retry *k* (0-based) is
        ``min(max_delay, base_delay * multiplier**k)``, minus jitter.
    jitter:
        Fraction of the delay randomized away, in ``[0, 1]``: the actual
        sleep is uniform in ``[(1 - jitter) * d, d]``.  Jitter draws come
        from a seedable RNG so schedules are reproducible in tests.
    deadline:
        Per-request time budget in seconds across all attempts, or
        ``None`` for unbounded.  A retry is abandoned (and
        :class:`~repro.errors.RPCTimeoutError` raised) when its backoff
        sleep would land past the deadline; a response that arrives after
        the deadline is discarded as timed out.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: float | None = 30.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise RPCError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise RPCError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise RPCError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise RPCError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise RPCError(f"deadline must be > 0, got {self.deadline}")

    def backoff(self, attempt: int, rng: random.Random | None = None) -> float:
        """Delay before retrying after failed attempt ``attempt`` (0-based)."""
        delay = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if rng is not None and self.jitter > 0:
            delay -= delay * self.jitter * rng.random()
        return delay


class CircuitBreaker:
    """Trips open after N consecutive failures; recovers via half-open probe.

    States (the classic three-state machine):

    * ``closed`` — requests flow; consecutive failures are counted,
    * ``open`` — requests are rejected locally without touching the wire,
    * ``half-open`` — after ``reset_timeout`` seconds open, the next
      request is let through as a probe: success closes the breaker,
      failure re-opens it for another full interval.

    Thread-safe; shared by all requests on one transport.  ``clock`` is
    injectable for deterministic tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise RPCError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_timeout < 0:
            raise RPCError(f"reset_timeout must be >= 0, got {reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at = 0.0
        #: lifetime count of closed/half-open -> open transitions
        self.trips = 0

    # ------------------------------------------------------------------
    def _resolve_state(self) -> str:
        """Current state, promoting open -> half-open when the interval passed."""
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = self.HALF_OPEN
        return self._state

    @property
    def state(self) -> str:
        with self._lock:
            return self._resolve_state()

    @property
    def failures(self) -> int:
        with self._lock:
            return self._failures

    def retry_after(self) -> float | None:
        """Seconds until an open breaker will allow a probe (None if not open)."""
        with self._lock:
            if self._resolve_state() != self.OPEN:
                return None
            return max(0.0, self.reset_timeout - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """May a request proceed right now?"""
        with self._lock:
            return self._resolve_state() != self.OPEN

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            state = self._resolve_state()
            if state == self.HALF_OPEN or (
                state == self.CLOSED and self._failures >= self.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.trips += 1

    def reset(self) -> None:
        """Force-close (administrative reset)."""
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED


class ResilientTransport(Transport):
    """Retry/deadline/breaker wrapper around any blocking transport.

    Parameters
    ----------
    inner:
        The wrapped transport actually moving bytes.
    retry:
        A :class:`RetryPolicy` (default: 4 attempts, exp backoff, 30 s
        deadline).
    breaker:
        A :class:`CircuitBreaker`, or ``None`` to disable breaking.  Pass
        a shared instance to pool failure knowledge across transports to
        the same endpoint.
    clock, sleep:
        Injectable time sources (defaults: ``time.monotonic`` /
        ``time.sleep``).  Tests inject a fake clock so no branch ever
        really sleeps.
    rng:
        ``random.Random`` used only for backoff jitter; seed it for
        reproducible schedules.
    stats:
        Optional recorder with a ``record(event, n=1)`` method — in
        practice a :class:`repro.obs.metrics.Tally`.  Events
        emitted: ``attempts``, ``retries``, ``reconnects``, ``failures``,
        ``successes``, ``timeouts``, ``overloads``,
        ``breaker_rejections``, ``breaker_trips``.
    retryable:
        Exception classes worth retrying.  Defaults to transport faults
        only: remote handler errors and protocol violations are
        deterministic and re-raised immediately.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  Retries, reconnects,
        deadline timeouts, and breaker activity are recorded as *events*
        on whatever span is current (normally the client's ``rpc.call``),
        so a trace shows not just that a request was slow but that it
        burned two retries and tripped the breaker on the way.
    propagate_deadline:
        When true (default) and the policy has a deadline, each attempt's
        request frame is rewritten to carry the *remaining* budget in its
        ctx map, so a deadline-aware server can reject doomed work early.
        Non-request payloads pass through untouched, and with
        ``deadline=None`` frames stay byte-identical to the wire.
    recorder:
        Optional :class:`~repro.obs.flightrec.FlightRecorder`; retries,
        reconnects, overload backoffs, deadline busts, and breaker flips
        land in the client-side flight ring even with tracing off.
    """

    def __init__(
        self,
        inner: Transport,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
        rng: random.Random | None = None,
        stats=None,
        retryable: tuple[type[BaseException], ...] = (RPCTransportError,),
        tracer=None,
        propagate_deadline: bool = True,
        recorder=None,
    ):
        self._inner = inner
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker
        self._clock = clock
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._stats = stats
        self._retryable = retryable
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._propagate_deadline = propagate_deadline
        self._recorder = recorder if recorder is not None else NULL_RECORDER

    # ------------------------------------------------------------------
    def _record(self, event: str, n: int = 1) -> None:
        if self._stats is not None:
            self._stats.record(event, n)

    def _reject_open(self, cause: BaseException | None) -> None:
        self._record("breaker_rejections")
        self._tracer.add_event("breaker.reject", state=self.breaker.state)
        self._recorder.record("breaker.reject", state=self.breaker.state)
        after = self.breaker.retry_after()
        hint = f"; retrying in {after:.3g}s" if after else ""
        raise CircuitOpenError(
            f"circuit breaker open after {self.breaker.failures} consecutive "
            f"failures{hint}",
            retry_after=after,
        ) from cause

    def _reconnect_inner(self) -> None:
        """Give a dead connection a fresh dial before a retry.

        A failed attempt can leave a framed stream connection unusable
        (half-written frame, peer close), so a retry over it is doomed.
        But the connection is *shared*: a retry of one pipelined request
        must never re-dial the socket out from under every other
        in-flight request.  So the transport decides, through
        ``reconnect_if_broken()`` (:class:`~repro.rpc.transport.TCPTransport`
        has it): re-dial when the connection is actually dead (all its
        pending requests have already failed), no-op when it is healthy
        (the failure was the request's, not the connection's).  Failures
        here are swallowed — the next attempt will surface them as its own
        transport error and keep the retry accounting in one place.
        """
        reconnect = getattr(self._inner, "reconnect_if_broken", None)
        if reconnect is None:
            return
        try:
            if reconnect():
                self._record("reconnects")
                self._tracer.add_event("rpc.reconnect")
                self._recorder.record("rpc.reconnect")
        except RPCTransportError:
            pass

    def _breaker_failure(self) -> None:
        if self.breaker is None:
            return
        trips_before = self.breaker.trips
        self.breaker.record_failure()
        if self.breaker.trips > trips_before:
            self._record("breaker_trips")
            self._tracer.add_event(
                "breaker.trip", failures=self.breaker.failures
            )
            self._recorder.record(
                "breaker.open", failures=self.breaker.failures
            )

    def request(self, payload: bytes) -> bytes:
        policy = self.retry
        start = self._clock()
        last_exc: BaseException | None = None
        for attempt in range(policy.max_attempts):
            if self.breaker is not None and not self.breaker.allow():
                self._reject_open(last_exc)
            self._record("attempts")
            wire = payload
            if self._propagate_deadline and policy.deadline is not None:
                # Each attempt ships what is *left* of the budget, so the
                # server stops spending effort exactly when we stop waiting.
                wire = envelope.with_ctx(
                    payload, deadline=policy.deadline - (self._clock() - start)
                )
            try:
                response = self._inner.request(wire)
                try:
                    line = envelope.peek_error(response)
                except FormatError:
                    line = None  # not ours to judge; the client decodes it
                shed, retry_after = envelope.parse_error(line)
                if shed is ServerOverloadedError:
                    # A shed reply is a successful *exchange* but a failed
                    # *request*: surface it here so the normal retry path
                    # below handles it (it is an RPCTransportError).
                    raise shed(line, retry_after=retry_after)
            except self._retryable as exc:
                last_exc = exc
                overloaded = isinstance(exc, ServerOverloadedError)
                if overloaded:
                    # The server is alive and explicitly asking for backoff:
                    # don't count it against the breaker like a dead link.
                    self._record("overloads")
                    self._tracer.add_event(
                        "rpc.overloaded",
                        attempt=attempt + 1,
                        retry_after=exc.retry_after or 0.0,
                    )
                    self._recorder.record(
                        "rpc.overloaded", attempt=attempt + 1,
                        retry_after=exc.retry_after or 0.0,
                    )
                else:
                    self._record("failures")
                    self._breaker_failure()
                if attempt + 1 >= policy.max_attempts:
                    break
                delay = policy.backoff(attempt, self._rng)
                if overloaded and exc.retry_after:
                    delay = max(delay, exc.retry_after)
                if (
                    policy.deadline is not None
                    and (self._clock() - start) + delay > policy.deadline
                ):
                    self._record("timeouts")
                    self._tracer.add_event(
                        "rpc.deadline_exceeded", attempts=attempt + 1
                    )
                    self._recorder.record(
                        "deadline.expired", attempts=attempt + 1,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    raise RPCTimeoutError(
                        f"deadline of {policy.deadline}s exhausted after "
                        f"{attempt + 1} attempt(s): {exc}"
                    ) from exc
                self._record("retries")
                self._tracer.add_event(
                    "rpc.retry", attempt=attempt + 1, delay=delay,
                    cause=f"{type(exc).__name__}: {exc}",
                )
                self._recorder.record(
                    "rpc.retry", attempt=attempt + 1, delay=delay,
                    cause=f"{type(exc).__name__}: {exc}",
                )
                self._sleep(delay)
                if not overloaded:
                    # The connection served the shed reply fine; only real
                    # transport faults warrant a re-dial.
                    self._reconnect_inner()
            else:
                elapsed = self._clock() - start
                if policy.deadline is not None and elapsed > policy.deadline:
                    # The reply arrived, but past the budget: the caller
                    # has already been failed over; treat as a timeout so
                    # behaviour does not depend on fault timing.
                    self._record("timeouts")
                    self._breaker_failure()
                    self._tracer.add_event(
                        "rpc.deadline_exceeded", elapsed=elapsed
                    )
                    self._recorder.record("deadline.expired", elapsed=elapsed)
                    raise RPCTimeoutError(
                        f"response arrived after {elapsed:.3g}s, "
                        f"deadline was {policy.deadline}s"
                    )
                self._record("successes")
                if self.breaker is not None:
                    self.breaker.record_success()
                return response
        assert last_exc is not None
        raise last_exc

    def send(self, payload: bytes) -> None:
        """One-way send (NOTIFY): no response to retry on, so pass through.

        The breaker still gates it — a known-dead endpoint should not eat
        writes silently.
        """
        if self.breaker is not None and not self.breaker.allow():
            self._reject_open(None)
        self._inner.send(payload)

    def close(self) -> None:
        self._inner.close()
