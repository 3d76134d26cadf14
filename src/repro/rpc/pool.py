"""A small pool of independent RPC endpoints for scatter–gather fan-out.

Each shard of an NDP cluster is its own :class:`~repro.rpc.server.RPCServer`
with its own failure domain, so the pool wraps each endpoint transport in
its own :class:`~repro.rpc.resilience.ResilientTransport`: retries and
deadlines are shared policy (stateless), but circuit breakers are strictly
per endpoint — one flapping shard must not open the breaker for its
healthy peers.  Resilience stats aggregate across the pool by default so
the client reports one retry/fallback picture per request.

Replication support lives here too:

* :class:`EndpointHealth` — per-endpoint rolling latency (a
  :class:`~repro.obs.slo.RollingSketch`) plus breaker view and
  hedge/failover counters; :meth:`EndpointPool.rank` orders a replica
  chain by it (open breakers last, then by observed latency).
* :class:`HedgedCall` — race one logical call across an ordered replica
  chain: issue to the first replica, start a *hedge* to the next after a
  latency-quantile delay, fail over immediately on errors, take the
  first success and cancel the losers.  Timeouts, breaker-opens, sheds,
  and integrity failures all walk the chain before the caller ever sees
  an error — failover is the fast path, not a degradation.
"""

from __future__ import annotations

import threading
import time

from repro.errors import FAILOVER_ERRORS, ReproError
from repro.obs.flightrec import NULL_RECORDER
from repro.obs.metrics import Tally
from repro.obs.slo import RollingSketch
from repro.rpc.client import RPCClient
from repro.rpc.resilience import ResilientTransport, RetryPolicy
from repro.rpc.transport import TCPTransport

__all__ = ["EndpointPool", "EndpointHealth", "HedgedCall", "HedgedResult",
           "parse_address", "FAILOVER_ERRORS"]

_PORT_RANGE = (1, 65535)
#: hedge after this latency quantile of the lead, clamped to [floor, cap] s
HEDGE_QUANTILE, HEDGE_FLOOR, HEDGE_CAP = 0.95, 0.005, 1.0


def parse_address(addr) -> tuple[str, int]:
    """Parse one endpoint address into ``(host, port)``.

    Accepts ``(host, port)`` pairs, ``host:port`` strings, and bracketed
    IPv6 ``[::1]:9000`` (the brackets are required for IPv6 — a bare
    ``::1:9000`` is ambiguous and rejected).  Ports must be plain decimal
    in ``[1, 65535]`` with no leading zeros (``host:007`` is a typo, not
    an endpoint), empty hosts/ports are rejected, all with a typed
    :class:`~repro.errors.ReproError`.
    """
    if isinstance(addr, (tuple, list)):
        if len(addr) != 2:
            raise ReproError(f"bad endpoint address {addr!r} (want (host, port))")
        host, port = addr
        host = str(host)
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise ReproError(
                f"bad endpoint address {addr!r}: port {port!r} is not an integer"
            ) from None
    elif isinstance(addr, str):
        if addr.startswith("["):
            bracket = addr.find("]")
            if bracket < 0:
                raise ReproError(
                    f"bad endpoint address {addr!r}: unclosed IPv6 bracket"
                )
            host = addr[1:bracket]
            rest = addr[bracket + 1:]
            if not rest.startswith(":"):
                raise ReproError(
                    f"bad endpoint address {addr!r} (want [v6-host]:port)"
                )
            port_text = rest[1:]
        else:
            host, sep, port_text = addr.rpartition(":")
            if not sep:
                raise ReproError(
                    f"bad endpoint address {addr!r} (want host:port)"
                )
            if ":" in host:
                raise ReproError(
                    f"bad endpoint address {addr!r}: bracket IPv6 hosts "
                    f"as [host]:port"
                )
        if not host:
            raise ReproError(f"bad endpoint address {addr!r}: empty host")
        if not port_text or not port_text.isascii() or not port_text.isdigit():
            raise ReproError(
                f"bad endpoint address {addr!r}: port {port_text!r} is not "
                f"a decimal number"
            )
        if len(port_text) > 1 and port_text[0] == "0":
            raise ReproError(
                f"bad endpoint address {addr!r}: port {port_text!r} has a "
                f"leading zero"
            )
        port = int(port_text)
    else:
        raise ReproError(f"bad endpoint address {addr!r}")
    if not _PORT_RANGE[0] <= port <= _PORT_RANGE[1]:
        raise ReproError(
            f"bad endpoint address {addr!r}: port {port} outside "
            f"[{_PORT_RANGE[0]}, {_PORT_RANGE[1]}]"
        )
    return host, port


class EndpointHealth:
    """Rolling health for one endpoint: latency sketch + counters.

    Thread-safe; shared between the pool's timed :meth:`EndpointPool.call`
    path (which feeds it) and :class:`HedgedCall` (which reads it to pick
    hedge delays and rank replicas).
    """

    def __init__(self, breaker=None, clock=time.monotonic,
                 window: float = 60.0):
        self.breaker = breaker
        self.sketch = RollingSketch(window=window, clock=clock)
        self._lock = threading.Lock()
        self.calls = 0
        self.errors = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.failovers = 0

    # ------------------------------------------------------------------
    def observe(self, seconds: float) -> None:
        with self._lock:
            self.calls += 1
        self.sketch.observe(seconds)

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_hedge(self) -> None:
        with self._lock:
            self.hedges += 1

    def record_hedge_win(self) -> None:
        with self._lock:
            self.hedge_wins += 1

    def record_failover(self) -> None:
        with self._lock:
            self.failovers += 1

    # ------------------------------------------------------------------
    def breaker_state(self) -> str:
        return self.breaker.state if self.breaker is not None else "none"

    def healthy(self) -> bool:
        return self.breaker is None or self.breaker.state != "open"

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)

    def rank_key(self) -> tuple:
        """Sort key: open breakers last, then by rolling p50 latency."""
        return (0 if self.healthy() else 1, self.quantile(0.5))

    def snapshot(self) -> dict:
        with self._lock:
            out = {
                "calls": self.calls,
                "errors": self.errors,
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
                "failovers": self.failovers,
            }
        out["breaker"] = self.breaker_state()
        out["p50"] = self.quantile(0.5)
        out["p99"] = self.quantile(0.99)
        return out


class _Ledger:
    """Counts hedge attempts in flight; the chaos suite asserts drain-to-0."""

    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._n = 0

    def inc(self) -> None:
        with self._lock:
            self._n += 1

    def dec(self) -> None:
        with self._cond:
            self._n -= 1
            self._cond.notify_all()

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self._n

    def wait_drained(self, timeout: float | None = None) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self._n == 0, timeout=timeout)


class HedgedResult:
    """Outcome of one hedged call: the value plus its failover story."""

    __slots__ = ("value", "winner", "winner_kind", "attempts", "hedges",
                 "failovers", "errors")

    def __init__(self, value, winner, winner_kind, attempts, hedges,
                 failovers, errors):
        self.value = value
        self.winner = winner            # endpoint id that answered
        self.winner_kind = winner_kind  # "primary" | "hedge" | "failover"
        self.attempts = attempts
        self.hedges = hedges
        self.failovers = failovers
        self.errors = errors            # [(endpoint, exc), ...] from losers


class HedgedCall:
    """Race one logical call across an ordered replica chain.

    ``attempt(endpoint, cancel, kind)`` performs the real call; ``cancel``
    is a :class:`threading.Event` set the moment another attempt wins —
    cooperative transports (and every fault-injection transport in the
    test suite) check it to abandon work early, and the result of a
    cancelled attempt is discarded regardless.  ``kind`` tells the
    attempt why it was launched (``"primary"``/``"hedge"``/``"failover"``)
    so it can tag the request ctx for server-side counters.

    The ladder: launch the first replica; if it *errors* with a
    failover-class exception, launch the next immediately; if it is
    merely *slow* — no reply within the hedge delay — launch the next as
    a hedge and let both race.  First success wins and cancels the rest.
    When every replica has failed, the last failover-class error is
    raised (so callers' existing fallback triggers keep working);
    a non-failover error cancels the race and propagates at once.
    """

    def __init__(self, delay_for, *, clock=time.monotonic,
                 recorder=None, ledger: _Ledger | None = None,
                 on_hedge=None, on_failover=None,
                 failover_on=FAILOVER_ERRORS):
        #: ``delay_for(endpoint) -> seconds`` before hedging past it
        self._delay_for = delay_for
        self._clock = clock
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._ledger = ledger if ledger is not None else _Ledger()
        self._on_hedge = on_hedge
        self._on_failover = on_failover
        self._failover_on = failover_on

    @property
    def outstanding(self) -> int:
        return self._ledger.outstanding

    def run(self, replicas, attempt) -> HedgedResult:
        replicas = list(replicas)
        if not replicas:
            raise ReproError("hedged call needs at least one replica")
        cond = threading.Condition()
        state = {
            "value": None, "winner": None, "winner_slot": None,
            "winner_kind": None, "fatal": None, "errors": [], "finished": 0,
        }
        cancels: list[threading.Event] = []

        def runner(slot, endpoint, cancel, kind):
            try:
                value = attempt(endpoint, cancel, kind)
            except BaseException as exc:  # noqa: BLE001 — arbitrated below
                with cond:
                    state["finished"] += 1
                    if isinstance(exc, self._failover_on):
                        state["errors"].append((endpoint, exc))
                    elif state["fatal"] is None:
                        state["fatal"] = exc
                    cond.notify_all()
                self._ledger.dec()
                return
            with cond:
                state["finished"] += 1
                if state["winner_slot"] is None and not cancel.is_set():
                    state["value"] = value
                    state["winner"] = endpoint
                    state["winner_slot"] = slot
                    state["winner_kind"] = kind
                cond.notify_all()
            self._ledger.dec()

        def launch(idx, kind):
            endpoint = replicas[idx]
            cancel = threading.Event()
            cancels.append(cancel)
            self._ledger.inc()
            thread = threading.Thread(
                target=runner, args=(idx, endpoint, cancel, kind),
                daemon=True, name=f"hedge-{endpoint}-{kind}",
            )
            thread.start()
            if kind == "hedge":
                self._recorder.record("pool.hedge", endpoint=endpoint)
                if self._on_hedge is not None:
                    self._on_hedge(endpoint)
            elif kind == "failover":
                self._recorder.record("pool.failover", endpoint=endpoint)
                if self._on_failover is not None:
                    self._on_failover(endpoint)

        hedges = failovers = 0
        launch(0, "primary")
        launched = 1
        hedge_deadline = self._clock() + max(0.0, self._delay_for(replicas[0]))
        with cond:
            while True:
                if state["winner_slot"] is not None or state["fatal"] is not None:
                    break
                failed = len(state["errors"])
                exhausted = launched >= len(replicas)
                if state["finished"] >= launched and exhausted:
                    break  # everything failed, nothing left to try
                if not exhausted and failed >= launched:
                    # Every launched attempt has already failed: don't
                    # wait out the hedge timer, fail over immediately.
                    launch(launched, "failover")
                    launched += 1
                    failovers += 1
                    hedge_deadline = self._clock() + max(
                        0.0, self._delay_for(replicas[launched - 1])
                    )
                    continue
                now = self._clock()
                if not exhausted and now >= hedge_deadline:
                    launch(launched, "hedge")
                    launched += 1
                    hedges += 1
                    hedge_deadline = now + max(
                        0.0, self._delay_for(replicas[launched - 1])
                    )
                    continue
                if exhausted:
                    cond.wait()
                else:
                    # Bounded wait: re-check the (injectable) clock often
                    # enough that a hedge fires close to its deadline even
                    # when the clock is not wall time.
                    cond.wait(timeout=min(max(hedge_deadline - now, 0.0), 0.05))
            # Cancel every loser: set their events so cooperative
            # attempts unwind promptly; late results are discarded by
            # the winner-already-set check in the runner.
            for slot, cancel in enumerate(cancels):
                if slot != state["winner_slot"]:
                    cancel.set()
            if state["fatal"] is not None:
                raise state["fatal"]
            if state["winner_slot"] is None:
                endpoint, last = state["errors"][-1]
                raise last
            return HedgedResult(
                state["value"], state["winner"], state["winner_kind"],
                launched, hedges, failovers, list(state["errors"]),
            )


class EndpointPool:
    """N independent RPC endpoints, one resilient client each.

    Parameters
    ----------
    transports:
        One raw transport per endpoint (ordering defines endpoint ids).
    retry:
        Shared :class:`RetryPolicy` (stateless, so sharing is safe);
        defaults to the resilience layer's default policy.
    breaker_factory:
        Zero-arg callable producing a fresh circuit breaker **per
        endpoint**; ``None`` disables breakers.
    stats:
        Shared :class:`~repro.obs.metrics.Tally`; a fresh one is created
        when omitted so callers can always read pool-wide counters.
    resilient:
        Set ``False`` to skip the resilience wrapper entirely (tests that
        inject their own wrapped transports).
    recorder:
        Optional :class:`~repro.obs.flightrec.FlightRecorder`; hedges,
        failovers, and transport-close failures land in the flight ring.
    """

    def __init__(self, transports, retry: RetryPolicy | None = None,
                 breaker_factory=None, stats: Tally | None = None,
                 tracer=None, clock=time.monotonic, sleep=time.sleep,
                 resilient: bool = True, recorder=None, addresses=None):
        transports = list(transports)
        if not transports:
            raise ReproError("endpoint pool needs at least one transport")
        self.stats = stats if stats is not None else Tally()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._retry = retry
        self._breaker_factory = breaker_factory
        self._tracer = tracer
        self._clock = clock
        self._sleep = sleep
        self._resilient = resilient
        self._dial_timeout = None  # set once connect_tcp configured us
        self._transports = []
        self._clients = []
        self._health: list[EndpointHealth] = []
        self.addresses = list(addresses) if addresses is not None else None
        self._ledger = _Ledger()
        for transport in transports:
            self._add_transport(transport)

    def _add_transport(self, transport) -> int:
        if self._resilient:
            transport = ResilientTransport(
                transport,
                retry=self._retry,
                breaker=(self._breaker_factory()
                         if self._breaker_factory else None),
                clock=self._clock,
                sleep=self._sleep,
                stats=self.stats,
                tracer=self._tracer,
            )
        self._transports.append(transport)
        self._clients.append(RPCClient(transport, tracer=self._tracer))
        self._health.append(EndpointHealth(
            breaker=getattr(transport, "breaker", None), clock=self._clock,
        ))
        return len(self._clients) - 1

    # ------------------------------------------------------------------
    @classmethod
    def connect_tcp(cls, addresses, timeout: float = 30.0, **kwargs):
        """Build a pool from ``host:port`` strings or ``(host, port)`` pairs.

        Each endpoint is one pipelined
        :class:`~repro.rpc.transport.TCPTransport`: concurrent calls to a
        shard share its connection without queueing behind each other,
        and a call that timed out cannot hand its late reply to the next.
        Endpoints dial lazily (on first use): a shard that is down when
        the pool is built must degrade per the caller's fallback policy,
        not abort construction and take its healthy peers with it.
        Addresses go through :func:`parse_address`, so bracketed IPv6
        works and malformed ports fail loudly here rather than at dial
        time.
        """
        parsed = [parse_address(addr) for addr in addresses]
        transports = [
            TCPTransport(host, port, timeout=timeout, lazy=True)
            for host, port in parsed
        ]
        pool = cls(transports,
                   addresses=[f"{host}:{port}" for host, port in parsed],
                   **kwargs)
        pool._dial_timeout = timeout
        return pool

    def add_address(self, addr) -> int:
        """Dial one more endpoint into a TCP-built pool (live map growth)."""
        if self._dial_timeout is None:
            raise ReproError(
                "pool was not built by connect_tcp; cannot add endpoints live"
            )
        host, port = parse_address(addr)
        idx = self._add_transport(
            TCPTransport(host, port, timeout=self._dial_timeout, lazy=True)
        )
        if self.addresses is not None:
            self.addresses.append(f"{host}:{port}")
        return idx

    def client(self, i: int) -> RPCClient:
        return self._clients[i]

    def transport(self, i: int):
        """Endpoint ``i``'s (possibly resilience-wrapped) transport.

        Frame-level proxies (:class:`~repro.rpc.forward.ForwardingHandler`)
        relay raw bytes and so need the transport itself, not the client.
        """
        return self._transports[i]

    def health(self, i: int) -> EndpointHealth:
        return self._health[i]

    def endpoint_state(self, i: int) -> str:
        """Breaker state for endpoint ``i`` (``"none"`` without a breaker)."""
        return self._health[i].breaker_state()

    def call(self, i: int, method: str, *params, ctx_extra=None):
        """Timed call through endpoint ``i``, feeding its health sketch."""
        health = self._health[i]
        start = self._clock()
        try:
            result = self._clients[i].call(method, *params,
                                           ctx_extra=ctx_extra)
        except Exception:
            health.record_error()
            raise
        health.observe(max(0.0, self._clock() - start))
        return result

    # ------------------------------------------------------------------
    def rank(self, replicas) -> list[int]:
        """Order a replica chain for dispatch: healthy first, fast first.

        The sort is stable, so replicas with identical health keep their
        manifest order — the primary leads until the breaker or the
        latency sketch says otherwise.
        """
        return sorted(replicas, key=lambda e: self._health[e].rank_key())

    def hedge_delay(self, endpoint: int) -> float:
        """Seconds to wait on ``endpoint`` before hedging to the next.

        The observed ``HEDGE_QUANTILE`` latency, clamped to
        ``[HEDGE_FLOOR, HEDGE_CAP]`` — a cold sketch (no observations
        yet) hedges after the floor.
        """
        return min(HEDGE_CAP, max(
            HEDGE_FLOOR, self._health[endpoint].quantile(HEDGE_QUANTILE)))

    def hedged(self) -> HedgedCall:
        """A :class:`HedgedCall` wired to this pool's health + counters."""
        def on_hedge(endpoint: int) -> None:
            self._health[endpoint].record_hedge()
            self.stats.record("hedges")

        def on_failover(endpoint: int) -> None:
            self._health[endpoint].record_failover()
            self.stats.record("failovers")

        return HedgedCall(
            self.hedge_delay, clock=self._clock, recorder=self.recorder,
            ledger=self._ledger, on_hedge=on_hedge, on_failover=on_failover,
        )

    @property
    def outstanding(self) -> int:
        """Hedge/failover attempts currently in flight across the pool."""
        return self._ledger.outstanding

    def wait_drained(self, timeout: float | None = None) -> bool:
        return self._ledger.wait_drained(timeout)

    def info(self) -> list[dict]:
        """Per-endpoint health snapshot (what ops tooling renders)."""
        out = []
        for i, health in enumerate(self._health):
            snap = health.snapshot()
            snap["endpoint"] = i
            if self.addresses is not None and i < len(self.addresses):
                snap["address"] = self.addresses[i]
            out.append(snap)
        return out

    def __len__(self) -> int:
        return len(self._clients)

    def __iter__(self):
        return iter(self._clients)

    def close(self) -> None:
        """Close every transport; failures are recorded, never raised.

        A close that throws still must not stop its peers from closing,
        but it is evidence (leaked fd, broken shutdown path) — so it
        lands in the flight ring and the ``close_errors`` counter instead
        of vanishing.
        """
        for i, transport in enumerate(self._transports):
            try:
                transport.close()
            except Exception as exc:
                self.stats.record("close_errors")
                self.recorder.record(
                    "pool.close_error", endpoint=i,
                    error=f"{type(exc).__name__}: {exc}",
                )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
