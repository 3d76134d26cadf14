"""Open-loop load generator for the RPC server.

Closed-loop benchmarks (issue, wait, issue again) hide overload: a slow
server simply slows the generator down, so measured latency stays flat
while real-world clients — who do *not* politely wait for each other —
would be piling up.  This generator is **open-loop**: request arrival
times are drawn up front from a Poisson process at the target rate, and
each request's latency is measured from its *scheduled* arrival, so time
spent queued behind a saturated server or a blocking socket counts
against the server (no coordinated omission).

Each connection is one :class:`~repro.rpc.transport.TCPTransport`;
requests are pipelined via ``submit`` with done-callbacks, so an
arbitrary number of them ride each socket concurrently.

The report carries p50/p90/p99/p999, an error/shed breakdown, and a
coarse log-scale histogram suitable for shipping into
``BENCH_results.json``.
"""

from __future__ import annotations

import math
import random
import threading
import time

from repro.errors import FormatError, ServerOverloadedError
from repro.rpc import envelope
from repro.rpc.transport import TCPTransport

__all__ = ["LoadReport", "run_load"]

# Histogram bucket upper bounds in seconds (log-spaced, last is +inf).
_BUCKETS = [0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
            0.1, 0.2, 0.5, 1.0, 2.0, 5.0]


def _percentile(sorted_vals: list, q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, math.ceil(q * len(sorted_vals)) - 1))
    return sorted_vals[idx]


class LoadReport:
    """Aggregated outcome of one load-generation run."""

    def __init__(self, connections: int, rate: float,
                 duration: float, latencies: list, ok: int, shed: int,
                 errors: int, wall: float, slowest: dict | None = None):
        self.connections = connections
        self.rate = rate
        self.duration = duration
        self.ok = ok
        self.shed = shed
        self.errors = errors
        self.wall = wall
        self.slowest = slowest
        self.sent = ok + shed + errors
        lat = sorted(latencies)
        self.mean = sum(lat) / len(lat) if lat else 0.0
        self.p50 = _percentile(lat, 0.50)
        self.p90 = _percentile(lat, 0.90)
        self.p99 = _percentile(lat, 0.99)
        self.p999 = _percentile(lat, 0.999)
        self.max = lat[-1] if lat else 0.0
        self.histogram = self._histogram(lat)
        self.throughput = self.ok / wall if wall > 0 else 0.0

    @staticmethod
    def _histogram(sorted_lat: list) -> list:
        counts = [0] * (len(_BUCKETS) + 1)
        for v in sorted_lat:
            for i, bound in enumerate(_BUCKETS):
                if v <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        return [
            {"le": _BUCKETS[i] if i < len(_BUCKETS) else "inf", "count": c}
            for i, c in enumerate(counts)
        ]

    def to_dict(self) -> dict:
        return {
            "connections": self.connections,
            "rate_hz": self.rate,
            "duration_s": self.duration,
            "wall_s": self.wall,
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "throughput_hz": self.throughput,
            "latency_s": {
                "mean": self.mean, "p50": self.p50, "p90": self.p90,
                "p99": self.p99, "p999": self.p999, "max": self.max,
            },
            "histogram": self.histogram,
            "slowest": self.slowest,
        }

    def summary(self) -> str:
        out = (
            f"{self.connections} conns @ {self.rate:.0f} Hz "
            f"— {self.ok} ok / {self.shed} shed / {self.errors} err, "
            f"p50 {self.p50 * 1e3:.1f} ms, p99 {self.p99 * 1e3:.1f} ms, "
            f"p999 {self.p999 * 1e3:.1f} ms"
        )
        if self.slowest:
            # The exemplar: which request paid the max — the first thing
            # an operator greps a flight dump or trace for.
            out += (
                f" (slowest {self.slowest['latency_s'] * 1e3:.1f} ms: "
                f"conn {self.slowest['connection']} "
                f"msgid {self.slowest['msgid']} [{self.slowest['kind']}])"
            )
        return out


def _classify(raw: bytes) -> str:
    """ok / shed / errors — the counter one raw response payload lands in."""
    try:
        line = envelope.peek_error(raw)
    except FormatError:
        return "errors"
    if line is None:
        return "ok"
    shed = envelope.parse_error(line)[0] is ServerOverloadedError
    return "shed" if shed else "errors"


def _arrivals(rate: float, duration: float, rng: random.Random) -> list:
    """Poisson arrival offsets (seconds from start) for one connection."""
    out, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return out
        out.append(t)


def run_load(
    host: str,
    port: int,
    connections: int = 4,
    rate: float = 50.0,
    duration: float = 2.0,
    method: str = "health",
    params: tuple = (),
    tenant: str | None = None,
    timeout: float = 30.0,
    seed: int = 1234,
) -> LoadReport:
    """Drive ``connections`` open-loop Poisson streams at ``rate`` req/s each.

    Latency is measured from each request's scheduled arrival, so a
    server (or a blocked socket) that falls behind accumulates queueing
    delay in the numbers instead of silently slowing the generator.
    """
    rng = random.Random(seed)
    plans = [_arrivals(rate, duration, rng) for _ in range(connections)]

    lock = threading.Lock()
    latencies: list = []
    counts = {"ok": 0, "shed": 0, "errors": 0}
    slowest: dict = {}

    def record(kind: str, latency: float, conn: int = -1,
               msgid: int = -1) -> None:
        with lock:
            counts[kind] += 1
            latencies.append(latency)
            if not slowest or latency > slowest["latency_s"]:
                slowest.update({
                    "latency_s": latency, "connection": conn,
                    "msgid": msgid, "kind": kind,
                })

    start_barrier = threading.Barrier(connections + 1)
    clock = time.monotonic

    def frame(msgid: int) -> bytes:
        return envelope.request(msgid, method, list(params),
                                {"tenant": tenant} if tenant else None)

    def run(conn: int, plan: list) -> None:
        # Lazy dial: construction cannot fail, so the start barrier is
        # always reached and dial errors surface per-request instead.
        transport = TCPTransport(host, port, timeout=timeout, lazy=True)
        inflight = []
        try:
            start_barrier.wait()
            t0 = clock()
            for i, offset in enumerate(plan):
                delay = t0 + offset - clock()
                if delay > 0:
                    time.sleep(delay)
                scheduled = t0 + offset

                def done(fut, scheduled=scheduled, msgid=i + 1):
                    latency = clock() - scheduled
                    # A raw transport only fails as a transport; a shed is
                    # a reply, classified like every other reply.
                    kind = ("errors" if fut.exception() is not None
                            else _classify(fut.result()))
                    record(kind, latency, conn, msgid)

                try:
                    fut = transport.submit(frame(i + 1))
                except Exception:
                    record("errors", clock() - scheduled, conn, i + 1)
                    continue
                fut.add_done_callback(done)
                inflight.append(fut)
            deadline = clock() + timeout
            for fut in inflight:
                left = max(0.0, deadline - clock())
                try:
                    fut.exception(timeout=left)
                except Exception:
                    # Timed-out futures were never recorded by the
                    # callback; count them so sent == len(plan).
                    record("errors", clock() - t0)
        finally:
            transport.close()

    threads = [
        threading.Thread(target=run, args=(i, plan), daemon=True,
                         name=f"loadgen-{i}")
        for i, plan in enumerate(plans)
    ]
    for t in threads:
        t.start()
    start_barrier.wait()
    wall0 = clock()
    for t in threads:
        t.join(timeout=duration + timeout + 10.0)
    wall = clock() - wall0

    shed = counts["shed"]
    return LoadReport(
        connections=connections, rate=rate, duration=duration,
        latencies=latencies, ok=counts["ok"], shed=shed,
        errors=counts["errors"], wall=wall,
        slowest=slowest or None,
    )
