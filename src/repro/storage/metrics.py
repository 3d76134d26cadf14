"""Phase timers and byte counters for load-time breakdowns.

The paper measures "the time required for a pipeline to prepare data in
memory for contour generation" broken into read, decompress, filter, and
transfer components (Sec. VI).  :class:`LoadBreakdown` is that record;
:class:`PhaseTimer` fills it from a :class:`~repro.storage.netsim.SimClock`.

:class:`ResilienceStats` is the observability side of the fault-tolerant
transport (:mod:`repro.rpc.resilience`): it counts retries, timeouts,
breaker trips, and baseline fallbacks, plus the extra bytes the fallback
path pulled — the cost of *not* offloading when the NDP hop is down.

:class:`CacheStats` is the observability side of the storage-side caches
(:mod:`repro.storage.cache`): hits, misses, evictions, and coalesced
(single-flight) waiters, surfaced through ``server_stats``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "ByteCounter",
    "CacheStats",
    "PhaseTimer",
    "LoadBreakdown",
    "ResilienceStats",
]


class CacheStats:
    """Thread-safe hit/miss/eviction/coalesced counters for one cache.

    ``coalesced`` counts requests that piggybacked on another thread's
    in-flight load (single-flight request coalescing) instead of reading
    the store themselves; ``hits + misses + coalesced`` is the total
    number of lookups.
    """

    _FIELDS = ("hits", "misses", "evictions", "coalesced")

    def __init__(self, name: str = "cache"):
        self.name = name
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(self._FIELDS, 0)

    def record(self, event: str, n: int = 1) -> None:
        if event not in self._counts:
            raise ReproError(f"unknown cache event {event!r}; use {self._FIELDS}")
        if n < 0:
            raise ReproError(f"cannot record {n} occurrences of {event!r}")
        with self._lock:
            self._counts[event] += n

    def get(self, event: str) -> int:
        if event not in self._counts:
            # Same contract as record(): an unknown event name is a typo
            # at the callsite, not a zero — fail loudly either direction.
            raise ReproError(f"unknown cache event {event!r}; use {self._FIELDS}")
        with self._lock:
            return self._counts[event]

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a store load (hit or coalesced)."""
        with self._lock:
            served = self._counts["hits"] + self._counts["coalesced"]
            total = served + self._counts["misses"]
        return served / total if total else 0.0

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.as_dict().items()))
        return f"CacheStats({self.name!r}, {inner})"


class ByteCounter:
    """Counts bytes attributed to named categories.

    Thread-safe, like its ``CacheStats``/``ResilienceStats`` siblings:
    the read-modify-write in :meth:`add` is reachable from the TCP
    server's worker threads, where unlocked ``dict.get``+assign pairs can
    lose increments under contention.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def add(self, category: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ReproError(f"cannot count {nbytes} bytes")
        with self._lock:
            self._counts[category] = self._counts.get(category, 0) + nbytes

    def get(self, category: str) -> int:
        with self._lock:
            return self._counts.get(category, 0)

    @property
    def total(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


class ResilienceStats:
    """Event counters for the resilient NDP path.

    One instance is typically shared between a
    :class:`~repro.rpc.resilience.ResilientTransport` (which records
    ``attempts``/``retries``/``failures``/``successes``/``timeouts``/
    ``breaker_trips``/``breaker_rejections``) and a
    :class:`~repro.core.ndp_client.FallbackPolicy` (which records
    ``fallbacks``, ``fallback_bytes``, and ``ndp_successes``).  Thread-safe:
    the TCP client may retry from several threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._events: dict[str, int] = {}
        #: human-readable reason for the most recent baseline fallback
        self.last_fallback_reason: str | None = None

    def record(self, event: str, n: int = 1) -> None:
        if n < 0:
            raise ReproError(f"cannot record {n} occurrences of {event!r}")
        with self._lock:
            self._events[event] = self._events.get(event, 0) + n

    def get(self, event: str) -> int:
        with self._lock:
            return self._events.get(event, 0)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return dict(self._events)

    @property
    def fallback_rate(self) -> float:
        """Fraction of completed NDP requests served by the baseline path."""
        with self._lock:
            fallbacks = self._events.get("fallbacks", 0)
            done = fallbacks + self._events.get("ndp_successes", 0)
        return fallbacks / done if done else 0.0

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.as_dict().items()))
        return f"ResilienceStats({inner})"


@dataclass
class LoadBreakdown:
    """Per-phase simulated seconds for one data-load operation."""

    phases: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        if seconds < 0:
            raise ReproError(f"negative phase time {seconds} for {phase!r}")
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def merge(self, other: "LoadBreakdown") -> "LoadBreakdown":
        out = LoadBreakdown(dict(self.phases))
        for phase, seconds in other.phases.items():
            out.add(phase, seconds)
        return out

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(self.phases.items()))
        return f"LoadBreakdown(total={self.total:.4f}s, {inner})"


class PhaseTimer:
    """Attributes simulated-clock deltas to named phases.

    Usage::

        timer = PhaseTimer(clock)
        with timer.phase("read"):
            ssd.read(nbytes)          # advances the clock
        breakdown = timer.breakdown

    Nesting records **exclusive (self) time**: a ``phase`` block's
    attribution excludes any interval covered by phases nested inside
    it, so the breakdown's total always equals the real clock interval
    — the same well-defined semantics the span tracer
    (:mod:`repro.obs.trace`) assumes when it renders self-time per
    phase.  (Previously a nested block's interval was double-counted
    into both phases, silently inflating totals.)
    """

    def __init__(self, clock):
        self._clock = clock
        self.breakdown = LoadBreakdown()
        self._stack: list[_PhaseContext] = []

    def phase(self, name: str):
        return _PhaseContext(self, name)


class _PhaseContext:
    def __init__(self, timer: PhaseTimer, name: str):
        self._timer = timer
        self._name = name
        self._start = 0.0
        self._child_time = 0.0

    def __enter__(self):
        self._start = self._timer._clock.now
        self._timer._stack.append(self)
        return self

    def __exit__(self, *exc):
        elapsed = self._timer._clock.now - self._start
        stack = self._timer._stack
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            # The enclosing phase must not count this interval again.
            stack[-1]._child_time += elapsed
        self._timer.breakdown.add(self._name, max(0.0, elapsed - self._child_time))
