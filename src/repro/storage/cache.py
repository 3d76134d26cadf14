"""Storage-side caches: byte-budgeted LRU with single-flight coalescing.

Every NDP endpoint pays a full object read + decompress per request, even
when a movie client sweeps contour values over the *same* ``(key, array)``
— the exact access pattern the paper's Sec. VI evaluation loops generate.
Bethel et al.'s network-data-cache work and SkimROOT's near-storage
filtering both place a cache of decoded data next to the filter; this
module is that lever for the NDP server:

* :class:`ArrayCache` holds decoded ``(grid, entry)`` pairs keyed by
  ``(key, array, store version)`` so repeated pre-filters over one array
  skip the read + decompress phases entirely,
* :class:`SelectionCache` holds fully encoded pre-filter replies keyed by
  the complete request tuple, so *identical* requests skip the filter
  scan too.

Both are :class:`SingleFlightCache` instances: when N threads of the TCP
listener miss on the same key simultaneously, exactly one runs the loader
while the other N-1 block on its result ("single-flight" request
coalescing, after Go's ``golang.org/x/sync/singleflight``).  Without it a
popular object would stampede the store with N identical reads the moment
its entry expired.

Invalidation is by key versioning, not TTL: callers fold the store's
mtime/version token for the object into the cache key, so an overwritten
object simply misses (the stale entry ages out of the LRU tail).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.errors import ReproError
from repro.obs.metrics import Tally
from repro.obs.trace import NULL_TRACER

__all__ = ["SingleFlightCache", "ArrayCache", "SelectionCache"]


def _generic_sizeof(value: Any) -> int:
    """Best-effort byte size of a cached value for budget accounting."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, dict):
        return sum(_generic_sizeof(v) for v in value.values()) + 16 * len(value)
    if isinstance(value, (list, tuple)):
        return sum(_generic_sizeof(v) for v in value) or 16
    return 64  # scalars, strings, small metadata


class _InFlight:
    """One pending load: the leader fills it, waiters block on the event."""

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


class SingleFlightCache:
    """Thread-safe LRU cache with a byte budget and request coalescing.

    Parameters
    ----------
    max_bytes:
        Budget for cached values (as measured by ``sizeof``); least
        recently used entries are evicted to stay under it.
    sizeof:
        Maps a value to its charged byte size.  The default handles
        bytes/ndarray/dict-of-bytes shapes.
    name:
        Label used in stats and ``repr``.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; each lookup outcome
        (hit / miss / coalesced) is recorded as an event on the caller's
        current span, so a trace shows which phases a cache hit skipped.
    recorder:
        Optional :class:`~repro.obs.flightrec.FlightRecorder`; the same
        hit/miss/coalesced outcomes land in the always-on flight ring.
    """

    def __init__(
        self,
        max_bytes: int,
        sizeof: Callable[[Any], int] | None = None,
        name: str = "cache",
        tracer=None,
        recorder=None,
    ):
        if max_bytes <= 0:
            raise ReproError(f"cache budget must be > 0 bytes, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.name = name
        self._sizeof = sizeof if sizeof is not None else _generic_sizeof
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._inflight: dict[Hashable, _InFlight] = {}
        self._current_bytes = 0
        #: ``coalesced`` counts lookups that piggybacked on another
        #: thread's in-flight load; ``hits + misses + coalesced`` is the
        #: total number of lookups.
        self.stats = Tally(("hits", "misses", "evictions", "coalesced"))
        self.tracer = tracer if tracer is not None else NULL_TRACER
        from repro.obs.flightrec import NULL_RECORDER

        self.recorder = recorder if recorder is not None else NULL_RECORDER

    # ------------------------------------------------------------------
    def get_or_load(self, key: Hashable, loader: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, loading it at most once.

        On a miss the calling thread becomes the *leader* and runs
        ``loader()``; concurrent callers with the same key block until the
        leader finishes and share its result (or its exception).  Loader
        exceptions are never cached.
        """
        with self._lock:
            if key in self._entries:
                value, _ = self._entries[key]
                self._entries.move_to_end(key)
                self.stats.record("hits")
                self.tracer.add_event("cache.hit", cache=self.name)
                self.recorder.record("cache.hit", cache=self.name)
                return value
            flight = self._inflight.get(key)
            if flight is None:
                flight = _InFlight()
                self._inflight[key] = flight
                leader = True
                self.stats.record("misses")
                self.tracer.add_event("cache.miss", cache=self.name)
                self.recorder.record("cache.miss", cache=self.name)
            else:
                leader = False
                self.stats.record("coalesced")
                self.tracer.add_event("cache.coalesced", cache=self.name)
                self.recorder.record("cache.coalesced", cache=self.name)

        if not leader:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value

        try:
            value = loader()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        flight.value = value
        with self._lock:
            self._store(key, value)
            self._inflight.pop(key, None)
        flight.event.set()
        return value

    def _store(self, key: Hashable, value: Any) -> None:
        """Insert under the byte budget (caller holds the lock)."""
        nbytes = max(0, int(self._sizeof(value)))
        if nbytes > self.max_bytes:
            return  # would evict everything and still not fit: don't cache
        if key in self._entries:
            _, old = self._entries.pop(key)
            self._current_bytes -= old
        while self._entries and self._current_bytes + nbytes > self.max_bytes:
            _, (_, evicted) = self._entries.popitem(last=False)
            self._current_bytes -= evicted
            self.stats.record("evictions")
        self._entries[key] = (value, nbytes)
        self._current_bytes += nbytes

    # ------------------------------------------------------------------
    def peek(self, key: Hashable) -> Any | None:
        """Return the cached value without counting a hit or reordering."""
        with self._lock:
            entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._current_bytes -= entry[1]
        return entry is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._current_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a store load (hit or coalesced)."""
        counts = self.stats.as_dict()
        served = counts["hits"] + counts["coalesced"]
        total = served + counts["misses"]
        return served / total if total else 0.0

    def info(self) -> dict:
        """Counters + occupancy, as ``stats`` and ``health`` expose them."""
        with self._lock:
            occupancy = {
                "entries": len(self._entries),
                "current_bytes": self._current_bytes,
                "max_bytes": self.max_bytes,
            }
        return {"enabled": True, **self.stats.as_dict(), **occupancy}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, entries={len(self)}, "
            f"bytes={self.current_bytes}/{self.max_bytes})"
        )


def _array_sizeof(value: Any) -> int:
    """Size a decoded ``(grid, entry)`` pair by its raw (decoded) bytes."""
    try:
        _grid, entry = value
    except (TypeError, ValueError):
        return _generic_sizeof(value)
    raw = getattr(entry, "raw_bytes", None)
    return int(raw) if raw else _generic_sizeof(value)


class ArrayCache(SingleFlightCache):
    """LRU over decoded array blocks: ``(key, array, version) -> (grid, entry)``.

    A hit skips the object read *and* the decompress, which is why the
    NDP server only charges those Testbed phases inside the loader.
    """

    def __init__(self, max_bytes: int, name: str = "array_cache", tracer=None,
                 recorder=None):
        super().__init__(max_bytes, sizeof=_array_sizeof, name=name,
                         tracer=tracer, recorder=recorder)


class SelectionCache(SingleFlightCache):
    """LRU over encoded pre-filter replies, keyed by the full request tuple.

    Values are the msgpack-ready reply dicts (payload already wire-encoded
    and compressed), so a hit costs no scan, no encode, and no compress.
    """

    def __init__(self, max_bytes: int, name: str = "selection_cache", tracer=None,
                 recorder=None):
        super().__init__(max_bytes, sizeof=_generic_sizeof, name=name,
                         tracer=tracer, recorder=recorder)
