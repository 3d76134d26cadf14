"""Named metric instruments and the unified registry — the one
metrics model.

Every count in ``src/`` is one of the instruments defined here, and
this is the only module that turns bucket counts into a quantile:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — named
  instruments a :class:`Registry` hands out get-or-create, so callsites
  never coordinate;
* :class:`Tally` — a locked bag of named integer counts for an owner
  that counts several events together (a cache's hits / misses /
  evictions / coalesced, a resilient transport's retries and timeouts,
  a fallback policy's fallbacks and bytes);
* *collectors* — any zero-arg callable returning a dict
  (``Tally.as_dict``, a cache's ``info``), attached with
  :meth:`Registry.register`;
* :func:`bucket_quantile` and :func:`snapshot_quantile` — the single
  walk from cumulative bucket counts to a rank, for live instruments
  and for the ``{"buckets": [{"le", "count"}, …]}`` snapshot shape.

:meth:`Registry.snapshot` renders everything as one plain-dict tree —
msgpack-safe, so a server ships its whole registry over RPC in one call
(the ``stats`` endpoint).

Histograms use exponential bucket boundaries by default (microseconds
to minutes), matching how request latencies actually spread.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable

from repro.errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Tally",
    "bucket_quantile",
    "exponential_buckets",
    "merge_snapshots",
    "snapshot_quantile",
]


def exponential_buckets(start: float = 1e-4, factor: float = 4.0,
                        count: int = 10) -> tuple[float, ...]:
    """Bucket upper bounds ``start * factor**i`` — the latency default
    spans 100 µs to ~26 s in 10 buckets."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ReproError(
            f"invalid bucket spec start={start} factor={factor} count={count}"
        )
    return tuple(start * factor**i for i in range(count))


def bucket_quantile(bounds, counts, q: float,
                    overflow: float | None = None) -> float:
    """Bucket-resolution quantile: the upper bound of the bucket that
    holds the ``q``-th observation.

    ``bounds`` are the finite upper bounds and ``counts`` the per-bucket
    (not cumulative) observation counts, with the ``+Inf`` bucket's
    count last.  No observations is 0.0.  A rank that lands in the
    ``+Inf`` bucket reports ``overflow`` when given, else the last
    finite bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ReproError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for idx, c in enumerate(counts):
        seen += c
        if seen >= rank:
            break
    if idx < len(bounds):
        return bounds[idx]
    if overflow is not None:
        return overflow
    return bounds[-1] if bounds else 0.0


def snapshot_quantile(hist: dict, q: float,
                      overflow: float | None = None) -> float:
    """:func:`bucket_quantile` of a :meth:`Histogram.as_dict` payload
    (what ``stats`` replies and :func:`merge_snapshots` carry)."""
    buckets = hist.get("buckets") or []
    return bucket_quantile(
        [float(b["le"]) for b in buckets if b.get("le") != "+Inf"],
        [int(b.get("count", 0)) for b in buckets],
        q, overflow,
    )


class Tally:
    """Thread-safe bag of named integer counts.

    With ``fields`` the names are fixed up front and an unknown one is a
    :class:`ReproError` in :meth:`record` and :meth:`get` alike — a typo
    at the callsite, not a zero.  Without, names appear on first use and
    an unseen name reads 0.
    """

    __slots__ = ("_lock", "_counts", "_fixed")

    def __init__(self, fields: tuple[str, ...] | None = None):
        self._lock = threading.Lock()
        self._fixed = fields is not None
        self._counts: dict[str, int] = dict.fromkeys(fields or (), 0)

    def _check(self, name: str) -> None:
        # A fixed bag's keys never change, so this read needs no lock.
        if self._fixed and name not in self._counts:
            raise ReproError(
                f"unknown count {name!r}; use {tuple(self._counts)}")

    def record(self, name: str, n: int = 1) -> None:
        self._check(name)
        if n < 0:
            raise ReproError(f"cannot record {n} occurrences of {name!r}")
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + n

    def get(self, name: str) -> int:
        self._check(name)
        with self._lock:
            return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.as_dict().items()))
        return f"Tally({inner})"


class Counter:
    """Monotonically increasing named count."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ReproError(f"counter {self.name!r} cannot decrease (inc {n})")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depth, cache occupancy)."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Cumulative-bucket histogram with a sum and count (Prometheus style).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket always
    exists, so every observation lands somewhere.

    Each bucket also keeps one **exemplar**: the identifying fields
    (trace id, msgid) of the *slowest* observation that landed in it.
    That turns a mute "+Inf count: 3" into a clickable pointer — the
    p999 bucket links straight to a dumpable trace.
    """

    __slots__ = ("name", "help", "buckets", "_lock", "_counts", "_sum",
                 "_count", "_exemplars")

    def __init__(self, name: str, buckets: tuple[float, ...] | None = None,
                 help: str = ""):
        self.name = name
        self.help = help
        bounds = tuple(buckets) if buckets is not None else exponential_buckets()
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ReproError(f"histogram buckets must be strictly increasing: {bounds}")
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # trailing slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._exemplars: list[dict | None] = [None] * (len(bounds) + 1)

    def observe(self, value: float, exemplar: dict | None = None) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if exemplar is not None:
                held = self._exemplars[idx]
                if held is None or value >= held["value"]:
                    self._exemplars[idx] = {"value": value, **exemplar}

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (see :func:`bucket_quantile`)."""
        with self._lock:
            counts = list(self._counts)
        return bucket_quantile(self.buckets, counts, q)

    def as_dict(self) -> dict:
        with self._lock:
            buckets = [
                {"le": b, "count": c}
                for b, c in zip(self.buckets, self._counts)
            ] + [{"le": "+Inf", "count": self._counts[-1]}]
            for slot, ex in zip(buckets, self._exemplars):
                if ex is not None:
                    slot["exemplar"] = dict(ex)
            return {
                "buckets": buckets,
                "sum": self._sum,
                "count": self._count,
            }


class Registry:
    """Get-or-create instrument registry plus collectors.

    ``register(name, fn)`` attaches any zero-arg callable returning a
    dict — ``Tally.as_dict``, a cache's ``info`` — so an owner's counts
    surface in :meth:`snapshot` under ``collected[name]``.
    """

    def __init__(self, namespace: str = "repro"):
        self.namespace = namespace
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, Callable[[], dict]] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name, help)
            return inst

    def gauge(self, name: str, help: str = "") -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name, help)
            return inst

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None,
                  help: str = "") -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, buckets, help)
            return inst

    def register(self, name: str, collector: Callable[[], dict]) -> None:
        """Attach a collector under ``name`` (last one wins)."""
        if not callable(collector):
            raise ReproError(f"collector for {name!r} is not callable")
        with self._lock:
            self._collectors[name] = collector

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One plain-dict view of every instrument and collector.

        Collector failures surface as ``{"error": ...}`` under their
        name instead of breaking the whole snapshot: a stats endpoint
        must stay up even when one source is sick.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            collectors = dict(self._collectors)
        collected = {}
        for name, fn in collectors.items():
            try:
                collected[name] = dict(fn())
            except Exception as exc:
                collected[name] = {"error": f"{type(exc).__name__}: {exc}"}
        helps = {
            n: inst.help
            for group in (counters, gauges, histograms)
            for n, inst in group.items() if inst.help
        }
        return {
            "namespace": self.namespace,
            "counters": {n: c.value for n, c in counters.items()},
            "gauges": {n: g.value for n, g in gauges.items()},
            "histograms": {n: h.as_dict() for n, h in histograms.items()},
            "collected": collected,
            "help": helps,
        }


# ---------------------------------------------------------------------------
# Cross-shard merging
# ---------------------------------------------------------------------------

def _merge_histogram_dicts(a: dict, b: dict) -> dict:
    """Sum two ``Histogram.as_dict`` payloads with identical bounds;
    on mismatched bounds the first operand wins (foreign shards cannot
    be merged losslessly).  Exemplars keep the slower of the pair."""
    a_les = [bk.get("le") for bk in a.get("buckets", [])]
    b_les = [bk.get("le") for bk in b.get("buckets", [])]
    if a_les != b_les:
        return a
    buckets = []
    for ba, bb in zip(a["buckets"], b["buckets"]):
        merged = {"le": ba["le"],
                  "count": int(ba.get("count", 0)) + int(bb.get("count", 0))}
        ex_a, ex_b = ba.get("exemplar"), bb.get("exemplar")
        ex = max(
            (e for e in (ex_a, ex_b) if e is not None),
            key=lambda e: e.get("value", 0.0), default=None,
        )
        if ex is not None:
            merged["exemplar"] = dict(ex)
        buckets.append(merged)
    return {
        "buckets": buckets,
        "sum": float(a.get("sum", 0.0)) + float(b.get("sum", 0.0)),
        "count": int(a.get("count", 0)) + int(b.get("count", 0)),
    }


def _merge_numeric_tree(a: dict, b: dict) -> dict:
    """Recursively sum matching numeric leaves; non-numeric leaves keep
    the first value seen.  Used for collector dicts across shards."""
    out = dict(a)
    for key, bval in b.items():
        aval = out.get(key)
        if aval is None:
            out[key] = bval
        elif isinstance(aval, dict) and isinstance(bval, dict):
            out[key] = _merge_numeric_tree(aval, bval)
        elif (isinstance(aval, (int, float)) and not isinstance(aval, bool)
              and isinstance(bval, (int, float)) and not isinstance(bval, bool)):
            out[key] = aval + bval
    return out


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Merge :meth:`Registry.snapshot` dicts from peer shards into one.

    Counters and gauges sum by name; histograms sum bucket-wise (the
    bounds are identical across shards by construction); collector trees
    sum their numeric leaves.  The result has the same shape as a single
    snapshot, so every renderer — tables, :func:`prometheus_text` —
    works on a whole cluster unchanged.
    """
    snapshots = [s for s in snapshots if s]
    if not snapshots:
        return {"namespace": "repro", "counters": {}, "gauges": {},
                "histograms": {}, "collected": {}}
    out = {
        "namespace": snapshots[0].get("namespace", "repro"),
        "counters": dict(snapshots[0].get("counters") or {}),
        "gauges": dict(snapshots[0].get("gauges") or {}),
        "histograms": {
            n: dict(h) for n, h in (snapshots[0].get("histograms") or {}).items()
        },
        "collected": dict(snapshots[0].get("collected") or {}),
        "help": dict(snapshots[0].get("help") or {}),
        "merged_from": 1,
    }
    for snap in snapshots[1:]:
        for name, value in (snap.get("counters") or {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        for name, value in (snap.get("gauges") or {}).items():
            out["gauges"][name] = out["gauges"].get(name, 0) + value
        for name, hist in (snap.get("histograms") or {}).items():
            held = out["histograms"].get(name)
            out["histograms"][name] = (
                _merge_histogram_dicts(held, hist) if held else dict(hist)
            )
        out["collected"] = _merge_numeric_tree(
            out["collected"], snap.get("collected") or {}
        )
        for name, text in (snap.get("help") or {}).items():
            out["help"].setdefault(name, text)
        out["merged_from"] += 1
    return out
