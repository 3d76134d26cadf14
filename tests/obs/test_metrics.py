"""Unit tests for Counter/Gauge/Histogram and the unified Registry."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    RollingSketch,
    exponential_buckets,
)
from repro.obs.metrics import Tally, bucket_quantile, snapshot_quantile


class TestBuckets:
    def test_exponential_defaults(self):
        buckets = exponential_buckets()
        assert len(buckets) == 10
        assert buckets[0] == pytest.approx(1e-4)
        for lo, hi in zip(buckets, buckets[1:]):
            assert hi == pytest.approx(lo * 4.0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ReproError):
            exponential_buckets(start=0)
        with pytest.raises(ReproError):
            exponential_buckets(factor=1.0)
        with pytest.raises(ReproError):
            exponential_buckets(count=0)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("requests")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_decrease_rejected(self):
        with pytest.raises(ReproError):
            Counter("requests").inc(-1)

    def test_thread_safety(self):
        c = Counter("n")
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value == 3


class TestHistogram:
    def test_observe_lands_in_correct_bucket(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        h.observe(0.5)    # <= 1.0
        h.observe(1.0)    # boundary: le=1.0 bucket (upper bound inclusive)
        h.observe(50.0)   # <= 100.0
        h.observe(1000.0)  # +Inf
        d = h.as_dict()
        per_bucket = {b["le"]: b["count"] for b in d["buckets"]}
        assert per_bucket == {1.0: 2, 10.0: 0, 100.0: 1, "+Inf": 1}
        assert d["count"] == 4
        assert d["sum"] == pytest.approx(1051.5)

    def test_quantiles(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 4.0
        assert Histogram("empty").quantile(0.9) == 0.0
        with pytest.raises(ReproError):
            h.quantile(1.5)

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ReproError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ReproError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_count_and_sum(self):
        h = Histogram("h")
        h.observe(0.001)
        h.observe(0.002)
        assert h.count == 2
        assert h.sum == pytest.approx(0.003)


class TestExemplars:
    def test_exemplar_attached_to_bucket(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        h.observe(0.5, exemplar={"trace_id": "t1", "span_id": "s1"})
        h.observe(50.0)  # no exemplar: bucket stays bare
        d = h.as_dict()
        by_le = {b["le"]: b for b in d["buckets"]}
        assert by_le[1.0]["exemplar"] == {
            "value": 0.5, "trace_id": "t1", "span_id": "s1",
        }
        assert "exemplar" not in by_le["+Inf"]

    def test_slowest_observation_wins_per_bucket(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(0.2, exemplar={"trace_id": "fast"})
        h.observe(0.9, exemplar={"trace_id": "slow"})
        h.observe(0.5, exemplar={"trace_id": "mid"})
        d = h.as_dict()
        ex = d["buckets"][0]["exemplar"]
        assert ex["trace_id"] == "slow"
        assert ex["value"] == pytest.approx(0.9)

    def test_snapshot_stays_msgpack_safe(self):
        from repro.rpc import pack, unpack

        reg = Registry()
        reg.histogram("lat").observe(0.5, exemplar={"trace_id": "t"})
        assert unpack(pack(reg.snapshot())) == reg.snapshot()


class TestMergeSnapshots:
    def _snap(self, requests, hist_obs=(), collected=None):
        reg = Registry()
        reg.counter("requests").inc(requests)
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for value, exemplar in hist_obs:
            h.observe(value, exemplar=exemplar)
        for name, fn in (collected or {}).items():
            reg.register(name, fn)
        return reg.snapshot()

    def test_counters_and_histograms_sum(self):
        from repro.obs import merge_snapshots

        merged = merge_snapshots([
            self._snap(3, [(0.5, None)]),
            self._snap(4, [(0.7, None), (50.0, None)]),
        ])
        assert merged["counters"]["requests"] == 7
        assert merged["merged_from"] == 2
        hist = merged["histograms"]["lat"]
        assert hist["count"] == 3
        by_le = {b["le"]: b["count"] for b in hist["buckets"]}
        assert by_le == {1.0: 2, 10.0: 0, "+Inf": 1}
        assert hist["sum"] == pytest.approx(51.2)

    def test_exemplar_merge_keeps_slower(self):
        from repro.obs import merge_snapshots

        merged = merge_snapshots([
            self._snap(1, [(0.4, {"trace_id": "a"})]),
            self._snap(1, [(0.8, {"trace_id": "b"})]),
        ])
        ex = merged["histograms"]["lat"]["buckets"][0]["exemplar"]
        assert ex["trace_id"] == "b"

    def test_collector_trees_sum_numeric_leaves(self):
        from repro.obs import merge_snapshots

        merged = merge_snapshots([
            self._snap(0, collected={"cache": lambda: {
                "hits": 3, "name": "array", "enabled": True,
                "nested": {"bytes": 10},
            }}),
            self._snap(0, collected={"cache": lambda: {
                "hits": 4, "name": "other", "enabled": False,
                "nested": {"bytes": 5},
            }}),
        ])
        cache = merged["collected"]["cache"]
        assert cache["hits"] == 7
        assert cache["nested"]["bytes"] == 15
        # Non-numeric (and bool) leaves keep the first shard's value.
        assert cache["name"] == "array"
        assert cache["enabled"] is True

    def test_empty_and_single_inputs(self):
        from repro.obs import merge_snapshots

        empty = merge_snapshots([])
        assert empty["counters"] == {}
        one = merge_snapshots([self._snap(2)])
        assert one["counters"]["requests"] == 2
        assert one["merged_from"] == 1


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = Registry()
        assert reg.counter("requests") is reg.counter("requests")
        assert reg.gauge("depth") is reg.gauge("depth")
        assert reg.histogram("lat") is reg.histogram("lat")

    def test_snapshot_shape(self):
        reg = Registry(namespace="testns")
        reg.counter("requests").inc(3)
        reg.gauge("depth").set(2)
        reg.histogram("lat").observe(0.01)
        snap = reg.snapshot()
        assert snap["namespace"] == "testns"
        assert snap["counters"] == {"requests": 3}
        assert snap["gauges"] == {"depth": 2}
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["collected"] == {}

    def test_legacy_collectors_absorbed(self):
        reg = Registry()
        cache = Tally(("hits", "misses"))
        cache.record("hits", 3)
        resilience = Tally()
        resilience.record("retries", 2)
        reg.register("array_cache", cache.as_dict)
        reg.register("resilience", resilience.as_dict)
        snap = reg.snapshot()
        assert snap["collected"]["array_cache"]["hits"] == 3
        assert snap["collected"]["resilience"]["retries"] == 2

    def test_broken_collector_does_not_break_snapshot(self):
        reg = Registry()
        reg.counter("ok").inc()

        def sick():
            raise RuntimeError("source down")

        reg.register("sick", sick)
        snap = reg.snapshot()
        assert snap["counters"] == {"ok": 1}
        assert snap["collected"]["sick"] == {"error": "RuntimeError: source down"}

    def test_non_callable_collector_rejected(self):
        with pytest.raises(ReproError):
            Registry().register("x", {"not": "callable"})

    def test_snapshot_is_msgpack_safe(self):
        from repro.rpc import pack, unpack

        reg = Registry()
        reg.counter("requests").inc()
        reg.histogram("lat").observe(0.5)
        reg.register("cache", Tally(("hits", "misses")).as_dict)
        assert unpack(pack(reg.snapshot())) == reg.snapshot()


class TestTally:
    def test_open_bag_counts_any_name(self):
        t = Tally()
        t.record("retries")
        t.record("bytes", 4096)
        assert (t.get("retries"), t.get("bytes"), t.get("unseen")) == (1, 4096, 0)
        assert t.as_dict() == {"retries": 1, "bytes": 4096}
        assert repr(t) == "Tally(bytes=4096, retries=1)"

    def test_fixed_fields_start_at_zero_and_reject_typos(self):
        t = Tally(("hits", "misses"))
        assert t.as_dict() == {"hits": 0, "misses": 0}
        for call in (t.record, t.get):
            with pytest.raises(ReproError, match="unknown count 'hit'"):
                call("hit")
        assert t.as_dict() == {"hits": 0, "misses": 0}

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            Tally().record("retries", -1)


# ---------------------------------------------------------------------------
# One quantile routine: the five bodies it replaced, kept verbatim as
# references (only their names changed), must agree with it everywhere.
# ---------------------------------------------------------------------------


class _Replaced:
    """State shaped like the old owners', so the bodies stay verbatim."""

    def __init__(self, buckets, counts):
        self.buckets = tuple(buckets)
        self._counts = list(counts)
        self._count = sum(counts)
        self._lock = threading.Lock()

    def merged(self):
        return {"counts": list(self._counts), "count": self._count}

    def histogram_quantile(self, q: float) -> float:  # obs/metrics.py:149
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for idx, c in enumerate(counts):
            seen += c
            if seen >= rank:
                return self.buckets[min(idx, len(self.buckets) - 1)]
        return self.buckets[-1]

    def sketch_quantile(self, q: float, merged: dict | None = None) -> float:
        # obs/slo.py:122
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        data = merged if merged is not None else self.merged()
        total = data["count"]
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for idx, c in enumerate(data["counts"]):
            seen += c
            if seen >= rank:
                return self.buckets[min(idx, len(self.buckets) - 1)]
        return self.buckets[-1]


def replaced_top_quantile(hist: dict, q: float) -> float:  # obs/top.py:49
    count = int(hist.get("count", 0))
    if count == 0:
        return 0.0
    rank = q * count
    seen = 0
    last = 0.0
    for bucket in hist.get("buckets", []):
        le = bucket.get("le")
        seen += int(bucket.get("count", 0))
        if le != "+Inf":
            last = float(le)
        if seen >= rank:
            return last if le == "+Inf" else float(le)
    return last


def replaced_rebalance_p99(hist: dict) -> float:  # cluster/rebalance.py:124
    count = int(hist.get("count", 0))
    if count == 0:
        return 0.0
    rank = 0.99 * count
    seen, last = 0, 0.0
    for bucket in hist.get("buckets", []):
        le = bucket.get("le")
        seen += int(bucket.get("count", 0))
        if le != "+Inf":
            last = float(le)
        if seen >= rank:
            return last if le == "+Inf" else float(le)
    return last


def replaced_cli_summary(hist: dict) -> str:  # cli.py:775, closure at :784
    count = int(hist.get("count", 0))
    if count == 0:
        return "no observations"
    mean = hist.get("sum", 0.0) / count

    def quantile(q: float) -> str:
        rank = q * count
        seen = 0
        for bucket in hist.get("buckets", []):
            seen += int(bucket.get("count", 0))
            if seen >= rank:
                le = bucket.get("le")
                return "+Inf" if le == "+Inf" else f"{float(le) * 1e3:.3g}ms"
        return "+Inf"

    return (
        f"count={count} mean={mean * 1e3:.3g}ms "
        f"p50<={quantile(0.5)} p90<={quantile(0.9)} p99<={quantile(0.99)}"
    )


def as_snapshot(bounds, counts) -> dict:
    """The ``Histogram.as_dict`` shape for given per-bucket counts."""
    les = [*bounds, "+Inf"]
    return {
        "buckets": [{"le": le, "count": c} for le, c in zip(les, counts)],
        "sum": 0.25 * sum(counts),
        "count": sum(counts),
    }


@st.composite
def histograms(draw):
    bounds = sorted(draw(st.sets(
        st.floats(1e-6, 1e6, allow_nan=False), min_size=1, max_size=8)))
    shape = draw(st.sampled_from(["any", "empty", "all-in-inf", "one-bucket"]))
    n = len(bounds) + 1
    if shape == "any":
        counts = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    elif shape == "empty":
        counts = [0] * n
    else:
        hot = n - 1 if shape == "all-in-inf" else draw(st.integers(0, n - 1))
        counts = [0] * n
        counts[hot] = draw(st.integers(1, 40))
    return bounds, counts


quantiles = st.one_of(
    st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]), st.floats(0.0, 1.0))


class TestOneQuantileRoutine:
    @given(histograms(), quantiles)
    def test_equals_the_two_live_instrument_bodies(self, hist, q):
        bounds, counts = hist
        old = _Replaced(bounds, counts)
        assert bucket_quantile(bounds, counts, q) \
            == old.histogram_quantile(q) == old.sketch_quantile(q)

    @given(histograms(), quantiles)
    def test_equals_the_two_snapshot_bodies(self, hist, q):
        snap = as_snapshot(*hist)
        assert snapshot_quantile(snap, q) == replaced_top_quantile(snap, q)
        assert snapshot_quantile(snap, 0.99) == replaced_rebalance_p99(snap)

    @given(histograms())
    def test_cli_summary_prints_what_it_did(self, hist):
        from repro.obs.top import latency_summary as _hist_summary

        snap = as_snapshot(*hist)
        assert _hist_summary(snap) == replaced_cli_summary(snap)

    def test_cli_still_prints_inf_for_the_overflow_bucket(self):
        from repro.obs.top import latency_summary as _hist_summary

        snap = as_snapshot((0.001, 0.004), (1, 0, 9))
        assert _hist_summary(snap).endswith(
            "p50<=+Inf p90<=+Inf p99<=+Inf")
        assert snapshot_quantile(snap, 0.5) == 0.004  # tables clamp instead

    @given(histograms(), quantiles)
    @settings(max_examples=25)
    def test_live_instruments_route_through_it(self, hist, q):
        bounds, counts = hist
        values = [*bounds, bounds[-1] * 2]  # one value inside every bucket
        live = Histogram("h", buckets=bounds)
        sketch = RollingSketch(buckets=tuple(bounds))
        for value, c in zip(values, counts):
            for _ in range(c):
                live.observe(value)
                sketch.observe(value)
        expected = bucket_quantile(bounds, counts, q)
        assert live.quantile(q) == sketch.quantile(q) == expected

    def test_only_an_overflow_bucket(self):
        snap = {"buckets": [{"le": "+Inf", "count": 3}], "sum": 1.0, "count": 3}
        assert snapshot_quantile(snap, 0.5) == replaced_top_quantile(snap, 0.5)
        assert snapshot_quantile({}, 0.5) == 0.0

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ReproError):
            bucket_quantile((1.0,), (1, 0), 1.5)


def test_stats_snapshot_carries_every_path_the_perf_ledger_reads():
    """``perf/layers.py`` takes deltas of exactly these ``stats`` paths;
    a renamed key there reads as a silent zero, not an error."""
    from repro.rpc import RPCClient, TCPTransport
    from tests.obs.test_stats_shape import SERVE, drive, warmed_server

    server = warmed_server()
    listener = server.serve_tcp(**SERVE)
    client = RPCClient(TCPTransport(listener.host, listener.port, timeout=10.0))
    try:
        drive(server, listener, client)
        snap = server.stats_snapshot()
    finally:
        client.close()
        listener.stop()
    read = {
        path: snap[path[0]][path[1]][path[2]]
        for path in [
            ("collected", "array_cache", "hits"),
            ("collected", "array_cache", "misses"),
            ("collected", "selection_cache", "hits"),
            ("collected", "selection_cache", "misses"),
            ("collected", "admission", "shed"),
            ("histograms", "request_latency_seconds", "sum"),
            ("histograms", "request_latency_seconds", "count"),
        ]
    }
    latency_sum = read.pop(("histograms", "request_latency_seconds", "sum"))
    assert latency_sum > 0.0
    assert read == {
        ("collected", "array_cache", "hits"): 0,
        ("collected", "array_cache", "misses"): 1,
        ("collected", "selection_cache", "hits"): 1,
        ("collected", "selection_cache", "misses"): 1,
        ("collected", "admission", "shed"): 1,
        ("histograms", "request_latency_seconds", "count"): 2,
    }
