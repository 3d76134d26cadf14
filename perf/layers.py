"""Per-layer metrics of a traced run, named ``<module>.<metric>``.

Times come from spans (real path: ``request`` trees recorded around the
client pieces; server half: ``replay`` trees), frequencies from deltas of the
server's ``stats`` RPC.  A metric whose layer did no work on a workload
reads 0 — every workload reports every name.
"""

from __future__ import annotations

from perf.quantiles import median, percentile, spread
from perf.replay import HANDLER_SPANS
from perf.spans import Recorder, Span

MB = 1e6


def _p50_ms(seconds) -> float:
    seconds = list(seconds)
    return percentile(seconds, 50) * 1e3 if seconds else 0.0


def _span_p50_ms(spans: list[Span]) -> float:
    return _p50_ms(s.duration for s in spans)


def _rate(amount: float, seconds: float, scale: float = 1.0) -> float:
    return amount / seconds / scale if seconds else 0.0


def _named(spans: list[Span], name: str, **attrs) -> list[Span]:
    return [s for s in spans if s.name == name
            and all(s.attrs.get(k) == v for k, v in attrs.items())]


def _throughput(spans: list[Span], attr: str, scale: float) -> float:
    return _rate(sum(s.attrs[attr] for s in spans),
                 sum(s.duration for s in spans), scale)


def _delta(rounds: list, *path) -> float:
    total = 0.0
    for result in rounds:
        before, after = result.stats
        for key in path:
            before, after = before[key], after[key]
        total += after - before
    return total


def _hit_ratio(rounds: list, cache: str) -> float:
    hits = _delta(rounds, "collected", cache, "hits")
    return _rate(hits, hits + _delta(rounds, "collected", cache, "misses"))


def layer_metrics(real: list[Recorder], replayed: Recorder, rounds: list,
                  baseline, contour_grid_seconds: list) -> dict:
    """``name -> (value, unit)`` for every per-layer metric.

    ``real`` holds one recorder per tenant (traced rounds), ``replayed`` the
    server-half replays, ``rounds`` the traced rounds and ``baseline`` the
    untraced round the same run held between them.
    """
    client = [span for recorder in real for span in recorder.spans]
    server = replayed.spans

    # rpc: link sleep and handler time per *pre-filter* call — the only
    # calls the server's request-latency histogram observes
    calls = _named(client, "rpc.call")
    prefilter = [s for s in calls if s.attrs["method"].startswith("prefilter_")]
    handler_mean = _rate(
        _delta(rounds, "histograms", "request_latency_seconds", "sum"),
        _delta(rounds, "histograms", "request_latency_seconds", "count"))
    overhead = 0.0
    if prefilter:
        overhead = (sum(s.duration - s.attrs["link_seconds"] for s in prefilter)
                    / len(prefilter) - handler_mean)
    tcp = _named(client, "rpc.tcp")

    # server half: span durations per replayed pre-filter request
    replays: dict[str, dict[str, float]] = {}
    for span in server:
        replays.setdefault(span.request, {})[span.name] = span.duration
    replays = {r: d for r, d in replays.items() if "core.scan" in d}
    replay_mean = _rate(
        sum(d[name] for d in replays.values() for name in HANDLER_SPANS),
        len(replays))

    reads = _named(server, "storage.read")
    sums = _named(server, "io.checksum")
    scans = _named(server, "core.scan")
    wire = _named(server, "compression.wire_encode")
    post = _named(client, "core.postfilter")
    raster = _named(client, "render.rasterize")
    spins = [r.spin for r in rounds + [baseline]]

    out = {
        "storage.read_ms_p50": (_span_p50_ms(reads), "ms"),
        "storage.read_mb_per_s": (_throughput(reads, "bytes", MB), "MB/s"),
        "storage.array_cache_hit_ratio": (_hit_ratio(rounds, "array_cache"), "ratio"),
        "storage.selection_cache_hit_ratio": (
            _hit_ratio(rounds, "selection_cache"), "ratio"),
        "storage.server_peak_rss_mb": (max(r.peak_rss_mb for r in rounds), "MB"),
        "io.checksum_mb_per_s": (_throughput(sums, "bytes", MB), "MB/s"),
        "io.ppm_encode_ms_p50": (_span_p50_ms(_named(client, "io.ppm_encode")), "ms"),
    }
    for codec in ("gzip", "lz4"):
        decodes = _named(server, "compression.store_decode", codec=codec)
        out[f"compression.store_decode_ms_p50.{codec}"] = (
            _span_p50_ms(decodes), "ms")
        out[f"compression.store_decode_mb_per_s.{codec}"] = (
            _throughput(decodes, "bytes", MB), "MB/s")
    out.update({
        # the wire-codec spans cover the whole call; the codec's own share
        # is what the same call costs beyond its "raw" twin
        "compression.wire_encode_ms_p50": (_p50_ms(
            d["compression.wire_encode"] - d["core.encode"]
            for d in replays.values()), "ms"),
        "compression.wire_decode_ms_p50": (_p50_ms(
            d["compression.wire_decode"] - d["core.decode"]
            for d in replays.values()), "ms"),
        "compression.wire_ratio": (_rate(
            sum(s.attrs["raw_size"] for s in wire),
            sum(s.attrs["wire_size"] for s in wire)), "ratio"),
        "core.scan_ms_p50": (_span_p50_ms(scans), "ms"),
        "core.scan_mb_per_s": (_throughput(scans, "bytes", MB), "MB/s"),
        "core.selectivity": (_rate(sum(s.attrs["selected"] for s in scans),
                                   sum(s.attrs["total"] for s in scans)), "ratio"),
        "core.encode_ms_p50": (_span_p50_ms(_named(server, "core.encode")), "ms"),
        "core.checksum_ms_p50": (_span_p50_ms(_named(server, "core.checksum")), "ms"),
        "core.decode_ms_p50": (_span_p50_ms(_named(server, "core.decode")), "ms"),
        "core.postfilter_ms_p50": (_span_p50_ms(post), "ms"),
        "core.postfilter_ktris_per_s": (_throughput(post, "triangles", 1e3), "k/s"),
        "filters.contour_grid_ms_p50": (_p50_ms(contour_grid_seconds), "ms"),
        "rpc.pack_ms_p50": (_span_p50_ms(_named(server, "rpc.pack")), "ms"),
        "rpc.unpack_ms_p50": (_span_p50_ms(_named(server, "rpc.unpack")), "ms"),
        "rpc.wire_bytes_per_req": (_rate(
            sum(s.attrs["sent"] + s.attrs["received"] for s in tcp), len(tcp)),
            "B"),
        "rpc.link_ms_p50": (_p50_ms(s.attrs["link_seconds"] for s in calls), "ms"),
        "rpc.server_handler_ms_mean": (handler_mean * 1e3, "ms"),
        "rpc.overhead_ms_mean": (overhead * 1e3, "ms"),
        "rpc.roundtrip_floor_ms_p50": (
            _p50_ms(s for r in rounds for s in r.floor_seconds), "ms"),
        "rpc.shed": (_delta(rounds, "collected", "admission", "shed"), "count"),
        "render.rasterize_ms_p50": (_span_p50_ms(raster), "ms"),
        "render.ktris_per_s": (_throughput(raster, "triangles", 1e3), "k/s"),
        "obs.tracing_overhead_ratio": (
            median(r.wall for r in rounds) / baseline.wall, "ratio"),
        "bench.replay_coverage": (_rate(replay_mean, handler_mean), "ratio"),
        "bench.steal_share": (max(r.stolen for r in rounds), "ratio"),
        "bench.spin_ms": (median(spins) * 1e3, "ms"),
        "bench.spin_spread": (spread(spins), "ratio"),
    })
    return out
