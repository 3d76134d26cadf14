"""The ops console: ``repro health`` / ``stats`` / ``dump`` / ``prof`` /
``top`` over one endpoint pool, drawn from one set of field helpers.

Every command reaches its addresses through one
:class:`~repro.rpc.pool.EndpointPool` (the caller builds it, usually with
``EndpointPool.connect_tcp``), so each endpoint gets its own breaker, the
dial happens lazily inside its resilient transport, and the retry flags
cover the dial like any other attempt.  :func:`poll_stats` calls one
method on every endpoint and turns each endpoint's failure into a row, so
one bad address never aborts a multi-address run.

A field that more than one command shows (cache info, the edge summary,
admission, the replication counters, the latency summary) has exactly
one helper below, and ``health``, ``stats`` and ``top`` all draw it
through that helper.

``top`` itself is a :class:`TopModel` that turns consecutive snapshots
into *rates* (requests per second needs two samples) and a pure
:func:`render` of the merged per-shard and per-tenant tables; tests drive
both with dict fixtures and never open a socket.  Output contract
(``--once --json``): :meth:`TopModel.view` is a plain dict, stable enough
to script against — per-shard rows, per-tenant rows merged across
shards, and the cluster totals line.
"""

from __future__ import annotations

import json
import math
import sys
import time

from repro.obs.export import prometheus_text
from repro.obs.metrics import merge_snapshots, snapshot_quantile

__all__ = [
    "TopModel", "render", "poll_stats", "run_top", "run_health",
    "run_stats", "run_dump", "run_prof", "cache_line", "edge_line",
    "admission_line", "replication_line", "latency", "latency_summary",
]

STORE_CACHES = ("array_cache", "selection_cache")
EDGE_CACHES = ("reply_cache", "block_cache")
EDGE_COUNTS = ("revalidations", "invalidations", "negative_hits",
               "stale_served", "upstream_errors", "local_computes")
ADMISSION_COUNTS = ("admitted", "inflight", "peak_inflight", "max_inflight",
                    "pending", "shed", "expired")


def poll_stats(pool, addresses: list[str], method: str = "stats",
               params=()) -> list[dict]:
    """Call ``method(*params)`` on every endpoint; errors become rows.

    A row is ``{"address", "snapshot" | "error", "breaker"}``: the reply
    (whatever ``method`` returns), or ``"ExcType: message"`` for an
    endpoint that failed in any way — refused, timed out, breaker open.
    ``breaker`` is the *client-side* breaker state for the endpoint
    (``pool.endpoint_state``): an open breaker is visible even while the
    poll itself still succeeds through a half-open probe, and it is the
    console's earliest signal that hedges/failovers are about to route
    around a shard.
    """
    state_of = getattr(pool, "endpoint_state", lambda i: "none")
    polls = []
    for i, address in enumerate(addresses):
        poll = {"address": address}
        try:
            poll["snapshot"] = pool.client(i).call(method, *params)
        except Exception as exc:
            poll["error"] = f"{type(exc).__name__}: {exc}"
        poll["breaker"] = state_of(i)
        polls.append(poll)
    return polls


# ---------------------------------------------------------------------------
# One helper per shared field
# ---------------------------------------------------------------------------


def cache_counts(cache: dict | None) -> tuple[int, int]:
    """``(served, lookups)`` of one cache block; a coalesced wait is
    served from the cache too, and a disabled cache has no lookups."""
    if not (cache or {}).get("enabled"):
        return 0, 0
    served = int(cache.get("hits", 0)) + int(cache.get("coalesced", 0))
    return served, served + int(cache.get("misses", 0))


def cache_line(label: str, cache: dict | None) -> str:
    if not (cache or {}).get("enabled"):
        return f"{label}: off"
    served, lookups = cache_counts(cache)
    rate = f"{100.0 * served / lookups:.1f}%" if lookups else "n/a"
    line = (f"{label}: hit_rate {rate} ({int(cache.get('hits', 0))} hits / "
            f"{int(cache.get('misses', 0))} misses / "
            f"{int(cache.get('coalesced', 0))} coalesced)")
    if "entries" in cache:
        line += (f", {cache['entries']} entries, "
                 f"{cache.get('current_bytes', 0) / 2**20:.1f}/"
                 f"{cache.get('max_bytes', 0) / 2**20:.0f} MiB")
    return line


def edge_counts(edge: dict) -> dict:
    """An edge's reply-cache hit rate and its coherence/upstream counts."""
    return {"hit_rate": edge.get("hit_rate"),
            **{name: int(edge.get(name, 0)) for name in EDGE_COUNTS}}


def edge_line(edge: dict) -> str:
    counts = edge_counts(edge)
    rate = float(counts.pop("hit_rate") or 0.0)
    return f"edge: hit_rate {rate:.0%}" + "".join(
        f"  {name} {value}" for name, value in counts.items())


def admission_counts(admission: dict | None) -> dict:
    """The fair queue's admission block (``collected.admission``)."""
    return {name: int((admission or {}).get(name, 0))
            for name in ADMISSION_COUNTS}


def admission_line(admission: dict | None) -> str:
    a = admission_counts(admission)
    return (f"admission: inflight={a['inflight']}/{a['max_inflight']} "
            f"workers (peak {a['peak_inflight']}), pending={a['pending']}, "
            f"admitted={a['admitted']}, shed={a['shed']}, "
            f"expired={a['expired']}")


def replication_counts(counts: dict) -> tuple[int, int]:
    """``(hedged, failover)`` requests, from ``stats`` counters or a
    ``health`` report (both spell them the same)."""
    return (int(counts.get("hedged_requests", 0)),
            int(counts.get("failover_requests", 0)))


def replication_line(counts: dict) -> str | None:
    hedged, failover = replication_counts(counts)
    if not (hedged or failover or "map_version" in counts):
        return None
    line = f"replication: {hedged} hedged, {failover} failover request(s)"
    if "map_version" in counts:
        line += f", serving map_version {counts['map_version']}"
    return line


def latency(hist: dict, overflow: float | None = None) -> dict:
    """Count, mean and p50/p90/p99 seconds of one snapshot histogram.

    A quantile in the ``+Inf`` bucket reads ``overflow`` when given, else
    the last finite bound (what the ``top`` tables show).
    """
    count = int(hist.get("count", 0))
    out = {"count": count,
           "mean": hist.get("sum", 0.0) / count if count else 0.0}
    for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        out[name] = snapshot_quantile(hist, q, overflow=overflow)
    return out


def latency_summary(hist: dict) -> str:
    """Compact one-line view of a snapshot histogram dict."""
    lat = latency(hist, overflow=math.inf)
    if not lat["count"]:
        return "no observations"

    def le(seconds: float) -> str:
        return "+Inf" if seconds == math.inf else f"{seconds * 1e3:.3g}ms"

    return (f"count={lat['count']} mean={lat['mean'] * 1e3:.3g}ms "
            f"p50<={le(lat['p50'])} p90<={le(lat['p90'])} "
            f"p99<={le(lat['p99'])}")


def field_lines(counts: dict, blocks: dict) -> list[str]:
    """The lines ``health`` and ``stats`` share: caches, the edge summary,
    admission, integrity and replication.

    ``counts`` holds the counters and ``blocks`` the collector blocks: a
    ``stats`` snapshot's ``counters`` and ``collected``, or the flat
    ``health`` report as both.
    """
    edge = blocks.get("edge") or {}
    is_edge = edge.get("kind") == "edge"
    lines = [cache_line(label, blocks.get(label)) for label in STORE_CACHES
             if label in blocks or not is_edge]
    if is_edge:
        lines.append(edge_line(edge))
        lines += [cache_line(label, edge.get(label)) for label in EDGE_CACHES]
    if blocks.get("admission"):
        lines.append(admission_line(blocks["admission"]))
    integrity = int(counts.get("integrity_failures", 0))
    if integrity:
        lines.append(f"integrity_failures: {integrity} (checksum mismatches "
                     f"on at-rest reads — run `repro verify` against the "
                     f"store)")
    replication = replication_line(counts)
    return lines + ([replication] if replication else [])


# ---------------------------------------------------------------------------
# health / stats / dump / prof
# ---------------------------------------------------------------------------


def _replies(polls: list[dict]) -> list[tuple[str, dict]]:
    """Print an ``unreachable:`` line per failed poll; return the rest."""
    for poll in polls:
        if "error" in poll:
            print(f"unreachable: {poll['address']}: {poll['error']}")
    return [(p["address"], p["snapshot"]) for p in polls if "error" not in p]


def run_health(pool, addresses: list[str]) -> int:
    """``repro health``: one report for one address, a table for a list."""
    polls = poll_stats(pool, addresses, "health")
    if len(polls) > 1:
        return _health_table(polls)
    replies = _replies(polls)
    if not replies:
        return 1
    [(_, report)] = replies
    where = (f"edge, upstream_reachable={report.get('upstream_reachable')}"
             if report.get("kind") == "edge"
             else f"store_reachable={report.get('store_reachable')}")
    print(f"status: {report['status']} ({where}, "
          f"requests_served={int(report.get('requests_served', 0))})")
    for line in field_lines(report, report):
        print(line)
    if report.get("upstream_error"):
        print(f"upstream_error: {report['upstream_error']}")
    return 0 if report["status"] == "ok" else 1


def _health_table(polls: list[dict]) -> int:
    print(f"{'ADDRESS':<22}{'STATUS':<13}{'SERVED':>8}{'INFL':>6}"
          f"{'SHED':>7}{'INTEG':>7}  BURNING")
    ok = 0
    for poll in polls:
        if "error" in poll:
            print(f"{poll['address']:<22}{'unreachable':<13}{poll['error']}")
            continue
        report = poll["snapshot"]
        admission = admission_counts(report.get("admission"))
        burning = ",".join((report.get("slo") or {}).get("burning") or [])
        print(f"{poll['address']:<22}{report['status']:<13}"
              f"{int(report.get('requests_served', 0)):>8}"
              f"{admission['inflight']:>6}{admission['shed']:>7}"
              f"{int(report.get('integrity_failures', 0)):>7}  "
              f"{burning or '-'}")
        ok += report["status"] == "ok"
    print(f"{ok}/{len(polls)} healthy")
    return 0 if ok == len(polls) else 1


def run_stats(pool, addresses: list[str], prom: bool = False) -> int:
    """``repro stats``: every reachable snapshot merged into one (counters
    summed, histograms merged bucket-wise), with this probe's own
    client-side resilience counters folded into the same tree."""
    polls = poll_stats(pool, addresses)
    replies = _replies(polls)
    if not replies:
        return 1
    rc = 0 if len(replies) == len(polls) else 1
    snapshot = (replies[0][1] if len(replies) == 1
                else merge_snapshots([snap for _, snap in replies]))
    collected = snapshot.setdefault("collected", {})
    collected["resilience_client"] = pool.stats.as_dict()
    if prom:
        print(prometheus_text(snapshot), end="")
        return rc
    counters = snapshot.get("counters", {})
    print(f"stats for {addresses[0]}:" if len(polls) == 1 else
          f"stats for {len(replies)}/{len(polls)} endpoint(s), merged:")
    print(f"requests: {int(counters.get('requests', 0))}  "
          f"prefilter_calls: {int(counters.get('prefilter_calls', 0))}  "
          f"selected_points: {int(counters.get('selected_points', 0))}")
    scanned = counters.get("raw_bytes_scanned", 0)
    sent = counters.get("wire_bytes_sent", 0)
    reduction = f" (reduction {scanned / sent:.1f}x)" if sent else ""
    print(f"raw_bytes_scanned: {scanned / 1e6:.2f} MB  "
          f"wire_bytes_sent: {sent / 1e3:.1f} kB{reduction}")
    hists = snapshot.get("histograms", {})
    if "request_latency_seconds" in hists:
        print(f"latency (wall): "
              f"{latency_summary(hists['request_latency_seconds'])}")
    sim = hists.get("request_sim_seconds")
    if sim and sim.get("count"):
        print(f"latency (simulated): {latency_summary(sim)}")
    for line in field_lines(counters, collected):
        print(line)
    slo = collected.get("slo") or {}
    for name in sorted(slo.get("tenants") or {}):
        state = slo["tenants"][name]
        flag = "  BURNING" if state.get("burning") else ""
        print(f"slo[{name}]: burn_fast {float(state.get('burn_fast', 0)):.2f} "
              f"burn_slow {float(state.get('burn_slow', 0)):.2f} "
              f"p99 {float(state.get('p99', 0)) * 1e3:.3g}ms "
              f"slo_sheds {int(state.get('slo_sheds', 0))}{flag}")
    flightrec = collected.get("flightrec") or {}
    if flightrec.get("enabled"):
        print(f"flightrec: {int(flightrec.get('recorded', 0))} recorded, "
              f"{int(flightrec.get('retained', 0))}/"
              f"{int(flightrec.get('capacity', 0))} retained, "
              f"{int(flightrec.get('dumps', 0))} dumps")
    profiler = collected.get("profiler") or {}
    if profiler.get("enabled") and profiler.get("samples"):
        print(f"profiler: {int(profiler.get('samples', 0))} samples @ "
              f"{float(profiler.get('hz', 0)):g} Hz, "
              f"{int(profiler.get('distinct_stacks', 0))} distinct stacks")
    resilience = collected["resilience_client"]
    if resilience:
        inner = " ".join(f"{k}={v}" for k, v in sorted(resilience.items()))
        print(f"resilience (this probe): {inner}")
    return rc


def _suffixed(path: str, label: str) -> str:
    """``dump.jsonl`` + ``shard1`` -> ``dump-shard1.jsonl``."""
    root, dot, ext = path.rpartition(".")
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in label)
    if not dot:
        return f"{path}-{safe}"
    return f"{root}-{safe}.{ext}"


def run_dump(pool, addresses: list[str], out: str, reason: str,
             last: float | None) -> int:
    """``repro dump``: pull each server's flight-recorder ring; ``out``
    gets a JSONL file (one per address for a list)."""
    polls = poll_stats(pool, addresses, "dump", (reason, last))
    replies = _replies(polls)
    for label, reply in replies:
        if not reply.get("enabled"):
            print(f"{label}: flight recorder disabled")
            continue
        events = reply.get("events") or []
        where = reply.get("path") or "not written (server has no --dump-dir)"
        print(f"{label}: {len(events)} event(s); server-side dump: {where}")
        if out:
            path = out if len(replies) == 1 else _suffixed(out, label)
            header = {"kind": "flightrec.header", "source": label,
                      "reason": reason, "events": len(events)}
            with open(path, "w", encoding="utf-8") as fh:
                for record in (header, *events):
                    fh.write(json.dumps(record, sort_keys=True, default=str)
                             + "\n")
            print(f"wrote {path}")
    return 0 if len(replies) == len(polls) else 1


def run_prof(pool, addresses: list[str], out: str, top: int | None,
             show: int) -> int:
    """``repro prof``: pull each server's sampling-profiler stacks."""
    polls = poll_stats(pool, addresses, "profile", (top,))
    replies = _replies(polls)
    for label, snap in replies:
        if not snap.get("enabled"):
            print(f"{label}: profiler disabled")
            continue
        stacks = snap.get("stacks") or {}
        print(f"{label}: {int(snap.get('samples', 0))} samples @ "
              f"{float(snap.get('hz', 0)):g} Hz over "
              f"{float(snap.get('elapsed', 0)):.1f}s, "
              f"{len(stacks)} distinct stack(s)")
        lines = [f"{stack} {count}" for stack, count in stacks.items()]
        if out:
            path = out if len(replies) == 1 else _suffixed(out, label)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + ("\n" if lines else ""))
            print(f"wrote {path} (collapsed-stack format: feed to "
                  f"flamegraph.pl or speedscope)")
        else:
            for line in lines[:show]:
                print(f"  {line}")
    return 0 if len(replies) == len(polls) else 1


# ---------------------------------------------------------------------------
# top
# ---------------------------------------------------------------------------


def _new_tenant(name: str, weight: float = 1.0) -> dict:
    return {"tenant": name, "served": 0, "pending": 0, "inflight": 0,
            "shed": 0, "weight": weight, "burn_fast": 0.0,
            "burn_slow": 0.0, "burning": False, "slo_sheds": 0}


class TopModel:
    """Folds successive poll results into a renderable cluster view.

    Request *rates* are first-difference: ``(requests_now - requests_prev)
    / dt`` per address, so the first poll shows totals with rate 0 and
    every later poll shows live throughput.
    """

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._prev: dict[str, tuple[float, float]] = {}

    def view(self, polls: list[dict]) -> dict:
        """One renderable cluster state from one round of polls."""
        now = self._clock()
        shards = []
        edges = []
        tenants: dict[str, dict] = {}
        total_requests = total_rate = total_pending = total_inflight = 0.0
        total_shed = 0
        for poll in polls:
            address = poll["address"]
            if "error" in poll:
                shards.append({"address": address, "status": "unreachable",
                               "error": poll["error"],
                               "breaker": poll.get("breaker", "none")})
                continue
            snap = poll.get("snapshot") or {}
            counters = snap.get("counters") or {}
            collected = snap.get("collected") or {}
            requests = float(counters.get("requests", 0))
            prev = self._prev.get(address)
            rate = 0.0
            if prev is not None and now > prev[0]:
                rate = max(0.0, (requests - prev[1]) / (now - prev[0]))
            self._prev[address] = (now, requests)
            total_requests += requests
            total_rate += rate
            lat = latency((snap.get("histograms") or {})
                          .get("request_latency_seconds") or {})
            row = {"address": address, "status": "ok",
                   "requests": int(requests), "rate": rate,
                   "p50": lat["p50"], "p99": lat["p99"],
                   "breaker": poll.get("breaker", "none")}
            edge = collected.get("edge") or {}
            if edge.get("kind") == "edge":
                # An edge cache answered this address: it gets an EDGE row
                # (hit rate, coherence traffic, upstream health) instead of
                # a SHARD row — its counters mean different things.
                edges.append({**row, **edge_counts(edge)})
                continue
            admission = admission_counts(collected.get("admission"))
            hits = [cache_counts(collected.get(label))
                    for label in STORE_CACHES]
            lookups = sum(total for _, total in hits)
            hedged, failover = replication_counts(counters)
            shards.append({
                **row,
                "pending": admission["pending"],
                "inflight": admission["inflight"],
                "shed": admission["shed"],
                "cache_hit_rate": (sum(served for served, _ in hits)
                                   / lookups) if lookups else None,
                "integrity_failures": int(
                    counters.get("integrity_failures", 0)),
                "hedged": hedged,
                "failover": failover,
            })
            total_pending += admission["pending"]
            total_inflight += admission["inflight"]
            total_shed += admission["shed"]
            # Per-tenant rows: fair-queue service + SLO burn, merged
            # across shards by tenant name.
            fair = collected.get("fair_queue") or {}
            for name, t in (fair.get("tenants") or {}).items():
                entry = tenants.setdefault(
                    name, _new_tenant(name, t.get("weight", 1.0)))
                for key in ("served", "pending", "inflight", "shed"):
                    entry[key] += int(t.get(key, 0))
            slo = collected.get("slo") or {}
            for name, state in (slo.get("tenants") or {}).items():
                entry = tenants.setdefault(name, _new_tenant(name))
                # Burn is a fraction, not a count: across shards the worst
                # shard dominates the tenant's experience.
                entry["burn_fast"] = max(
                    entry["burn_fast"], float(state.get("burn_fast", 0.0)))
                entry["burn_slow"] = max(
                    entry["burn_slow"], float(state.get("burn_slow", 0.0)))
                entry["burning"] = (entry["burning"]
                                    or bool(state.get("burning")))
                entry["slo_sheds"] += int(state.get("slo_sheds", 0))
        return {
            "shards": shards,
            "edges": edges,
            "tenants": sorted(tenants.values(), key=lambda r: r["tenant"]),
            "totals": {
                "requests": int(total_requests),
                "rate": total_rate,
                "pending": int(total_pending),
                "inflight": int(total_inflight),
                "shed": total_shed,
                "reachable": sum(1 for s in shards if s["status"] == "ok"),
                "shards": len(shards),
                "edges": len(edges),
            },
        }


def _pct(value) -> str:
    return "-" if value is None else f"{100.0 * value:.0f}%"


def render(view: dict) -> str:
    """Draw one cluster view as fixed-width tables (pure text out)."""
    totals = view["totals"]
    lines = [
        f"cluster: {totals['reachable']}/{totals['shards']} shards up   "
        f"{totals['rate']:.1f} req/s   "
        f"pending {totals['pending']}  inflight {totals['inflight']}  "
        f"shed {totals['shed']}  requests {totals['requests']}",
        "",
        f"{'SHARD':<22}{'STATE':<12}{'BRKR':<10}{'REQ/S':>8}{'PEND':>6}"
        f"{'INFL':>6}{'SHED':>7}{'HEDGE':>7}{'FO':>5}{'CACHE':>7}"
        f"{'P50':>9}{'P99':>9}",
    ]
    for shard in view["shards"]:
        if shard["status"] != "ok":
            lines.append(
                f"{shard['address']:<22}{'unreachable':<12}"
                f"{shard.get('breaker', 'none'):<10}"
                f"{shard.get('error', '')}"
            )
            continue
        lines.append(
            f"{shard['address']:<22}{shard['status']:<12}"
            f"{shard.get('breaker', 'none'):<10}"
            f"{shard['rate']:>8.1f}{shard['pending']:>6}"
            f"{shard['inflight']:>6}{shard['shed']:>7}"
            f"{shard.get('hedged', 0):>7}{shard.get('failover', 0):>5}"
            f"{_pct(shard['cache_hit_rate']):>7}"
            f"{shard['p50'] * 1e3:>7.1f}ms{shard['p99'] * 1e3:>7.1f}ms"
        )
    if view.get("edges"):
        lines += [
            "",
            f"{'EDGE':<22}{'STATE':<12}{'BRKR':<10}{'REQ/S':>8}{'HIT':>6}"
            f"{'REVAL':>7}{'INVAL':>7}{'NEG':>6}{'STALE':>7}{'UPERR':>7}"
            f"{'LOCAL':>7}{'P50':>9}{'P99':>9}",
        ]
        for edge in view["edges"]:
            lines.append(
                f"{edge['address']:<22}{edge['status']:<12}"
                f"{edge.get('breaker', 'none'):<10}"
                f"{edge['rate']:>8.1f}{_pct(edge['hit_rate']):>6}"
                f"{edge['revalidations']:>7}{edge['invalidations']:>7}"
                f"{edge['negative_hits']:>6}{edge['stale_served']:>7}"
                f"{edge['upstream_errors']:>7}{edge['local_computes']:>7}"
                f"{edge['p50'] * 1e3:>7.1f}ms{edge['p99'] * 1e3:>7.1f}ms"
            )
    if view["tenants"]:
        lines += [
            "",
            f"{'TENANT':<16}{'SERVED':>8}{'PEND':>6}{'INFL':>6}{'SHED':>7}"
            f"{'BURN(F)':>9}{'BURN(S)':>9}{'SLO':>9}",
        ]
        for t in view["tenants"]:
            slo_col = "BURNING" if t["burning"] else "ok"
            if t["slo_sheds"]:
                slo_col += f"+{t['slo_sheds']}"
            lines.append(
                f"{t['tenant']:<16}{t['served']:>8}{t['pending']:>6}"
                f"{t['inflight']:>6}{t['shed']:>7}"
                f"{t['burn_fast']:>9.2f}{t['burn_slow']:>9.2f}"
                f"{slo_col:>9}"
            )
    return "\n".join(lines)


def run_top(
    addresses: list[str],
    *,
    pool,
    interval: float = 2.0,
    iterations: int | None = None,
    once: bool = False,
    as_json: bool = False,
    out=None,
    clock=time.monotonic,
    sleep=time.sleep,
) -> int:
    """Poll + render loop (the `repro top` engine) over the caller's pool.

    ``once`` polls a single round and exits; ``as_json`` prints the raw
    view dict instead of tables.  The caller owns (and closes) ``pool``.
    Returns 0 when every shard answered the final poll.
    """
    out = out if out is not None else sys.stdout
    model = TopModel(clock=clock)
    rounds = 1 if once else iterations
    n = 0
    while True:
        view = model.view(poll_stats(pool, addresses))
        if as_json:
            out.write(json.dumps(view, sort_keys=True) + "\n")
        else:
            # Clear-screen escape only when live-looping on a TTY.
            if not once and getattr(out, "isatty", lambda: False)():
                out.write("\x1b[2J\x1b[H")
            out.write(render(view) + "\n")
        out.flush()
        n += 1
        if rounds is not None and n >= rounds:
            break
        try:
            sleep(interval)
        except KeyboardInterrupt:
            break
    totals = view["totals"]
    return 0 if totals["reachable"] == totals["shards"] else 1
