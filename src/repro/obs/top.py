"""`repro top`: a live ops console over every shard's ``stats`` endpoint.

One terminal view of a whole cluster: the poller calls the ``stats`` RPC
of every address (through the same :class:`~repro.rpc.pool.EndpointPool`
the scatter–gather client uses, so breakers and retries are per shard),
the :class:`TopModel` turns consecutive snapshots into *rates* (requests
per second needs two samples), and :func:`render` draws the merged
per-shard and per-tenant tables.  The model and renderer are pure —
snapshots in, rows/text out — so tests drive them with dict fixtures and
never open a socket.

Output contract (``--once --json``): :meth:`TopModel.view` is a plain
dict, stable enough to script against — per-shard rows, per-tenant rows
merged across shards, and the cluster totals line.
"""

from __future__ import annotations

import time

from repro.obs.metrics import snapshot_quantile

__all__ = ["TopModel", "render", "poll_stats", "run_top"]


def poll_stats(pool, addresses: list[str]) -> list[dict]:
    """Call ``stats`` on every endpoint; errors become rows, not raises.

    Each row also carries the *client-side* breaker state for its
    endpoint (``pool.endpoint_state``) — an open breaker is visible even
    while the poll itself still succeeds through a half-open probe, and
    it is the console's earliest signal that hedges/failovers are about
    to route around a shard.
    """
    state_of = getattr(pool, "endpoint_state", lambda i: "none")
    polls = []
    for i, address in enumerate(addresses):
        try:
            snapshot = pool.client(i).call("stats")
            polls.append({"address": address, "snapshot": snapshot,
                          "breaker": state_of(i)})
        except Exception as exc:
            polls.append({
                "address": address,
                "error": f"{type(exc).__name__}: {exc}",
                "breaker": state_of(i),
            })
    return polls


def _cache_rates(collected: dict) -> tuple[int, int]:
    """(served, total) lookups summed over both storage-side caches."""
    served = total = 0
    for label in ("array_cache", "selection_cache"):
        cache = collected.get(label) or {}
        if not cache.get("enabled", False):
            continue
        hits = int(cache.get("hits", 0))
        coalesced = int(cache.get("coalesced", 0))
        misses = int(cache.get("misses", 0))
        served += hits + coalesced
        total += hits + coalesced + misses
    return served, total


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
            edge = collected.get("edge") or {}
            if edge.get("kind") == "edge":
                # An edge cache answered this address: it gets an EDGE row
                # (hit rate, coherence traffic, upstream health) instead of
                # a SHARD row — its counters mean different things.
                hists = snap.get("histograms") or {}
                latency = hists.get("request_latency_seconds") or {}
                edges.append({
                    "address": address,
                    "status": "ok",
                    "requests": int(requests),
                    "rate": rate,
                    "hit_rate": edge.get("hit_rate"),
                    "revalidations": int(edge.get("revalidations", 0)),
                    "invalidations": int(edge.get("invalidations", 0)),
                    "negative_hits": int(edge.get("negative_hits", 0)),
                    "stale_served": int(edge.get("stale_served", 0)),
                    "upstream_errors": int(edge.get("upstream_errors", 0)),
                    "local_computes": int(edge.get("local_computes", 0)),
                    "p50": snapshot_quantile(latency, 0.50),
                    "p99": snapshot_quantile(latency, 0.99),
                    "breaker": poll.get("breaker", "none"),
                })
                total_requests += requests
                total_rate += rate
                continue
            admission = collected.get("admission") or {}
            fair = collected.get("fair_queue") or {}
            pending = int(admission.get("pending", 0))
            inflight = int(admission.get("inflight", 0))
            shed = int(admission.get("shed", 0))
            served_hits, lookups = _cache_rates(collected)
            hists = snap.get("histograms") or {}
            latency = hists.get("request_latency_seconds") or {}
            row = {
                "address": address,
                "status": "ok",
                "requests": int(requests),
                "rate": rate,
                "pending": pending,
                "inflight": inflight,
                "shed": shed,
                "cache_hit_rate": (served_hits / lookups) if lookups else None,
                "p50": snapshot_quantile(latency, 0.50),
                "p99": snapshot_quantile(latency, 0.99),
                "integrity_failures": int(
                    counters.get("integrity_failures", 0)),
                "breaker": poll.get("breaker", "none"),
                "hedged": int(counters.get("hedged_requests", 0)),
                "failover": int(counters.get("failover_requests", 0)),
            }
            shards.append(row)
            total_requests += requests
            total_rate += rate
            total_pending += pending
            total_inflight += inflight
            total_shed += shed
            # Per-tenant rows: fair-queue service + SLO burn, merged
            # across shards by tenant name.
            for name, t in (fair.get("tenants") or {}).items():
                row = tenants.setdefault(name, {
                    "tenant": name, "served": 0, "pending": 0,
                    "inflight": 0, "shed": 0, "weight": t.get("weight", 1.0),
                    "burn_fast": 0.0, "burn_slow": 0.0, "burning": False,
                    "slo_sheds": 0,
                })
                row["served"] += int(t.get("served", 0))
                row["pending"] += int(t.get("pending", 0))
                row["inflight"] += int(t.get("inflight", 0))
                row["shed"] += int(t.get("shed", 0))
            slo = collected.get("slo") or {}
            for name, state in (slo.get("tenants") or {}).items():
                row = tenants.setdefault(name, {
                    "tenant": name, "served": 0, "pending": 0,
                    "inflight": 0, "shed": 0, "weight": 1.0,
                    "burn_fast": 0.0, "burn_slow": 0.0, "burning": False,
                    "slo_sheds": 0,
                })
                # Burn is a fraction, not a count: across shards the worst
                # shard dominates the tenant's experience.
                row["burn_fast"] = max(
                    row["burn_fast"], float(state.get("burn_fast", 0.0)))
                row["burn_slow"] = max(
                    row["burn_slow"], float(state.get("burn_slow", 0.0)))
                row["burning"] = row["burning"] or bool(state.get("burning"))
                row["slo_sheds"] += int(state.get("slo_sheds", 0))
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
    interval: float = 2.0,
    iterations: int | None = None,
    once: bool = False,
    as_json: bool = False,
    out=None,
    pool=None,
    clock=time.monotonic,
    sleep=time.sleep,
) -> int:
    """Poll + render loop (the `repro top` engine).

    ``once`` polls a single round and exits; ``as_json`` prints the raw
    view dict instead of tables.  ``pool`` is injectable for tests;
    by default a TCP :class:`~repro.rpc.pool.EndpointPool` dials
    ``addresses``.  Returns 0 when every shard answered the final poll.
    """
    import json as _json
    import sys

    from repro.rpc.pool import EndpointPool

    out = out if out is not None else sys.stdout
    own_pool = pool is None
    if own_pool:
        pool = EndpointPool.connect_tcp(addresses)
    model = TopModel(clock=clock)
    view = {}
    try:
        rounds = 1 if once else iterations
        n = 0
        while True:
            view = model.view(poll_stats(pool, addresses))
            if as_json:
                out.write(_json.dumps(view, sort_keys=True) + "\n")
            else:
                # Clear-screen escape only when live-looping on a TTY.
                if not once and getattr(out, "isatty", lambda: False)():
                    out.write("\x1b[2J\x1b[H")
                out.write(render(view) + "\n")
            out.flush()
            n += 1
            if once or (rounds is not None and n >= rounds):
                break
            try:
                sleep(interval)
            except KeyboardInterrupt:
                break
    finally:
        if own_pool:
            pool.close()
    totals = view.get("totals") or {}
    return 0 if totals.get("reachable", 0) == totals.get("shards", -1) else 1
