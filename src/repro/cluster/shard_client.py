"""Scatter–gather contouring against a sharded NDP cluster.

:class:`ClusterClient` is the cluster-side twin of
:func:`repro.core.ndp_client.ndp_contour`: it fans the storage-side
pre-filter out to every shard owning a block that intersects the contour
ROI (in parallel, one worker per shard so each endpoint sees its blocks
in order), gathers the per-block sparse selections, stitches them into
one global-structure selection (:mod:`repro.cluster.stitch` — the
bit-identity argument lives there), and runs the stock post-filter once.
Each per-block call is :func:`~repro.core.ndp_client.request_selection`
with the contour row's bound arguments, so a shard sees exactly the
request a monolithic client would send for that block.

Failure handling composes with the existing resilience stack, and with
replication failover is a *fast path*, not a degradation.  Each block's
manifest entry names an ordered replica chain; the client ranks the
chain by live endpoint health (open breakers last, then rolling
latency).  A chain with more than one live replica runs through the
pool's :class:`~repro.rpc.pool.HedgedCall`: the first replica gets the
request, a hedge fires to the next after a latency-quantile delay, and
timeouts, breaker-opens, sheds, and integrity failures fail over down
the chain immediately.  A single live replica is called directly.  The
failover ladder per block is therefore

    retry (inside ResilientTransport) → hedge → next replica → baseline

and the client-side baseline read — fetching the block object and
running the pre-filter locally, which yields the *exact* selection a
shard would have returned, so geometry stays bit-identical — is reached
only when **every** replica of a block is exhausted and a
``fallback_fs`` is configured.  Without a fallback filesystem the error
propagates.

Live shard map: replies carry the serving manifest generation as a
``map_version`` token.  When a reply advertises a newer generation than
the client's manifest and a ``manifest_fs`` is configured, the client
re-fetches and atomically swaps its manifest after the gather — a
``repro rebalance --apply`` propagates to running clients without a
restart.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from repro.cluster.manifest import ShardManifest, load_manifest
from repro.cluster.stitch import stitch_exact, stitch_selections
from repro.core.filter_splits import SPLIT_FILTERS
from repro.core.ndp_client import request_selection
from repro.errors import FAILOVER_ERRORS, ReproError, SelectionError
from repro.grid.bounds import Bounds
from repro.io.vgf import read_vgf
from repro.obs.flightrec import NULL_RECORDER
from repro.obs.trace import NULL_TRACER

__all__ = ["ClusterClient"]

#: the split filter a cluster scatters
_CONTOUR = SPLIT_FILTERS["contour"]


class ClusterClient:
    """Fan contour pre-filters out to N shards; stitch the gather.

    Parameters
    ----------
    pool:
        :class:`~repro.rpc.pool.EndpointPool` with at least
        ``manifest.shards`` endpoints (endpoint ``i`` serves shard ``i``).
    manifest:
        The :class:`~repro.cluster.manifest.ShardManifest` naming every
        block, its extents, and its replica chain.
    fallback_fs:
        Optional filesystem that can read the block objects directly;
        enables per-block baseline fallback when a block's whole replica
        chain is down.
    manifest_fs:
        Optional filesystem the manifest itself can be re-read from;
        enables the live shard-map protocol (stale ``map_version`` token
        in a reply → re-fetch + swap, no restart).
    sign_key:
        HMAC key for manifest verification on live re-fetch.
    recorder:
        Optional :class:`~repro.obs.flightrec.FlightRecorder`; fallback,
        failover, and map-refresh decisions land in the always-on flight
        ring so a post-hoc dump shows which shard degraded and why.
    """

    def __init__(self, pool, manifest: ShardManifest, fallback_fs=None, *,
                 tracer=None, recorder=None, manifest_fs=None, sign_key=None):
        if len(pool) < manifest.shards:
            raise ReproError(
                f"pool has {len(pool)} endpoints but manifest names "
                f"{manifest.shards} shards"
            )
        self.pool = pool
        self.manifest = manifest
        self.fallback_fs = fallback_fs
        self.manifest_fs = manifest_fs
        self.sign_key = sign_key
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._map_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _block_prefilter_local(self, bo, array_name, args):
        """Baseline path for one block: ``(selection, bytes read)``.

        Runs the contour row's own ``pre`` on the block object — same
        grid slice, same corner values, same world-coordinate ROI as a
        shard — so selection-level stitching stays bit-identical even on
        the degraded path.
        """
        with self.fallback_fs.open(bo.key) as fh:
            grid = read_vgf(fh)
        return (_CONTOUR.pre(grid, array_name, args),
                self.fallback_fs.size(bo.key))

    def _rpc_once(self, endpoint, bo, array_name, args, counts, lock,
                  ctx_extra=None):
        """One block's pre-filter over RPC, with one integrity re-read."""
        def retried(_exc):
            # The re-read goes to the *same* replica: a flipped bit on the
            # wire is transient.  A second failure means this copy (or
            # this shard) is bad — it escapes and the hedged ladder moves
            # to the next replica.
            with lock:
                counts["integrity_retries"] += 1
            self.tracer.add_event("integrity.retry", key=bo.key)
            self.recorder.record("integrity.retry", key=bo.key,
                                 endpoint=endpoint)

        selection, encoded = request_selection(
            partial(self.pool.call, endpoint, ctx_extra=ctx_extra),
            _CONTOUR, bo.key, array_name, args, retried,
        )
        version = encoded.get("map_version")
        if version is not None:
            with lock:
                if int(version) > counts["map_version_seen"]:
                    counts["map_version_seen"] = int(version)
        st = encoded.get("stats") or {}
        return selection, {
            "wire_bytes": st.get("wire_bytes", 0),
            "stored_bytes": st.get("stored_bytes", 0),
            "raw_bytes": st.get("raw_bytes", 0),
        }

    def _block_prefilter_replicated(self, chain, bo, array_name, args,
                                    counts, lock, stats):
        """Drive one block through its (ranked, live) replica chain."""
        if len(chain) == 1:
            # Nothing to hedge to: call the one live replica directly.
            return self._rpc_once(chain[0], bo, array_name, args, counts,
                                  lock)

        def attempt(endpoint, cancel, kind):
            # Hedges and failovers are tagged for the servers' counters.
            return self._rpc_once(
                endpoint, bo, array_name, args, counts, lock,
                ctx_extra=None if kind == "primary" else {kind: True},
            )

        result = self.pool.hedged().run(chain, attempt)
        with lock:
            stats["hedges"] += result.hedges
            stats["failovers"] += result.failovers
            if result.winner_kind == "hedge":
                stats["hedge_wins"] += 1
                self.pool.health(result.winner).record_hedge_win()
            if result.winner != chain[0]:
                stats["failover_blocks"] += 1
        return result.value

    def _shard_worker(self, leader, items, array_name, args, opener):
        """Pre-filter every block led by one endpoint; one result per block.

        ``items`` is ``[(BlockObject, ranked_chain), ...]``.  Returns
        ``(results, stats)`` where ``results`` is a list of ``(spec,
        PointSelection)`` and ``stats`` aggregates the group's wire and
        failover accounting.  Raises only when a block's whole chain is
        exhausted *and* no fallback filesystem exists.
        """
        results = []
        lock = threading.Lock()
        counts = {"integrity_retries": 0, "map_version_seen": 0}
        stats = {
            "wire_bytes": 0, "stored_bytes": 0, "raw_bytes": 0,
            "fallback_blocks": 0, "fallback_bytes": 0,
            "hedges": 0, "hedge_wins": 0, "failovers": 0,
            "failover_blocks": 0,
        }
        with opener(shard=leader, blocks=len(items)):
            dead: set[int] = set()
            last_failure = None
            for bo, chain in items:
                # Replicas already exhausted this scatter are skipped —
                # no retry dance against known-dead endpoints.  ``dead``
                # only fills when a fallback_fs exists (without one the
                # first exhausted chain raises out of the worker).
                live = [e for e in chain if e not in dead]
                if live:
                    try:
                        selection, st = self._block_prefilter_replicated(
                            live, bo, array_name, args, counts, lock, stats,
                        )
                        for k in ("wire_bytes", "stored_bytes", "raw_bytes"):
                            stats[k] += int(st.get(k, 0) or 0)
                        results.append((bo.spec, selection))
                        continue
                    except FAILOVER_ERRORS as exc:
                        if self.fallback_fs is None:
                            raise
                        last_failure = exc
                        dead.update(live)
                        self.tracer.add_event(
                            "shard.fallback", shard=leader,
                            reason=type(exc).__name__,
                        )
                        self.recorder.record(
                            "shard.fallback", shard=leader,
                            block=bo.key, replicas=list(chain),
                            reason=type(exc).__name__,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                selection, size = self._block_prefilter_local(
                    bo, array_name, args
                )
                stats["fallback_blocks"] += 1
                stats["fallback_bytes"] += size
                results.append((bo.spec, selection))
            if last_failure is not None:
                stats["fallback_reason"] = (
                    f"{type(last_failure).__name__}: {last_failure}"
                )
        stats["integrity_retries"] = counts["integrity_retries"]
        stats["map_version_seen"] = counts["map_version_seen"]
        return results, stats

    # ------------------------------------------------------------------
    def _route(self, wanted):
        """Group blocks by the lead endpoint of their ranked chains."""
        groups: dict[int, list] = {}
        for bo in wanted:
            chain = self.pool.rank(bo.replicas)
            groups.setdefault(chain[0], []).append((bo, chain))
        return groups

    def prefilter(self, array_name: str, args: dict):
        """Scatter–gather the pre-filter only: ``(selection, stats)``.

        ``args`` are the contour row's bound arguments
        (``SPLIT_FILTERS["contour"].bind(...)``): values, mode, encoding,
        wire codec and ROI, sent to every shard as they are; ``edge`` mode
        with an ROI does not stitch exactly and raises
        :class:`~repro.errors.SelectionError` (``stitch_exact``).  Everything
        :meth:`contour` does short of the client-side post-filter: route
        blocks to shard leaders, gather the per-block encoded selections,
        stitch them into one global sparse
        :class:`~repro.filters.selection.PointSelection`.  The edge cache
        tier fronts a cluster through this with its own request's
        arguments — it re-encodes the stitched selection for its own
        clients and leaves post-filtering to them, keeping the pushdown
        semantics intact across all three tiers.
        """
        if not stitch_exact(args):
            raise SelectionError("edge-mode ROI selections do not stitch")
        m = self.manifest
        array_name = str(array_name)
        value_dtype = m.array_dtype(array_name)
        wanted = m.intersecting(args["roi"])
        groups = self._route(wanted)
        with self.tracer.span(
            "cluster.contour", array=array_name, shards=m.shards,
            shards_queried=len(groups), blocks=len(wanted),
        ):
            gathered = []
            stats = {
                "path": "cluster",
                "shards": m.shards,
                "shards_queried": len(groups),
                "blocks": len(wanted),
                "replicas": m.replication_factor,
                "map_version": m.map_version,
                "fallback_blocks": 0,
                "fallback_bytes": 0,
                "integrity_retries": 0,
                "wire_bytes": 0,
                "stored_bytes": 0,
                "raw_bytes": 0,
                "hedges": 0,
                "hedge_wins": 0,
                "failovers": 0,
                "failover_blocks": 0,
            }
            map_version_seen = 0
            if groups:
                # Span stacks are thread-local: capture the fan-out
                # context on this thread so worker spans join the trace.
                opener = self.tracer.fork("cluster.shard")
                ordered = sorted(groups.items())
                with ThreadPoolExecutor(max_workers=len(ordered)) as pool:
                    futures = [
                        pool.submit(
                            self._shard_worker, leader, items, array_name,
                            args, opener,
                        )
                        for leader, items in ordered
                    ]
                    for future in futures:
                        results, shard_stats = future.result()
                        gathered.extend(results)
                        for k in (
                            "wire_bytes", "stored_bytes", "raw_bytes",
                            "fallback_blocks", "fallback_bytes",
                            "integrity_retries", "hedges", "hedge_wins",
                            "failovers", "failover_blocks",
                        ):
                            stats[k] += shard_stats[k]
                        map_version_seen = max(
                            map_version_seen,
                            shard_stats.get("map_version_seen", 0),
                        )
                        if "fallback_reason" in shard_stats:
                            stats["last_fallback_reason"] = (
                                shard_stats["fallback_reason"]
                            )
            with self.tracer.span("cluster.stitch", blocks=len(gathered)):
                stitched = stitch_selections(
                    gathered, m.dims, m.origin, m.spacing, array_name,
                    value_dtype, axes=m.axes,
                )
            stats["selected_points"] = stitched.count
            stats["total_points"] = stitched.total_points
            if map_version_seen > m.map_version:
                # A shard is serving a newer map than we routed with:
                # this gather already completed correctly (replies are
                # self-describing), so refresh for the *next* request.
                stats["stale_map"] = True
                stats["map_refreshed"] = self.refresh_map()
        return stitched, stats

    def contour(self, array_name: str, values, roi: Bounds | None = None):
        """Scatter–gather contour: returns ``(polydata, stats)``.

        Bit-identical to the monolithic paths for any shard layout, any
        replication factor, and any failover combination: same points,
        same polys, same point-data bytes as both a single-server
        :func:`~repro.core.ndp_client.ndp_contour` and a baseline
        full-read :func:`~repro.filters.contour.contour_grid`.
        """
        args = _CONTOUR.bind({"values": values, "roi": roi})
        stitched, stats = self.prefilter(array_name, args)
        with self.tracer.span("postfilter", points=stitched.count):
            polydata = _CONTOUR.post(stitched, args)
        return polydata, stats

    # ------------------------------------------------------------------
    def refresh_map(self) -> bool:
        """Re-fetch the manifest and swap it in if the generation advanced.

        Returns ``True`` when a newer map was installed.  Requires
        ``manifest_fs``; without one the client keeps serving from its
        (still-correct, possibly suboptimal) map.
        """
        if self.manifest_fs is None:
            return False
        with self._map_lock:
            current = self.manifest
            fresh = load_manifest(
                self.manifest_fs, current.manifest_key,
                sign_key=self.sign_key,
            )
            if fresh.map_version <= current.map_version:
                return False
            if fresh.shards > len(self.pool):
                # Elastic growth: new shards must be dialable.  The
                # manifest may carry their addresses in meta.endpoints.
                endpoints = list((fresh.meta or {}).get("endpoints") or [])
                for addr in endpoints[len(self.pool):fresh.shards]:
                    self.pool.add_address(addr)
                if fresh.shards > len(self.pool):
                    raise ReproError(
                        f"refreshed manifest names {fresh.shards} shards "
                        f"but the pool has only {len(self.pool)} endpoints "
                        f"and no addresses to grow by"
                    )
            self.manifest = fresh
            self.recorder.record(
                "cluster.map_refresh", map_version=fresh.map_version,
            )
            self.tracer.add_event(
                "cluster.map_refresh", map_version=fresh.map_version,
            )
            return True

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
