"""The edge cache tier: an NDP facade that lives on the client's side of
the WAN.

Clients connect to an :class:`EdgeCacheServer` exactly as they would to a
storage-side :class:`~repro.core.ndp_server.NDPServer` — same msgpack-rpc
protocol, same ``prefilter_*`` / ``stats`` / ``health`` / ``dump``
endpoints, byte-identical encoded replies (CRC included).  Behind that
facade the edge:

* **forwards misses** upstream as *raw frames* (see
  :class:`~repro.rpc.forward.ForwardingHandler`), so a cold request and
  its reply are bit-for-bit what a direct WAN connection would carry —
  tenant/deadline/trace ctx rides through untouched;
* **caches encoded pre-filter replies** in a byte-budgeted single-flight
  LRU keyed by the upstream *store version token* for the object plus the
  cluster ``map_version`` — an overwrite or rebalance upstream changes
  the token and the stale entry is simply never looked up again (zero
  TTLs; see :mod:`repro.edge.coherence` for when tokens are learned);
* **caches decoded array blocks** for objects that prove hot (two reply
  misses for the same block by default) and then computes *new* contours
  locally — a nearby-ROI or new-isovalue request over a cached block
  never crosses the WAN, and the reply mirrors the storage server's
  encode path byte-for-byte;
* **coalesces stampedes**: N concurrent cold clients for one reply cost
  exactly one upstream fetch (the cache's single-flight leader), and the
  N-1 waiters share the decoded result;
* caches **negative replies** (deterministic errors like a missing
  array) under the same version token, while transient conditions
  (overload, timeouts, integrity failures, open breakers) are never
  cached.

Failure ladder when the upstream is unreachable at revalidation time:
with ``serve_stale=True`` the edge serves the last-known-fresh entry (and
counts it); otherwise the client receives the typed transport error line
(``RPCTransportError:`` / ``CircuitOpenError:``), which
:func:`repro.rpc.envelope.raise_remote` maps back to the real exception
type so fallback policies trigger exactly as on a direct connection.
"""

from __future__ import annotations

import threading
import time

from repro.cluster.stitch import stitch_exact
from repro.core.encoding import finish_reply
from repro.core.filter_splits import SPLIT_FILTERS, require_point_scalar
from repro.edge.coherence import CoherenceTracker
from repro.errors import FormatError, RPCError, RPCRemoteError
from repro.io.vgf import StoredBlock
from repro.obs.metrics import Registry
from repro.obs.trace import NULL_TRACER
from repro.rpc import envelope
from repro.rpc.client import RPCClient
from repro.rpc.forward import RELAY_ERRORS, ForwardingHandler
from repro.rpc.mux import DEFAULT_DRAIN_TIMEOUT, AsyncServerTransport
from repro.rpc.server import RPCServer
from repro.storage.cache import ArrayCache, SelectionCache

__all__ = ["EdgeCacheServer"]


class _TransientReply(Exception):
    """Loader-internal: an upstream error reply that must not be cached."""

    def __init__(self, line: str):
        super().__init__(line)
        self.line = line


class EdgeCacheServer:
    """A caching msgpack-rpc proxy in front of one NDP site or a cluster.

    Parameters
    ----------
    upstreams:
        Transports to the storage-side server(s), in failover order.  May
        be omitted when ``cluster`` is given (the cluster's pool endpoints
        are used).
    cluster:
        Optional :class:`~repro.cluster.shard_client.ClusterClient`; when
        set, ``prefilter_contour`` misses on the manifest's object are
        computed by scatter-gather across the shards (and stitched/encoded
        at the edge); every other key is forwarded.
    cache_bytes:
        Byte budget for the decoded-array block cache (``0`` disables the
        local-compute path).
    reply_cache_bytes:
        Byte budget for the encoded-reply cache (``0`` makes the edge a
        pure forwarder).
    coherence:
        ``"strict"`` (revalidate upstream on every serve — never stale) or
        ``"watch"`` (serve from last-known tokens; freshness bounded by
        :meth:`poll` cadence).
    serve_stale:
        When the upstream is unreachable at revalidation, serve the
        last-known-fresh cached entry instead of the transport error.
    promote_after:
        Distinct reply-cache misses for one ``(object, array)`` before the
        edge pulls the block and starts computing selections locally.
    verify_checksums:
        Stamp CRCs on locally computed replies; must match the upstream
        server's setting for byte-identity.
    watch_interval:
        In ``watch`` mode, the background re-probe period in seconds
        (``None`` leaves polling to explicit :meth:`poll` calls).
    """

    #: methods answered from the edge's own state
    LOCAL_METHODS = frozenset({"stats", "health"})
    #: methods whose replies are cacheable under a version token, with
    #: the split filter each one serves
    CACHEABLE_METHODS = {op.method: op for op in SPLIT_FILTERS.values()}

    def __init__(
        self,
        upstreams=None,
        *,
        cluster=None,
        cache_bytes: int = 128 * 1024 * 1024,
        reply_cache_bytes: int = 64 * 1024 * 1024,
        coherence: str = "strict",
        serve_stale: bool = False,
        promote_after: int = 2,
        verify_checksums: bool = True,
        tracer=None,
        registry: Registry | None = None,
        testbed=None,
        watch_interval: float | None = None,
    ):
        if upstreams is None and cluster is not None:
            pool = cluster.pool
            upstreams = [pool.transport(i) for i in range(len(pool))]
        if not upstreams:
            raise RPCError("EdgeCacheServer needs at least one upstream")
        self.cluster = cluster
        self.serve_stale = bool(serve_stale)
        self.promote_after = int(promote_after)
        self.verify_checksums = bool(verify_checksums)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry if registry is not None else Registry()
        self.testbed = testbed
        self.watch_interval = watch_interval
        self._listener = None
        self._watch_thread = None
        self._watch_stop = threading.Event()

        reg = self.registry
        self._requests = reg.counter(
            "requests", "client requests proxied or served from cache")
        self._latency = reg.histogram(
            "request_latency_seconds", help="edge-observed request latency")
        self._forwards = reg.counter(
            "edge_forwards", "raw frames relayed upstream")
        self._upstream_errors = reg.counter(
            "edge_upstream_errors", "upstream transport failures")
        self._revalidations = reg.counter(
            "edge_revalidations", "version-token probes issued upstream")
        self._revalidate_hits = reg.counter(
            "edge_revalidate_hits", "probes confirming tokens unchanged")
        self._invalidations = reg.counter(
            "edge_invalidations", "probes observing a token change")
        self._negative_hits = reg.counter(
            "edge_negative_hits", "cached error replies served")
        self._stale_served = reg.counter(
            "edge_stale_served", "entries served past a failed revalidation")
        self._local_computes = reg.counter(
            "edge_local_computes", "selections computed from cached blocks")
        self._block_promotions = reg.counter(
            "edge_block_promotions", "array blocks pulled for local compute")

        self.forwarder = ForwardingHandler(
            upstreams,
            tracer=self.tracer,
            via="edge",
            counters={
                "forwards": self._forwards,
                "upstream_errors": self._upstream_errors,
            },
        )
        # One probe client per upstream, sharing the forwarder's
        # transports: a TCP upstream is one pipelined connection whose
        # wire msgids it owns, so probes and relayed frames from any
        # number of clients interleave safely, duplicate msgids included.
        self._clients = [RPCClient(t) for t in self.forwarder.transports]

        self.coherence = CoherenceTracker(
            self._probe,
            mode=coherence,
            counters={
                "revalidations": self._revalidations,
                "revalidate_hits": self._revalidate_hits,
                "invalidations": self._invalidations,
            },
        )

        self.reply_cache = (
            SelectionCache(reply_cache_bytes, name="edge_reply_cache",
                           tracer=self.tracer)
            if reply_cache_bytes else None
        )
        self.block_cache = (
            ArrayCache(cache_bytes, name="edge_block_cache",
                       tracer=self.tracer)
            if cache_bytes and cluster is None else None
        )
        if self.reply_cache is not None:
            reg.register("reply_cache", self.reply_cache.info)
        if self.block_cache is not None:
            reg.register("block_cache", self.block_cache.info)
        reg.register("edge", self._edge_info)

        #: (key, array) -> distinct reply-miss count, for block promotion
        self._miss_counts: dict[tuple, int] = {}
        self._miss_lock = threading.Lock()
        #: (key, array) pairs the local path proved it cannot serve
        self._local_blacklist: set[tuple] = set()
        #: upstream predates ``object_version`` — run as a pure forwarder
        self._probe_unsupported = False

        self.rpc = RPCServer(
            {
                "stats": self.stats_snapshot,
                "health": self.health,
            },
            tracer=self.tracer,
        )

    # ------------------------------------------------------------------
    # upstream helpers
    # ------------------------------------------------------------------
    def _call_upstream(self, method: str, *params):
        last_error = None
        for client in self._clients:
            try:
                return client.call(method, *params)
            except RELAY_ERRORS as exc:
                self._upstream_errors.inc()
                last_error = exc
        raise last_error

    def _probe(self, key: str):
        """Coherence probe: ``(version token, map_version)`` for ``key``."""
        resp = self._call_upstream("object_version", key)
        version = resp.get("version") if isinstance(resp, dict) else None
        if isinstance(version, list):
            version = tuple(version)
        map_version = resp.get("map_version") if isinstance(resp, dict) else None
        return (version, map_version)

    # ------------------------------------------------------------------
    # the dispatcher: every client frame enters here
    # ------------------------------------------------------------------
    def dispatch(self, payload: bytes) -> bytes | None:
        return self.handle(envelope.parse_request(payload))

    def handle(self, req: envelope.Request) -> bytes | None:
        if req.kind is None:
            # Malformed frames get the local server's usual protocol error.
            return self.rpc.handle(req)
        if req.kind == envelope.NOTIFY:
            try:
                return self.forwarder.handle(req)
            except RELAY_ERRORS:
                return None
        if req.method in self.LOCAL_METHODS:
            return self.rpc.handle(req)
        self._requests.inc()
        wall0 = time.perf_counter()
        params = req.params
        try:
            if (
                req.method in self.CACHEABLE_METHODS
                and self.reply_cache is not None
                and not self._probe_unsupported
                and isinstance(params, (list, tuple))
                and len(params) >= 2
                and isinstance(params[0], str)
                and isinstance(params[1], str)
            ):
                out = self._serve_cacheable(req)
            else:
                out = self.forwarder.handle(req)
        except Exception as exc:  # never kill the worker thread
            out = envelope.response(req.msgid, envelope.error_line(exc))
        self._latency.observe(time.perf_counter() - wall0)
        return out

    # ------------------------------------------------------------------
    def _serve_cacheable(self, req: envelope.Request):
        op = self.CACHEABLE_METHODS[req.method]
        key, array = req.params[0], req.params[1]
        try:
            args = op.bind(req.params[2:])
        except RPCError:
            # Malformed parameters: the upstream owns the error reply.
            return self.forwarder.handle(req)
        # Canonical, so spelling a default out is not a second entry.
        request_key = op.request_key(key, array, args)
        try:
            version, map_version = self.coherence.revalidate(key)
        except RELAY_ERRORS:
            stale = self._try_serve_stale(req, request_key, key)
            if stale is not None:
                return stale
            raise
        except RPCRemoteError as exc:
            line = exc.remote_message
            if "no such method" in line:
                # Upstream predates the coherence protocol: caching would
                # risk staleness, so degrade to a pure forwarder.
                self._probe_unsupported = True
                return self.forwarder.handle(req)
            # Missing object / degraded store: the probe's error line *is*
            # the version — deterministic errors become negative entries
            # keyed by it, and recovery changes the line or the token.
            version, map_version = ("probe-error", line), None

        cache_key = request_key + (version, map_version)
        raw_box: list = []

        def load():
            local = self._compute_locally(op, key, array, args, version,
                                          map_version)
            if local is not None:
                return ("ok", local)
            raw = self.forwarder.handle(req)
            try:
                reply = envelope.parse_response(raw)
            except (FormatError, RPCError):
                raise RPCError("upstream returned a non-response frame") from None
            raw_box.append(raw)
            if reply.error is None:
                if isinstance(reply.result, dict):
                    self.coherence.note_map_version(
                        key, reply.result.get("map_version"))
                return ("ok", reply.result)
            line = str(reply.error)
            if envelope.parse_error(line)[0] is not None:
                # A transient condition of the *upstream site*, not of the
                # request: relayed to the asking client but never cached
                # (retrying must be allowed to succeed).
                raise _TransientReply(line)
            return ("err", line)

        try:
            status, value = self.reply_cache.get_or_load(cache_key, load)
        except _TransientReply as exc:
            if raw_box:
                return raw_box[0]
            return envelope.response(req.msgid, exc.line)
        if raw_box:
            # Leader with fresh upstream bytes: relay them verbatim, so a
            # cold request is byte-identical to a direct connection
            # (msgid, spans, everything).
            return raw_box[0]
        if status == "err":
            self._negative_hits.inc()
            return self._pack_reply(req, value, None, cache="negative")
        return self._pack_reply(req, None, value, cache="hit")

    def _pack_reply(self, req: envelope.Request, error, result, cache: str):
        """Pack a cache-served reply, grafting a ``via``-tagged span when
        the request was traced (mirrors the forwarder's reply shape)."""
        trace_ctx = req.trace_ctx if self.tracer else None
        spans = None
        if trace_ctx is not None:
            with self.tracer.activate(trace_ctx, "edge.serve", via="edge",
                                      cache=cache) as span:
                pass
            spans = [span.to_dict()]
        return envelope.response(req.msgid, error, result, spans)

    def _try_serve_stale(self, req: envelope.Request, request_key, key):
        """Failure-ladder rung: upstream down, serve last-known-fresh."""
        if not self.serve_stale:
            return None
        known = self.coherence.last_known(key)
        if known is None or self.reply_cache is None:
            return None
        entry = self.reply_cache.peek(request_key + tuple(known))
        if entry is None or entry[0] != "ok":
            return None
        self._stale_served.inc()
        return self._pack_reply(req, None, entry[1], cache="stale")

    # ------------------------------------------------------------------
    # local compute over cached blocks
    # ------------------------------------------------------------------
    def _compute_locally(self, op, key, array, args, version, map_version):
        """An encoded reply computed at the edge, or ``None`` to forward.

        Single-server mode pulls hot blocks and runs the storage server's
        own ``op.pre`` and reply tail, so the bytes match; cluster mode
        scatter-gathers the shards of the manifest's object and
        stitches/encodes here.  Any condition the local path cannot
        honour (other objects, edge-mode ROIs, non-point arrays, decode
        surprises) falls back to forwarding.
        """
        if self.cluster is not None:
            if key != self.cluster.manifest.source_key:
                return None  # the shards hold only the manifest's object
            return self._cluster_compute(op, array, args, map_version)
        if self.block_cache is None:
            return None
        if not isinstance(version, tuple) or version[:1] == ("probe-error",):
            return None
        if (key, array) in self._local_blacklist:
            return None
        block_key = (key, array, version)
        pair = self.block_cache.peek(block_key)
        if pair is None:
            if not self._should_promote(key, array):
                return None
            try:
                pair = self.block_cache.get_or_load(
                    block_key, lambda: self._fetch_block(key, array))
            except RELAY_ERRORS:
                raise
            except Exception:
                # Block fetch/decoding failed for a reason the upstream
                # may still handle (e.g. exotic codec): forward instead.
                return None
        grid, entry = pair
        try:
            require_point_scalar(entry)
            with self.tracer.span("edge.compute", key=key, array=array):
                if self.testbed is not None:
                    self.testbed.charge_filter_scan(entry.raw_bytes)
                selection = op.pre(grid, array, args)
                return self._finish(selection, entry.stats(), args,
                                    map_version)
        except RELAY_ERRORS:
            raise
        except Exception:
            # The upstream reports it with its own typed error.
            self._local_blacklist.add((key, array))
            return None

    def _finish(self, selection, block_stats, args, map_version):
        encoded = finish_reply(
            selection, block_stats, args["encoding"], args["wire_codec"],
            checksum=self.verify_checksums, testbed=self.testbed,
        )
        if map_version is not None:
            encoded["map_version"] = map_version
        self._local_computes.inc()
        return encoded

    def _should_promote(self, key: str, array: str) -> bool:
        with self._miss_lock:
            if len(self._miss_counts) > 4096:
                self._miss_counts.clear()
            count = self._miss_counts.get((key, array), 0) + 1
            self._miss_counts[(key, array)] = count
        return count >= self.promote_after

    def _fetch_block(self, key: str, array: str):
        """Pull one stored block upstream and decode it exactly as the
        storage server would locally."""
        block = StoredBlock.from_wire(
            self._call_upstream("read_block", key, array))
        entry = block.entry
        with self.tracer.span("decompress", codec=entry.codec,
                              raw_bytes=entry.raw_bytes):
            if self.testbed is not None:
                self.testbed.charge_decompress(entry.codec, entry.raw_bytes)
            pair = block.grid(), entry
        self._block_promotions.inc()
        return pair

    def _cluster_compute(self, op, array, args, map_version):
        """Scatter-gather across the shards, stitch and encode here."""
        if op.kind != "contour" or not stitch_exact(args):
            return None  # only these stitch to the origin server's bytes
        try:
            selection, stats = self.cluster.prefilter(array, args)
            # The probe saw the live shard-map generation; the cluster
            # client's stats may still carry the manifest's cached one.
            live = map_version if map_version is not None \
                else stats.get("map_version")
            return self._finish(selection, {
                "stored_bytes": int(stats.get("stored_bytes", 0)),
                "raw_bytes": int(stats.get("raw_bytes", 0)),
                "codec": "cluster",
            }, args, live)
        except RELAY_ERRORS:
            raise
        except Exception:
            return None

    # ------------------------------------------------------------------
    # local endpoints
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The ``stats`` RPC endpoint: the edge's own registry snapshot."""
        return self.registry.snapshot()

    def _edge_info(self) -> dict:
        reply = (self.reply_cache.info() if self.reply_cache is not None
                 else {"enabled": False})
        block = (self.block_cache.info() if self.block_cache is not None
                 else {"enabled": False})
        hits = int(reply.get("hits", 0))
        misses = int(reply.get("misses", 0))
        total = hits + misses
        return {
            "kind": "edge",
            "upstreams": len(self.forwarder.transports),
            "cluster": self.cluster is not None,
            "coherence": self.coherence.mode,
            "serve_stale": self.serve_stale,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else 0.0,
            "coalesced": int(reply.get("coalesced", 0)),
            "revalidations": int(self._revalidations.value),
            "revalidate_hits": int(self._revalidate_hits.value),
            "invalidations": int(self._invalidations.value),
            "negative_hits": int(self._negative_hits.value),
            "stale_served": int(self._stale_served.value),
            "upstream_errors": int(self._upstream_errors.value),
            "forwards": int(self._forwards.value),
            "local_computes": int(self._local_computes.value),
            "block_promotions": int(self._block_promotions.value),
            "reply_cache": reply,
            "block_cache": block,
        }

    def health(self) -> dict:
        """Edge liveness plus one-hop upstream reachability."""
        out = {
            "status": "ok",
            "kind": "edge",
            "draining": self._listener is not None and self._listener.draining,
            "requests_served": int(self._requests.value),
        }
        try:
            upstream = self._call_upstream("health")
            out["upstream_reachable"] = True
            if isinstance(upstream, dict):
                out["upstream_status"] = upstream.get("status")
                if upstream.get("map_version") is not None:
                    out["map_version"] = upstream["map_version"]
        except Exception as exc:
            out["upstream_reachable"] = False
            out["upstream_error"] = f"{type(exc).__name__}: {exc}"
            out["status"] = "degraded"
        out["edge"] = self._edge_info()
        if self._listener is not None:
            out["fair_queue"] = self._listener.scheduler.info()
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def poll(self, keys=None) -> int:
        """Re-probe known version tokens (the ``watch`` mode heartbeat)."""
        return self.coherence.poll(keys)

    def start_watch(self, interval: float | None = None) -> None:
        """Start the background re-probe loop (``watch`` mode only)."""
        interval = interval if interval is not None else self.watch_interval
        if not interval or self._watch_thread is not None:
            return
        self._watch_stop.clear()

        def run():
            while not self._watch_stop.wait(interval):
                try:
                    self.coherence.poll()
                except Exception:
                    continue

        self._watch_thread = threading.Thread(
            target=run, name="edge-coherence-watch", daemon=True)
        self._watch_thread.start()

    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0,
                  max_connections: int | None = None):
        """Listen on TCP; returns the started listener (``.port`` is the
        bound port when ``port=0``)."""
        self._listener = AsyncServerTransport(
            self.handle, host=host, port=port,
            max_connections=max_connections,
        ).start()
        if self.coherence.mode == "watch" and self.watch_interval:
            self.start_watch()
        return self._listener

    def close(self) -> bool:
        """Stop the watch loop and drain the listener: in-flight requests
        get :data:`~repro.rpc.mux.DEFAULT_DRAIN_TIMEOUT` seconds to finish
        and flush.  Returns True when nothing had to be forced."""
        self._watch_stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join(timeout=1.0)
            self._watch_thread = None
        clean = True
        if self._listener is not None:
            clean = self._listener.stop(drain_timeout=DEFAULT_DRAIN_TIMEOUT)
            self._listener = None
        return clean
