"""The storage-side NDP service (paper Fig. 10, left half / Fig. 11a).

Runs next to the object store: mounts the bucket through a *local*
:class:`~repro.storage.s3fs.S3FileSystem` (no network link), and exposes
over RPC:

* ``prefilter_contour`` / ``prefilter_threshold`` / ``prefilter_slice`` —
  the offload, one endpoint per row of
  :data:`~repro.core.filter_splits.SPLIT_FILTERS`: read the array block,
  decompress, pre-filter, return the encoded selection plus per-phase
  statistics (``prefilter_batch`` runs several in one round trip),
* ``read_array(key, array)`` — a whole-array fetch (lets a client fall
  back to baseline through the same endpoint),
* ``list_objects(prefix)`` / ``describe(key)`` — discovery.

If constructed with a :class:`~repro.storage.netsim.Testbed`, the server
charges its CPU phases (decompression, pre-filter scan) to the simulated
clock, mirroring where those costs land in the paper's NDP runs.  The
real work always happens; only time is modelled.

With ``cache_bytes`` / ``selection_cache_bytes`` budgets the server keeps
storage-side caches (see :mod:`repro.storage.cache`): decoded array
blocks and encoded pre-filter replies, both with single-flight request
coalescing across the TCP listener's worker threads.  Testbed phases
are charged *inside* the cache loaders, so a hit honestly skips the
read/decompress (array cache) or the whole scan+encode (selection cache)
on the simulated clock too.  Entries are keyed by the store's
mtime/version token for the object, so overwriting an object invalidates
by construction.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.encoding import encode_selection, finish_reply, wire_size
from repro.core.filter_splits import (
    DEFAULT_WIRE_CODEC,
    SPLIT_FILTERS,
    SplitFilter,
    bind_request,
    require_point_scalar,
)
from repro.core.prefilter import prefilter_contour
from repro.errors import IntegrityError, RPCError
from repro.io.vgf import (
    StoredBlock,
    array_collection,
    read_vgf_block,
    read_vgf_info,
)
from repro.obs.flightrec import NULL_RECORDER, FlightRecorder
from repro.obs.metrics import Registry
from repro.obs.profile import NULL_PROFILER, SamplingProfiler
from repro.obs.slo import SLOEngine
from repro.obs.trace import NULL_TRACER
from repro.rpc.admission import check_deadline
from repro.rpc.fairshare import FairScheduler
from repro.rpc.server import RPCServer
from repro.storage.cache import ArrayCache, SelectionCache
from repro.storage.s3fs import S3FileSystem

__all__ = ["NDPServer"]


class NDPServer:
    """Storage-side partial-pipeline host.

    Parameters
    ----------
    fs:
        A *locally mounted* filesystem over the object store (its ``link``
        should be ``None``: in the NDP placement s3fs is colocated with
        the store, paper Fig. 11a).
    testbed:
        Optional cost model; when present, decompress and scan phases
        advance its simulated clock.
    cache_bytes:
        Byte budget for the decoded-array LRU cache (0 disables it, the
        default — benchmarks that model per-load costs construct the
        server cold).  The ``serve`` CLI enables it by default.
    selection_cache_bytes:
        Byte budget for the encoded pre-filter reply cache (0 disables).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` (use a dedicated
        instance per server, labelled e.g. ``"server"``).  Handlers then
        open child spans around store reads, decompression, pre-filter
        scans, and encoding, nested under the caller's propagated trace
        context, and ship them back in each traced reply.
    registry:
        Optional :class:`~repro.obs.metrics.Registry`; one is created
        when omitted.  All request counters, the request-latency
        histograms, and both cache stats surface through its
        ``snapshot()`` (also exposed as the ``stats`` RPC endpoint).
    flight_recorder:
        ``"auto"`` (default) builds an always-on
        :class:`~repro.obs.flightrec.FlightRecorder`; pass an instance to
        share one, or ``None``/``False`` to disable.  The recorder feeds
        on request begin/end, phase timings, sheds, integrity failures,
        and cache outcomes, and is exposed as the ``dump`` RPC endpoint.
    slo:
        ``"auto"`` (default) builds a per-tenant
        :class:`~repro.obs.slo.SLOEngine` with the default objective;
        pass an instance to customize, or ``None``/``False`` to disable.
        Burn state surfaces through ``stats``/``health`` either way;
        shedding decisions only consult it when ``slo_shed`` is set.
    profiler:
        ``"auto"`` (default) builds a
        :class:`~repro.obs.profile.SamplingProfiler` (started by the
        ``serve_*`` methods, stopped on listener stop); pass an instance
        or ``None``/``False``.  Exposed as the ``profile`` RPC endpoint.
    dump_dir:
        Directory the flight recorder writes trigger/drain dumps into.
        ``None`` (default) keeps the ring in memory only — explicit
        ``dump`` RPCs with a path still work.
    slo_shed:
        When true, the fair queue refuses requests from tenants burning
        their error budget while they have a backlog — SLO-aware shedding
        (off by default: observe first).
    """

    def __init__(
        self,
        fs: S3FileSystem,
        testbed=None,
        cache_bytes: int = 0,
        selection_cache_bytes: int = 0,
        tracer=None,
        registry: Registry | None = None,
        flight_recorder="auto",
        slo="auto",
        profiler="auto",
        dump_dir: str | None = None,
        slo_shed: bool = False,
        map_version=None,
    ):
        self.fs = fs
        #: live shard-map generation advertised in every pre-filter reply:
        #: an int, a zero-arg callable (e.g. ``ManifestWatcher.version``),
        #: or ``None`` to omit the token entirely (monolithic serving —
        #: keeps those replies byte-identical to pre-replication peers).
        self.map_version = map_version
        self.testbed = testbed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry if registry is not None else Registry()
        if flight_recorder == "auto":
            self.recorder = FlightRecorder(dump_dir=dump_dir, process="server")
        else:
            self.recorder = flight_recorder or NULL_RECORDER
        if slo == "auto":
            self.slo = SLOEngine()
        else:
            self.slo = slo or None
        if profiler == "auto":
            self.profiler = SamplingProfiler()
        else:
            self.profiler = profiler or NULL_PROFILER
        self.slo_shed = bool(slo_shed)
        self._listener = None
        cache_recorder = self.recorder if self.recorder else None
        self.array_cache = (
            ArrayCache(cache_bytes, tracer=self.tracer, recorder=cache_recorder)
            if cache_bytes > 0 else None
        )
        self.selection_cache = (
            SelectionCache(selection_cache_bytes, tracer=self.tracer,
                           recorder=cache_recorder)
            if selection_cache_bytes > 0
            else None
        )
        # Lifetime request counters; scanned vs shipped bytes is the
        # server's aggregate view of the paper's data-reduction claim.
        self._requests = self.registry.counter(
            "requests", "total pre-filter requests served")
        self._prefilter_calls = self.registry.counter(
            "prefilter_calls", "pre-filter endpoint invocations")
        self._raw_bytes_scanned = self.registry.counter(
            "raw_bytes_scanned", "decompressed bytes scanned by pre-filters")
        self._wire_bytes_sent = self.registry.counter(
            "wire_bytes_sent", "encoded selection bytes shipped to clients")
        self._selected_points = self.registry.counter(
            "selected_points", "points selected across all pre-filters")
        self._latency = self.registry.histogram(
            "request_latency_seconds",
            help="wall-clock latency of pre-filter requests")
        self._sim_latency = self.registry.histogram(
            "request_sim_seconds",
            help="simulated-clock cost of pre-filter requests")
        self._integrity_failures = self.registry.counter(
            "integrity_failures",
            "checksum mismatches detected on at-rest reads")
        self._hedged_requests = self.registry.counter(
            "hedged_requests", "requests tagged as client hedge attempts")
        self._failover_requests = self.registry.counter(
            "failover_requests",
            "requests tagged as client failover attempts")
        self.registry.register("admission", self.admission_info)
        if self.array_cache is not None:
            self.registry.register("array_cache", self.array_cache.info)
        if self.selection_cache is not None:
            self.registry.register("selection_cache", self.selection_cache.info)
        if self.recorder:
            self.registry.register("flightrec", self.recorder.info)
        if self.slo is not None:
            self.registry.register("slo", self.slo.snapshot)
        if self.profiler:
            self.registry.register("profiler", self.profiler.info)
        self.rpc = RPCServer(
            {
                **{op.method: getattr(self, op.method)
                   for op in SPLIT_FILTERS.values()},
                "prefilter_batch": self.prefilter_batch,
                "probe_selectivity": self.probe_selectivity,
                "array_statistics": self.array_statistics,
                "render_contour": self.render_contour,
                "read_array": self.read_array,
                "list_objects": self.list_objects,
                "describe": self.describe,
                "object_version": self.object_version,
                "read_block": self.read_block,
                "stats": self.stats_snapshot,
                "health": self.health,
                "dump": self.dump_flight,
                "profile": self.profile_snapshot,
            },
            tracer=self.tracer,
            recorder=self.recorder if self.recorder else None,
            slo=self.slo,
            ctx_counters={
                "hedge": self._hedged_requests.inc,
                "failover": self._failover_requests.inc,
            },
        )

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def list_objects(self, prefix: str = "") -> list:
        return self.fs.listdir(prefix)

    def describe(self, key: str) -> dict:
        """Header summary of one VGF object."""
        with self.fs.open(key) as fh:
            info = read_vgf_info(fh)
        return {
            "dims": list(info.dims),
            "origin": list(info.origin),
            "spacing": list(info.spacing),
            "meta": info.meta,
            "arrays": [
                {
                    "name": a.name,
                    "dtype": a.dtype,
                    "codec": a.codec,
                    "stored_bytes": a.stored_bytes,
                    "raw_bytes": a.raw_bytes,
                }
                for a in info.arrays
            ],
        }

    def object_version(self, key: str) -> dict:
        """Coherence probe for downstream cache tiers (metadata only).

        Returns the store's version token for ``key`` plus the live shard
        ``map_version`` when one is configured — everything an edge cache
        needs to decide whether its entries for this object are still
        fresh, in one cheap round trip that never touches array data.
        Unlike :meth:`_store_version` this *raises* for a missing object
        (as a typed storage error over the wire): an edge must be able to
        tell "object gone" from "no version surface".
        """
        version = getattr(self.fs, "version", None)
        token = version(key) if version is not None else None
        out = {"version": list(token) if isinstance(token, tuple) else token}
        map_version = self._current_map_version()
        if map_version is not None:
            out["map_version"] = map_version
        return out

    def read_block(self, key: str, array: str) -> dict:
        """Ship one array's *stored* block plus its decode recipe.

        The edge tier promotes hot objects by pulling the compressed
        block once and decoding it locally, after which nearby-ROI
        requests never cross the WAN.  The reply carries exactly what
        :meth:`~repro.io.vgf.StoredBlock.from_wire` needs: grid
        structure, the :class:`~repro.io.vgf.ArrayInfo` decode fields and
        checksum, the stored (still-compressed) bytes, and the
        version token the block was read under, so the edge caches it
        coherently.
        """
        return self._read_stored(key, array).to_wire(self._store_version(key))

    def _store_version(self, key: str):
        """Invalidation token for ``key`` (store mtime/version + size).

        Metadata-only, so probing it per request is cheap next to a read.
        ``None`` (a store-like without any version surface) still caches,
        but then an overwrite is only noticed if the size changes.
        """
        version = getattr(self.fs, "version", None)
        if version is None:
            return None
        try:
            return version(key)
        except Exception:
            return None

    def _read_stored(self, key: str, array: str) -> StoredBlock:
        """The one store read: header plus ``array``'s verified block."""
        check_deadline("store read")
        try:
            with self.tracer.span("store.read", key=key, array=array), \
                    self.recorder.phase("store.read", key=key, array=array):
                with self.fs.open(key) as fh:
                    info = read_vgf_info(fh)
                    stored, entry = read_vgf_block(fh, array, info)
        except IntegrityError:
            # Fail loudly, never serve wrong geometry: the typed error
            # crosses the wire and the client re-reads / falls back.
            # Outside the phase scope so the trigger dump already holds
            # the failed store.read phase — the timeline explains itself.
            self._integrity_failures.inc()
            self.tracer.add_event("integrity.failure", key=key, array=array)
            self.recorder.record("integrity.failure", key=key, array=array)
            raise
        return StoredBlock(info, entry, stored)

    def _source(self, key: str, array: str, memo: dict | None = None):
        """One decoded ``(grid, entry)`` pair, via every cache layer.

        Lookup order: the running batch's ``memo`` (one read per object
        per ``prefilter_batch``, even with caching off), then the shared
        :class:`~repro.storage.cache.ArrayCache` (single-flight across
        worker threads), then the store.  Testbed read and
        decompress charges happen only on the store path, where
        ``store.read`` covers the object read and checksum (its sim time
        is the modelled SSD cost) and ``decompress`` the modelled
        decompression charge and the real decode.
        """
        if memo is not None and (key, array) in memo:
            return memo[(key, array)]

        def read():
            block = self._read_stored(key, array)
            entry = block.entry
            check_deadline("decompress")
            with self.tracer.span("decompress", codec=entry.codec,
                                  raw_bytes=entry.raw_bytes), \
                    self.recorder.phase("decompress", codec=entry.codec):
                if self.testbed is not None:
                    self.testbed.charge_decompress(entry.codec, entry.raw_bytes)
                return block.grid(), entry

        if self.array_cache is not None:
            pair = self.array_cache.get_or_load(
                (key, array, self._store_version(key)), read)
        else:
            pair = read()
        if memo is not None:
            memo[(key, array)] = pair
        return pair

    def _prefilter(self, op: SplitFilter, key: str, array: str, args: dict,
                   memo: dict | None = None) -> dict:
        """Serve one split-filter request: ``source -> op -> finish``.

        ``args`` are ``op``'s bound arguments (``wire_codec`` compresses
        the selection payload before transfer — the paper's Fig. 9
        compression/NDP composition applied to the NDP reply itself).
        The compute runs behind the selection cache when one is enabled,
        keyed by the canonical request plus the store's version token for
        ``key``, so an overwrite invalidates.  Per-request accounting
        runs on every call — a cache hit is a served request; only the
        compute is shared.  Each served reply lands one observation in
        the wall-clock latency histogram (and the simulated one, when a
        testbed is attached).
        """

        def compute() -> dict:
            grid, entry = self._source(key, array, memo=memo)
            require_point_scalar(entry)
            check_deadline("pre-filter scan")
            with self.tracer.span("prefilter", kind=op.kind, key=key,
                                  array=array), \
                    self.recorder.phase("prefilter", kind=op.kind, key=key):
                if self.testbed is not None:
                    self.testbed.charge_filter_scan(entry.raw_bytes)
                selection = op.pre(grid, array, args)
            encoding, wire_codec = args["encoding"], args["wire_codec"]
            check_deadline("encode")
            with self.tracer.span("encode", encoding=encoding,
                                  wire_codec=wire_codec), \
                    self.recorder.phase("encode", wire_codec=wire_codec):
                return finish_reply(selection, entry.stats(), encoding,
                                    wire_codec, testbed=self.testbed)

        wall0 = time.perf_counter()
        sim0 = self.testbed.clock.now if self.testbed is not None else None
        if self.selection_cache is None:
            encoded = compute()
        else:
            encoded = self.selection_cache.get_or_load(
                op.request_key(key, array, args) + (self._store_version(key),),
                compute,
            )
        # Exemplar: the slowest request in each latency bucket keeps its
        # trace id, so a histogram outlier links straight to its trace.
        exemplar = None
        span = self.tracer.current_span()
        if span.trace_id:
            exemplar = {"trace_id": span.trace_id, "span_id": span.span_id}
        self._latency.observe(time.perf_counter() - wall0, exemplar=exemplar)
        if sim0 is not None:
            self._sim_latency.observe(self.testbed.clock.now - sim0)
        # Instruments are thread-safe: the TCP listener dispatches on a
        # pool of worker threads.
        stats = encoded["stats"]
        self._requests.inc()
        self._prefilter_calls.inc()
        self._raw_bytes_scanned.inc(stats["raw_bytes"])
        self._wire_bytes_sent.inc(stats["wire_bytes"])
        self._selected_points.inc(stats["selected_points"])
        # Shallow copy: cached replies are shared across threads and the
        # dispatcher/transport must be free to mutate its own frame dict.
        out = dict(encoded)
        version = self._current_map_version()
        if version is not None:
            # Stamped on the copy, post-cache: a cached reply body still
            # advertises the *live* generation.  ``map_version`` is
            # checksum-exempt (see encoding._CHECKSUM_KEYS) precisely so
            # this stamp never invalidates the cached digest.
            out["map_version"] = version
        return out

    def _current_map_version(self):
        v = self.map_version() if callable(self.map_version) else self.map_version
        return int(v) if v is not None else None

    def health(self) -> dict:
        """Cheap liveness/readiness probe for clients and load balancers.

        Unlike the pre-filter endpoints this touches no object data, so a
        resilient client (or its circuit breaker's half-open probe) can
        distinguish "server down" from "that one object is bad" without
        paying for an array scan.  ``store_reachable`` confirms the local
        mount answers a metadata call.
        """
        try:
            self.fs.listdir("")
            store_reachable = True
        except Exception:
            store_reachable = False
        served = int(self._requests.value)
        draining = self._listener is not None and self._listener.draining
        if draining:
            status = "draining"
        elif store_reachable:
            status = "ok"
        else:
            status = "degraded"
        out = {
            "status": status,
            "store_reachable": store_reachable,
            "draining": draining,
            "requests_served": served,
            "admission": self.admission_info(),
            "integrity_failures": int(self._integrity_failures.value),
            "array_cache": self._cache_info(self.array_cache),
            "selection_cache": self._cache_info(self.selection_cache),
            "hedged_requests": int(self._hedged_requests.value),
            "failover_requests": int(self._failover_requests.value),
        }
        version = self._current_map_version()
        if version is not None:
            out["map_version"] = version
        if self._listener is not None:
            out["fair_queue"] = self._listener.scheduler.info()
        if self.slo is not None:
            snap = self.slo.snapshot()
            out["slo"] = {
                "tenants": len(snap["tenants"]),
                "burning": sorted(
                    name for name, state in snap["tenants"].items()
                    if state.get("burning")
                ),
            }
        return out

    def admission_info(self) -> dict:
        """The ``admission`` block of ``stats`` and ``health``, read off the
        one gate — the listener's fair queue — plus the deadline
        rejections dispatch counted.  Zeros until :meth:`serve_tcp`."""
        if self._listener is not None:
            info = self._listener.scheduler.admission_info()
        else:
            info = dict.fromkeys(
                ("max_inflight", "max_pending", "inflight", "pending",
                 "admitted", "shed", "peak_inflight"), 0)
        info["expired"] = int(self.rpc.expired.value)
        return info

    @staticmethod
    def _cache_info(cache) -> dict:
        return cache.info() if cache is not None else {"enabled": False}

    def stats_snapshot(self) -> dict:
        """The unified registry snapshot (the ``stats`` RPC endpoint).

        One msgpack-safe tree holding every counter, the request-latency
        histograms, and both caches' stats — what ``repro stats <addr>``
        pretty-prints and the Prometheus exporter renders.
        """
        return self.registry.snapshot()

    def dump_flight(self, reason: str = "rpc",
                    last_seconds: float | None = None) -> dict:
        """The ``dump`` RPC endpoint: snapshot the flight ring.

        Returns the recorded events (msgpack-safe dicts) plus the path of
        the JSONL file written server-side when a ``dump_dir`` is
        configured — so ``repro dump <addr>`` works even against a server
        whose disk the operator cannot reach.
        """
        if not self.recorder:
            return {"enabled": False, "events": [], "path": None}
        path = self.recorder.dump(reason=reason, last_seconds=last_seconds)
        return {
            "enabled": True,
            "path": path,
            "events": self.recorder.snapshot(last_seconds),
            "info": self.recorder.info(),
        }

    def profile_snapshot(self, top: int | None = None) -> dict:
        """The ``profile`` RPC endpoint: collapsed flamegraph stacks."""
        return self.profiler.snapshot(top=top)

    def prefilter_batch(self, key: str, requests: list) -> list:
        """Run several pre-filters against one object in one round trip.

        Each request is a map with a ``kind`` (a
        :data:`~repro.core.filter_splits.SPLIT_FILTERS` row), an
        ``array`` and that kind's fields (contours may carry a ``roi``
        6-tuple).  Every entry is bound before any runs, so a malformed
        one fails the batch with no work done.  Each distinct
        ``(key, array)`` block is read **once** per batch — a memo
        shares the decoded grid across the batch's requests even when
        the shared caches are disabled — and the client pays a
        single RPC round trip: the paper's multi-instance pipelines (one
        filter per array, Sec. VI) map onto this directly.
        """
        if not isinstance(requests, list):
            raise RPCError("batch requests must be an array of maps")
        bound = [bind_request(req, i) for i, req in enumerate(requests)]
        memo: dict = {}
        return [self._prefilter(op, key, array, args, memo)
                for op, array, args in bound]

    def probe_selectivity(
        self,
        key: str,
        array: str,
        values: list,
        mode: str = "cell-closure",
    ) -> dict:
        """Measure a contour's selection statistics without transferring it.

        Costs one storage-side array read + scan but only a ~100-byte
        reply — clients probe a representative timestep once, then let the
        offload planner route every subsequent load (see
        :class:`~repro.core.planner.AdaptiveContourClient`).
        """
        grid, entry = self._source(key, array)
        if self.testbed is not None:
            self.testbed.charge_filter_scan(entry.raw_bytes)
        selection = prefilter_contour(grid, array, values, mode=mode)
        encoded = encode_selection(selection,
                                   payload_codec=DEFAULT_WIRE_CODEC)
        return {
            **entry.stats(),
            "selected_points": int(selection.count),
            "total_points": int(selection.total_points),
            "selectivity": selection.selectivity,
            "permillage": selection.permillage,
            "wire_bytes": wire_size(encoded),
        }

    def array_statistics(self, key: str, array: str, bins: int = 32) -> dict:
        """Summary statistics + histogram of a stored array.

        How an interactive client picks contour values without pulling the
        array: min/max/mean/std and a histogram cross the wire instead of
        the data (the same near-data idea applied to value exploration).
        """
        if not 1 <= int(bins) <= 4096:
            raise RPCError(f"bins must be in [1, 4096], got {bins}")
        grid, entry = self._source(key, array)
        if self.testbed is not None:
            self.testbed.charge_filter_scan(entry.raw_bytes)
        values = array_collection(grid, entry).get(array).values.astype(
            np.float64)
        counts, edges = np.histogram(values, bins=int(bins))
        return {
            "count": int(values.size),
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(values.mean()),
            "std": float(values.std()),
            "histogram_counts": [int(c) for c in counts],
            "histogram_edges": [float(e) for e in edges],
            "stored_bytes": entry.stored_bytes,
            "raw_bytes": entry.raw_bytes,
        }

    def render_contour(
        self,
        key: str,
        array: str,
        values: list,
        width: int = 640,
        height: int = 480,
        color: list | None = None,
    ) -> dict:
        """Server-side rendering: contour AND rasterize near the data.

        The third placement option (ParaView's render-server mode): only
        pixels cross the network.  Returns a PPM frame plus stats; the
        bench ``test_ext_strategies`` compares all three placements.
        """
        from repro.filters.contour import contour_grid
        from repro.io.ppm import encode_ppm
        from repro.render.scene import Scene

        grid, entry = self._source(key, array)
        if self.testbed is not None:
            self.testbed.charge_filter_scan(entry.raw_bytes)
        polydata = contour_grid(grid, array, values)
        scene = Scene()
        scene.add_mesh(polydata, color=tuple(color) if color else (0.3, 0.75, 0.9))
        frame = encode_ppm(scene.render(int(width), int(height)))
        return {
            "ppm": frame,
            "stats": {
                **entry.stats(),
                "triangles": int(polydata.polys.num_cells),
                "wire_bytes": len(frame),
            },
        }

    def read_array(self, key: str, array: str) -> dict:
        """Whole-array fetch (baseline-through-RPC path)."""
        grid, entry = self._source(key, array)
        arr = array_collection(grid, entry).get(array)
        return {
            "dims": list(grid.dims),
            "origin": list(grid.origin),
            "spacing": list(grid.spacing),
            "array": array,
            "dtype": arr.values.dtype.str,
            "values": np.ascontiguousarray(arr.values).tobytes(),
            "stats": entry.stats(),
        }

    # ------------------------------------------------------------------
    @property
    def dispatch(self):
        """Frame dispatcher, for in-process/simulated transports."""
        return self.rpc.dispatch

    def serve_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int | None = None,
        workers: int = 8,
        tenant_weights: dict[str, float] | None = None,
        tenant_inflight: int = 0,
        tenant_pending: int = 0,
    ):
        """Listen on TCP; returns the started listener.

        One I/O thread multiplexes every connection and ``workers``
        threads run dispatch through a
        :class:`~repro.rpc.fairshare.FairScheduler`, so requests from a
        flooding tenant queue behind their fair share instead of starving
        everyone else.  That queue is the server's only admission gate:
        ``workers`` bounds concurrency, ``tenant_pending`` bounds each
        tenant's queue, and :meth:`admission_info` reads its counts.  The
        listener is remembered so :meth:`health` can report ``draining``
        while a graceful ``stop(drain_timeout=...)`` runs.
        """
        fair_queue = FairScheduler(
            self.rpc.handle,
            workers=workers,
            weights=tenant_weights,
            max_tenant_inflight=tenant_inflight,
            max_tenant_pending=tenant_pending,
            recorder=self.recorder if self.recorder else None,
            slo=self.slo,
            slo_shed=self.slo_shed,
        )
        self.registry.register("fair_queue", fair_queue.info)
        self._listener = self.rpc.serve_tcp(
            host=host, port=port, max_connections=max_connections,
            scheduler=fair_queue,
        )
        return self._arm_observability(self._listener)

    def _arm_observability(self, listener):
        """Start the profiler; dump the ring and stop it when serving ends.

        The listener's ``stop`` is wrapped rather than subclassed: after
        the transport finishes draining, the flight ring is dumped
        once (``reason="drain"``) and the profiler thread is joined — no
        leaked threads across restarts, and the final seconds of a
        graceful shutdown are always on disk.
        """
        self.profiler.start()
        inner_stop = listener.stop

        def stop(*args, **kwargs):
            try:
                return inner_stop(*args, **kwargs)
            finally:
                self.profiler.stop()
                if self.recorder:
                    self.recorder.dump(reason="drain")

        listener.stop = stop
        return listener


def _endpoint(op: SplitFilter):
    def endpoint(self, key: str, array: str, *params) -> dict:
        return self._prefilter(op, key, array, op.bind(params))

    endpoint.__name__ = op.method
    endpoint.__doc__ = (
        f"The offloaded {op.kind} pre-filter.  Positional parameters after "
        f"``(key, array)``: {', '.join(name for name, *_ in op.params)}.")
    return endpoint


# One RPC endpoint per table row: adding a split filter adds its endpoint.
for _op in SPLIT_FILTERS.values():
    setattr(NDPServer, _op.method, _endpoint(_op))
