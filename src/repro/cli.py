"""Command-line interface: generate datasets, serve, inspect, contour.

Usage (also via ``python -m repro``)::

    python -m repro generate asteroid --dim 64 --store /data/impact --codec lz4
    python -m repro info --store /data/impact
    python -m repro serve --store /data/impact --port 9090
    python -m repro contour --connect 127.0.0.1:9090 --key asteroid/ts00000.vgf \\
        --array v02 --values 0.1 --render frame.ppm
    python -m repro contour --store /data/impact --key asteroid/ts00000.vgf \\
        --array v02 --values 0.1,0.5          # local, no server

The CLI wires together the same public APIs the examples use; it exists
so a downstream user can drive the system without writing Python.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from functools import partial

from repro.core.ndp_client import FallbackPolicy, ndp_contour
from repro.core.ndp_server import NDPServer
from repro.errors import ReproError
from repro.io.ppm import write_ppm
from repro.io.vgf import read_vgf_info, write_vgf
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.flightrec import FlightRecorder, install_signal_dump
from repro.obs.metrics import Tally
from repro.obs.profile import SamplingProfiler
from repro.obs.slo import SLO, SLOEngine
from repro.obs.trace import Tracer
from repro.rpc.client import RPCClient
from repro.rpc.mux import DEFAULT_DRAIN_TIMEOUT
from repro.rpc.pool import parse_address
from repro.rpc.resilience import CircuitBreaker, ResilientTransport, RetryPolicy
from repro.rpc.transport import TCPTransport
from repro.storage.object_store import DirectoryBackend, ObjectStore
from repro.storage.s3fs import S3FileSystem

__all__ = ["main", "build_parser"]

DEFAULT_BUCKET = "sim"


def _open_fs(store_dir: str, bucket: str, create: bool = False) -> S3FileSystem:
    store = ObjectStore(DirectoryBackend(store_dir))
    if create:
        store.create_bucket(bucket)
    return S3FileSystem(store, bucket)


def _write_trace(tracer: Tracer | None, path: str) -> None:
    """Export a tracer's spans (none without one): ``.jsonl`` writes a
    span log, anything else the Chrome trace-event JSON Perfetto loads."""
    if tracer is None:
        return
    spans = tracer.finished()
    if path.endswith(".jsonl"):
        n = write_jsonl(spans, path)
        print(f"wrote {n} spans to {path}")
    else:
        n = write_chrome_trace(spans, path)
        print(f"wrote {n} trace events to {path} (load in Perfetto / "
              f"chrome://tracing)")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    # Imported here so the serving commands never load SciPy.
    from repro.datasets.asteroid import AsteroidImpactDataset, AsteroidParams
    from repro.datasets.nyx import NyxDataset, NyxParams

    fs = _open_fs(args.store, args.bucket, create=True)
    dims = (args.dim, args.dim, args.dim)
    if args.dataset == "asteroid":
        dataset = AsteroidImpactDataset(AsteroidParams(dims=dims))
        arrays = args.arrays.split(",") if args.arrays else ["v02", "v03"]
        for step in dataset.timesteps:
            grid = dataset.generate_arrays(step, arrays)
            key = f"asteroid/ts{step:05d}.vgf"
            fs.write_object(key, write_vgf(grid, codec=args.codec,
                                           meta={"timestep": step}))
            print(f"wrote {key}")
    else:
        grid = NyxDataset(NyxParams(dims=dims)).generate()
        if args.arrays:
            keep = args.arrays.split(",")
            from repro.grid.uniform import UniformGrid

            sub = UniformGrid(grid.dims, grid.origin, grid.spacing)
            for name in keep:
                sub.point_data.add(grid.point_data.get(name))
            grid = sub
        fs.write_object("nyx/snapshot.vgf", write_vgf(grid, codec=args.codec))
        print("wrote nyx/snapshot.vgf")
    return 0


def cmd_info(args) -> int:
    fs = _open_fs(args.store, args.bucket)
    keys = fs.listdir(args.prefix)
    if not keys:
        print("no objects found")
        return 1
    shown = 0
    for key in keys:
        try:
            with fs.open(key) as fh:
                info = read_vgf_info(fh)
        except Exception:
            continue  # selection blobs etc. share the bucket
        shown += 1
        arrays = ", ".join(
            f"{a.name}[{a.codec},{a.stored_bytes}B]" for a in info.arrays
        )
        print(f"{key}: dims={info.dims} meta={info.meta}")
        print(f"    {arrays}")
        if args.stats:
            server = NDPServer(fs)
            for a in info.arrays:
                st = server.array_statistics(key, a.name, bins=8)
                print(
                    f"    {a.name}: min={st['min']:.4g} max={st['max']:.4g} "
                    f"mean={st['mean']:.4g} std={st['std']:.4g}"
                )
    return 0 if shown else 1


def cmd_serve(args) -> int:
    fs = _open_fs(args.store, args.bucket)
    tracer = Tracer(process="server") if args.trace_out else None
    recorder = (
        FlightRecorder(dump_dir=args.dump_dir or None, process="server")
        if args.flight_recorder == "on" else None
    )
    profiler = (
        SamplingProfiler(hz=args.profile_hz) if args.profile_hz > 0 else None
    )
    slo_engine = SLOEngine(
        slo=SLO(latency=args.slo_latency, objective=args.slo_objective)
    )
    server = NDPServer(
        fs,
        cache_bytes=args.cache_bytes,
        selection_cache_bytes=args.selection_cache,
        tracer=tracer,
        flight_recorder=recorder,
        slo=slo_engine,
        profiler=profiler,
        slo_shed=args.slo_shed,
    )
    if recorder is not None:
        install_signal_dump(recorder)  # SIGUSR2 -> dump, main thread only
    max_conns = args.max_connections if args.max_connections > 0 else None
    listener = server.serve_tcp(
        host=args.host, port=args.port, max_connections=max_conns,
        workers=args.workers,
        tenant_weights=_parse_tenant_weights(args.tenant_weights),
        tenant_inflight=args.tenant_inflight,
        tenant_pending=args.tenant_pending,
    )
    caches = (
        f"array_cache={args.cache_bytes // 2**20} MiB"
        if args.cache_bytes > 0 else "array_cache=off",
        f"selection_cache={args.selection_cache // 2**20} MiB"
        if args.selection_cache > 0 else "selection_cache=off",
    )
    obs = (
        "flightrec=" + (
            (f"on->{args.dump_dir}" if args.dump_dir else "on")
            if recorder is not None else "off"
        ),
        f"profiler={args.profile_hz:g}Hz" if profiler is not None
        else "profiler=off",
        f"slo={args.slo_objective:.0%}@{args.slo_latency * 1e3:.0f}ms"
        + ("+shed" if args.slo_shed else ""),
    )
    print(f"NDP server on {listener.host}:{listener.port} "
          f"(store={args.store}, bucket={args.bucket}, "
          f"workers={args.workers}, "
          f"{caches[0]}, {caches[1]}, "
          f"{obs[0]}, {obs[1]}, {obs[2]}"
          f"{', tracing on' if tracer else ''})")

    clean = _serve_until_stopped(
        [partial(listener.stop, drain_timeout=args.drain_timeout)],
        args.timeout)
    info = server.admission_info()
    print(f"stopped ({'clean' if clean else 'forced'}; "
          f"{info['admitted']} requests served, {info['shed']} shed)")
    _write_trace(tracer, args.trace_out)
    return 0 if clean else 1


def _serve_until_stopped(stops, timeout: float) -> bool:
    """The one shutdown path of ``serve``, ``serve-cluster`` and
    ``serve-edge``: block until SIGTERM / SIGINT or ``timeout`` seconds
    (0 = forever), then call every ``stop() -> clean`` in ``stops``.

    Returns True when every listener drained without force.  Signal
    handlers can only be installed from the main thread; when driven
    from a worker thread (tests, embedding) ``timeout`` still provides
    shutdown.
    """
    import signal
    import threading

    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        def _on_signal(signum, _frame):
            print(f"\nsignal {signum}: draining in-flight requests",
                  flush=True)
            stop.set()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
    try:
        stop.wait(timeout if timeout > 0 else None)
    except KeyboardInterrupt:
        pass
    # A list, not a generator: short-circuiting would leave later
    # listeners running after one reports a forced stop.
    return all([stop_one() for stop_one in stops])


def _parse_tenant_weights(spec: str) -> dict | None:
    """Parse ``"gold=3,batch=1"`` into ``{"gold": 3.0, "batch": 1.0}``."""
    if not spec:
        return None
    weights = {}
    for part in spec.split(","):
        name, sep, value = part.partition("=")
        if not sep or not name.strip():
            raise SystemExit(
                f"error: bad --tenant-weights entry {part!r} (want name=weight)"
            )
        try:
            weights[name.strip()] = float(value)
        except ValueError:
            raise SystemExit(
                f"error: bad --tenant-weights value {value!r} (want a number)"
            ) from None
    return weights


def cmd_loadgen(args) -> int:
    """Open-loop load generator against a running server."""
    import json

    from repro.bench.loadgen import run_load

    try:
        host, port = parse_address(args.connect)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = ()
    if args.params:
        try:
            params = tuple(json.loads(args.params))
        except (ValueError, TypeError):
            print(f"error: --params must be a JSON array, got {args.params!r}",
                  file=sys.stderr)
            return 2
    report = run_load(
        host, port,
        connections=args.connections, rate=args.rate,
        duration=args.duration, method=args.method, params=params,
        tenant=args.tenant or None,
        timeout=args.call_timeout, seed=args.seed,
    )
    print(report.summary())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    # Exit status mirrors the run's health: errors are failures, sheds
    # are backpressure working as designed.
    return 0 if report.errors == 0 else 1


def cmd_verify(args) -> int:
    """Check every stored VGF's header and per-array checksums.

    Exit status 0 means every object verified clean; 1 means at least one
    corrupt object (or nothing to check).
    """
    from repro.io.vgf import verify_vgf

    fs = _open_fs(args.store, args.bucket)
    keys = [k for k in fs.listdir(args.prefix) if k.endswith(".vgf")]
    if not keys:
        print("no .vgf objects found")
        return 1
    corrupt = 0
    for key in keys:
        problems = verify_vgf(fs.read_object(key))
        if not problems:
            print(f"{key}: OK")
        else:
            corrupt += 1
            print(f"{key}: CORRUPT")
            for problem in problems:
                print(f"    {problem}")
    print(f"checked {len(keys)} object(s): "
          f"{len(keys) - corrupt} ok, {corrupt} corrupt")
    return 1 if corrupt else 0


def cmd_shard(args) -> int:
    """Partition a stored VGF into block objects + a signed manifest."""
    from repro.cluster import shard_object

    try:
        blocks = tuple(int(b) for b in args.blocks.lower().split("x"))
        if len(blocks) != 3 or any(b < 1 for b in blocks):
            raise ValueError(blocks)
    except ValueError:
        print(f"error: --blocks must be AxBxC (e.g. 2x2x2), "
              f"got {args.blocks!r}", file=sys.stderr)
        return 2
    fs = _open_fs(args.store, args.bucket)
    manifest = shard_object(
        fs, args.key, blocks=blocks,
        shards=args.shards if args.shards > 0 else None,
        codec=args.codec,
        sign_key=args.sign_key.encode() if args.sign_key else None,
        replicas=args.replicas,
    )
    for bo in manifest.block_objects:
        chain = ("" if len(bo.replicas) == 1
                 else f", replicas {list(bo.replicas)}")
        print(f"wrote {bo.key} (block {bo.spec.index} "
              f"{bo.spec.lo}..{bo.spec.hi} -> shard {bo.shard}{chain})")
    print(f"wrote {manifest.manifest_key} "
          f"({len(manifest.block_objects)} blocks, {manifest.shards} "
          f"shard(s), R={manifest.replication_factor})")
    return 0


def cmd_serve_cluster(args) -> int:
    """Run NDP servers for a manifest's shards over one shared store.

    Default mode runs every shard in this process.  ``--shard N`` runs
    exactly one shard (on ``--port``, default ephemeral) so each shard
    can live in its own OS process — the deployment the failover tests
    kill shards out of.  Either way every server advertises the *live*
    manifest generation through a :class:`ManifestWatcher`, so a
    ``repro rebalance --apply`` shows up in reply ``map_version`` tokens
    without a restart.
    """
    from repro.cluster import ManifestWatcher

    fs = _open_fs(args.store, args.bucket)
    watcher = ManifestWatcher(
        fs, args.manifest,
        sign_key=args.sign_key.encode() if args.sign_key else None,
        min_interval=args.map_poll,
    )
    manifest = watcher.manifest()
    if args.shard >= 0:
        if args.shard >= manifest.shards:
            print(f"error: --shard {args.shard} out of range "
                  f"(manifest names {manifest.shards} shard(s))",
                  file=sys.stderr)
            return 2
        shard_ids = [args.shard]
    else:
        shard_ids = list(range(manifest.shards))
    servers = [
        NDPServer(fs, map_version=watcher.version) for _ in shard_ids
    ]
    listeners = [
        s.serve_tcp(host=args.host,
                    port=args.port if len(shard_ids) == 1 else 0)
        for s in servers
    ]
    endpoints = [f"{ln.host}:{ln.port}" for ln in listeners]
    for shard, addr in zip(shard_ids, endpoints):
        blocks = len(manifest.blocks_served_by(shard))
        print(f"shard {shard}: {addr} ({blocks} block(s) incl. replicas)",
              flush=True)
    if args.endpoints_out:
        with open(args.endpoints_out, "w") as fh:
            fh.write("\n".join(endpoints) + "\n")
        print(f"wrote {args.endpoints_out}")
    print(f"{len(shard_ids)} shard(s) of {manifest.shards} for "
          f"{args.manifest} @ map_version {manifest.map_version} "
          f"(connect with: repro contour --cluster {args.manifest} "
          f"--connect {','.join(endpoints)})", flush=True)
    clean = _serve_until_stopped(
        [partial(ln.stop, drain_timeout=args.drain_timeout)
         for ln in listeners],
        args.timeout)
    print(f"stopped {len(listeners)} shard(s) "
          f"({'clean' if clean else 'forced'})")
    return 0 if clean else 1


def _resilience_from_args(args) -> tuple[RetryPolicy, Callable | None, Tally]:
    """``(retry, breaker_factory, stats)`` from the resilience flags: the
    factory makes one fresh breaker per endpoint (None: breakers off),
    as :class:`~repro.rpc.pool.EndpointPool` takes it."""
    retry = RetryPolicy(
        max_attempts=max(1, args.retries),
        base_delay=args.backoff,
        deadline=args.deadline if args.deadline > 0 else None,
    )
    breaker_factory = (
        partial(CircuitBreaker, failure_threshold=args.breaker_threshold,
                reset_timeout=args.breaker_reset)
        if args.breaker_threshold > 0 else None
    )
    return retry, breaker_factory, Tally()


def cmd_contour(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        print(f"error: --values must be comma-separated numbers, "
              f"got {args.values!r}", file=sys.stderr)
        return 2
    if bool(args.cluster) == bool(args.key):
        print("error: provide exactly one of --key (monolithic) or "
              "--cluster MANIFEST_KEY (sharded)", file=sys.stderr)
        return 2
    tracer = Tracer(process="client") if args.trace_out else None
    if args.cluster:
        return _cluster_contour(args, values, tracer)
    retry, breaker_factory, rstats = _resilience_from_args(args)
    breaker = breaker_factory() if breaker_factory else None
    fallback = None
    if args.fallback:
        if not args.store:
            print("error: --fallback needs --store DIR to read from",
                  file=sys.stderr)
            return 2
        fallback = FallbackPolicy(
            _open_fs(args.store, args.bucket), stats=rstats, tracer=tracer
        )
    if args.connect:
        # Dialled on first use, so an unreachable server fails the call
        # itself and degrades inside ndp_contour's fallback.
        transport = TCPTransport(*parse_address(args.connect), lazy=True)
    elif args.store:
        from repro.rpc.transport import InProcessTransport

        # The in-process server gets its own tracer: its spans travel
        # back through the reply envelope exactly as over TCP, so the
        # exported trace has the same two-process shape either way.
        server = NDPServer(_open_fs(args.store, args.bucket),
                           tracer=Tracer(process="server") if tracer else None)
        transport = InProcessTransport(server.rpc.dispatch)
    else:
        print("error: provide --connect host:port or --store DIR",
              file=sys.stderr)
        return 2
    client = RPCClient(
        ResilientTransport(transport, retry=retry, breaker=breaker,
                           stats=rstats, tracer=tracer),
        tracer=tracer,
    )
    with client:
        polydata, stats = ndp_contour(
            client, args.key, args.array, values, fallback=fallback
        )
    return _report_contour(args, polydata, stats, rstats, tracer)


def _cluster_contour(args, values, tracer) -> int:
    """Scatter–gather contour against the shards of a manifest."""
    from repro.cluster import ClusterClient, load_manifest
    from repro.rpc.pool import EndpointPool

    if not args.store:
        print("error: --cluster needs --store DIR (to read the manifest"
              + (")" if args.connect else " and run in-process shards)"),
              file=sys.stderr)
        return 2
    fs = _open_fs(args.store, args.bucket)
    manifest = load_manifest(fs, args.cluster)
    retry, breaker_factory, rstats = _resilience_from_args(args)
    if args.connect:
        addresses = _split_addresses(args.connect, manifest.shards)
        if addresses is None:
            return 2
        pool = EndpointPool.connect_tcp(
            addresses, retry=retry, breaker_factory=breaker_factory,
            stats=rstats, tracer=tracer,
        )
    else:
        from repro.rpc.transport import InProcessTransport

        servers = [
            NDPServer(fs, map_version=manifest.map_version)
            for _ in range(manifest.shards)
        ]
        pool = EndpointPool(
            [InProcessTransport(s.rpc.dispatch) for s in servers],
            retry=retry, breaker_factory=breaker_factory,
            stats=rstats, tracer=tracer,
        )
    with pool:
        cluster = ClusterClient(
            pool, manifest, fallback_fs=fs if args.fallback else None,
            tracer=tracer, manifest_fs=fs,
        )
        polydata, stats = cluster.contour(args.array, values)
    return _report_contour(args, polydata, stats, rstats, tracer)


def _report_contour(args, polydata, stats, rstats: Tally, tracer) -> int:
    print(
        f"contour: {polydata.triangles().shape[0]} triangles, "
        f"{polydata.num_points} points"
    )
    if stats and stats.get("path") == "cluster":
        line = (
            f"cluster: {stats['shards_queried']}/{stats['shards']} shards, "
            f"{stats['blocks']} block(s); transferred "
            f"{stats['wire_bytes'] / 1e3:.1f} kB "
            f"({stats['selected_points']} of {stats['total_points']} points)"
        )
        if stats.get("fallback_blocks"):
            line += (f"; {stats['fallback_blocks']} block(s) via baseline "
                     f"fallback ({stats.get('last_fallback_reason')})")
        print(line)
        if stats.get("replicas", 1) > 1 or stats.get("hedges") \
                or stats.get("failovers"):
            rep = (
                f"replication: R={stats.get('replicas', 1)} "
                f"map_version={stats.get('map_version', 1)}; "
                f"{stats.get('hedges', 0)} hedge(s) "
                f"({stats.get('hedge_wins', 0)} won), "
                f"{stats.get('failovers', 0)} failover(s), "
                f"{stats.get('failover_blocks', 0)} block(s) served by a "
                f"non-primary replica"
            )
            if stats.get("stale_map"):
                refreshed = ("refreshed" if stats.get("map_refreshed")
                             else "refresh unavailable")
                rep += f"; stale shard map detected ({refreshed})"
            print(rep)
    elif stats and stats.get("path") == "fallback":
        print(
            f"path: baseline fallback ({stats.get('fallback_reason')}); "
            f"read {stats['stored_bytes'] / 1e3:.1f} kB stored"
        )
    elif stats:
        print(
            f"transferred {stats['wire_bytes'] / 1e3:.1f} kB of "
            f"{stats['raw_bytes'] / 1e6:.2f} MB raw "
            f"({stats['selected_points']} of {stats['total_points']} points)"
        )
    events = rstats.as_dict()
    if events.get("retries") or events.get("breaker_trips") or events.get("fallbacks"):
        print(
            f"resilience: {events.get('retries', 0)} retries, "
            f"{events.get('breaker_trips', 0)} breaker trips, "
            f"{events.get('fallbacks', 0)} fallbacks"
        )
    if args.render:
        from repro.render.scene import Scene

        scene = Scene()
        scene.add_mesh(polydata, color=(0.3, 0.75, 0.9))
        write_ppm(args.render, scene.render(args.width, args.height))
        print(f"wrote {args.render}")
    _write_trace(tracer, args.trace_out)
    return 0


def _split_addresses(spec: str, shards: int = 0) -> list[str] | None:
    """Validate ``"a:1,b:2"`` into its address labels, at least one per
    manifest shard; None (after printing why) for a usage error."""
    labels = [part.strip() for part in spec.split(",") if part.strip()]
    if not labels:
        print("error: bad address spec: --connect lists no addresses",
              file=sys.stderr)
        return None
    for label in labels:
        try:
            parse_address(label)
        except ReproError as exc:
            print(f"error: bad address: {exc}", file=sys.stderr)
            return None
    if len(labels) < shards:
        print(f"error: manifest names {shards} shard(s) but --connect "
              f"lists only {len(labels)} address(es)", file=sys.stderr)
        return None
    return labels


def _console(args, run, *params, resilience: bool = True) -> int:
    """``run(pool, addresses, *params)`` over every ``--connect`` address.

    One :class:`~repro.rpc.pool.EndpointPool` dials them all, lazily and
    inside each endpoint's resilient transport, so the resilience flags
    cover the dial too and each endpoint has a breaker of its own.
    """
    from repro.rpc.pool import EndpointPool

    addresses = _split_addresses(args.connect)
    if addresses is None:
        return 2
    flags = {}
    if resilience:
        retry, breaker_factory, rstats = _resilience_from_args(args)
        flags = dict(retry=retry, breaker_factory=breaker_factory,
                     stats=rstats)
    with EndpointPool.connect_tcp(addresses, **flags) as pool:
        return run(pool, addresses, *params)


def cmd_health(args) -> int:
    """Probe each server's health endpoint (a table for a list)."""
    from repro.obs.top import run_health

    return _console(args, run_health)


def cmd_serve_edge(args) -> int:
    """Run an edge cache server fronting one or more upstream NDP servers.

    Clients point ``repro contour --connect`` at the edge exactly as they
    would at a storage-side server; warm requests are served from the
    edge's version-token-coherent caches without crossing the (possibly
    WAN) upstream links.  ``--wan-profile`` throttles the *upstream* dial
    through a named latency/bandwidth model — handy for demonstrating the
    edge win on one machine.
    """
    from repro.edge import EdgeCacheServer
    from repro.rpc.transport import ThrottledTransport
    from repro.storage.netsim import WAN_PROFILES

    addresses = _split_addresses(args.upstream)
    if addresses is None:
        return 2
    transports = []
    for address in addresses:
        transport = TCPTransport(*parse_address(address),
                                 timeout=args.upstream_timeout, lazy=True)
        if args.wan_profile:
            transport = ThrottledTransport(transport,
                                           WAN_PROFILES[args.wan_profile])
        # propagate_deadline=False: forwarded frames must stay
        # byte-identical; the client's own ctx already carries a deadline
        # when it set one.
        transports.append(ResilientTransport(
            transport,
            retry=RetryPolicy(max_attempts=2),
            breaker=CircuitBreaker(),
            propagate_deadline=False,
        ))
    tracer = Tracer(process="edge") if args.trace_out else None
    server = EdgeCacheServer(
        transports,
        cache_bytes=args.cache_bytes,
        reply_cache_bytes=args.reply_cache,
        coherence=args.coherence,
        serve_stale=args.serve_stale,
        promote_after=args.promote_after,
        tracer=tracer,
        watch_interval=args.watch_interval if args.watch_interval > 0
        else None,
    )
    max_conns = args.max_connections if args.max_connections > 0 else None
    listener = server.serve_tcp(host=args.host, port=args.port,
                                max_connections=max_conns)
    upstream_desc = ",".join(addresses)
    print(f"edge cache on {listener.host}:{listener.port} "
          f"(upstream={upstream_desc}"
          f"{', wan=' + args.wan_profile if args.wan_profile else ''}, "
          f"coherence={args.coherence}, "
          f"block_cache={args.cache_bytes // 2**20} MiB, "
          f"reply_cache={args.reply_cache // 2**20} MiB, "
          f"serve_stale={'on' if args.serve_stale else 'off'}"
          f"{', tracing on' if tracer else ''})", flush=True)

    clean = _serve_until_stopped([server.close], args.timeout)
    snap = server.stats_snapshot()
    info = snap["collected"]["edge"]
    print(f"stopped edge ({'clean' if clean else 'forced'}; "
          f"{int(snap['counters']['requests'])} requests, "
          f"hit_rate {info['hit_rate']:.0%}, "
          f"{info['forwards']} forwards, "
          f"{info['upstream_errors']} upstream errors)")
    _write_trace(tracer, args.trace_out)
    return 0 if clean else 1


def cmd_stats(args) -> int:
    """A server's registry snapshot; an address list is merged into one
    table — the static counterpart of ``repro top``."""
    from repro.obs.top import run_stats

    return _console(args, run_stats, args.prom)


def cmd_dump(args) -> int:
    """Pull a server's flight-recorder ring over RPC (``repro dump``)."""
    from repro.obs.top import run_dump

    return _console(args, run_dump, args.out, args.reason,
                    args.last if args.last > 0 else None)


def cmd_prof(args) -> int:
    """Pull a server's sampling-profiler stacks (``repro prof``)."""
    from repro.obs.top import run_prof

    return _console(args, run_prof, args.out,
                    args.top if args.top > 0 else None, args.show)


def cmd_rebalance(args) -> int:
    """Plan (and optionally apply) a hot-shard re-replication pass.

    Loads come from live shard polls when ``--connect`` names the
    cluster's endpoints, else from the manifest's block placement.  The
    plan is printed either way; ``--apply`` writes it back as a new
    manifest generation (``map_version + 1``) that running servers and
    clients pick up through the live-map protocol.
    """
    import json

    from repro.cluster import (
        apply_plan,
        load_manifest,
        loads_from_polls,
        plan_rebalance,
    )

    fs = _open_fs(args.store, args.bucket)
    sign_key = args.sign_key.encode() if args.sign_key else None
    manifest = load_manifest(fs, args.key, sign_key=sign_key)
    loads = None
    if args.connect:
        from repro.obs.top import poll_stats
        from repro.rpc.pool import EndpointPool

        addresses = _split_addresses(args.connect, manifest.shards)
        if addresses is None:
            return 2
        with EndpointPool.connect_tcp(addresses) as pool:
            loads = loads_from_polls(poll_stats(pool, addresses))
    plan = plan_rebalance(
        manifest, loads=loads,
        replicas=args.replicas if args.replicas > 0 else None,
        hot_factor=args.hot_factor,
    )
    for line in plan.summary():
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(plan.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    if plan.empty:
        return 0
    if not args.apply:
        print("dry run (re-run with --apply to write the new manifest "
              "generation)")
        return 0
    fresh = apply_plan(fs, manifest, plan, sign_key=sign_key)
    print(f"applied: {args.key} now at map_version {fresh.map_version} "
          f"({len(plan.moves)} chain rewrite(s))")
    return 0


def cmd_top(args) -> int:
    """Live cluster console over every address's ``stats`` endpoint."""
    from repro.obs.top import run_top

    return _console(args, lambda pool, addresses: run_top(
        addresses, pool=pool, interval=args.interval,
        iterations=args.iterations if args.iterations > 0 else None,
        once=args.once, as_json=args.json,
    ), resilience=False)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Near-data visualization pipelines (SC 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset into a store")
    p.add_argument("dataset", choices=["asteroid", "nyx"])
    p.add_argument("--store", required=True, help="directory-backed store root")
    p.add_argument("--bucket", default=DEFAULT_BUCKET)
    p.add_argument("--dim", type=int, default=64, help="grid points per axis")
    p.add_argument("--codec", default="lz4", help="storage codec per array")
    p.add_argument("--arrays", default="", help="comma-separated array subset")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("info", help="list and describe VGF objects in a store")
    p.add_argument("--store", required=True)
    p.add_argument("--bucket", default=DEFAULT_BUCKET)
    p.add_argument("--prefix", default="")
    p.add_argument("--stats", action="store_true",
                   help="also print per-array value statistics")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("serve", help="run an NDP server over a store")
    p.add_argument("--store", required=True)
    p.add_argument("--bucket", default=DEFAULT_BUCKET)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--timeout", type=float, default=0,
                   help="exit after N seconds (0 = run forever)")
    p.add_argument("--cache-bytes", type=int, default=256 * 2**20,
                   help="decoded-array LRU cache budget in bytes "
                        "(default 256 MiB; 0 disables)")
    p.add_argument("--selection-cache", type=int, default=64 * 2**20,
                   metavar="BYTES",
                   help="encoded pre-filter reply cache budget in bytes "
                        "(default 64 MiB; 0 disables)")
    p.add_argument("--max-connections", type=int, default=0,
                   help="refuse TCP connections beyond this many concurrent "
                        "(0 = unlimited)")
    p.add_argument("--drain-timeout", type=float,
                   default=DEFAULT_DRAIN_TIMEOUT,
                   help="on shutdown, seconds to let in-flight requests "
                        "finish before forcing connections closed")
    p.add_argument("--trace-out", default="", metavar="FILE",
                   help="record server-side spans and write them on exit "
                        "(.jsonl = span log, else Chrome trace JSON)")
    p.add_argument("--workers", type=int, default=8,
                   help="dispatch worker threads; requests pipelined on a "
                        "connection run concurrently up to this many "
                        "(default 8)")
    p.add_argument("--tenant-weights", default="", metavar="NAME=W,...",
                   help="fair-share weights per tenant, e.g. "
                        "'interactive=3,batch=1' (unlisted tenants get "
                        "weight 1)")
    p.add_argument("--tenant-inflight", type=int, default=0,
                   help="max requests one tenant may have executing at "
                        "once (0 = unlimited)")
    p.add_argument("--tenant-pending", type=int, default=0,
                   help="max requests one tenant may queue before its "
                        "excess is shed with retry_after (0 = unlimited)")
    p.add_argument("--flight-recorder", choices=["on", "off"], default="on",
                   help="always-on ring of recent structured events, "
                        "dumpable via `repro dump` / SIGUSR2 (default on)")
    p.add_argument("--dump-dir", default="", metavar="DIR",
                   help="directory for automatic flight-recorder dumps on "
                        "errors/sheds/integrity failures and on drain "
                        "(default: no automatic dumps)")
    p.add_argument("--profile-hz", type=float, default=67.0,
                   help="sampling-profiler frequency; stacks served via "
                        "`repro prof` (default 67; 0 disables)")
    p.add_argument("--slo-latency", type=float, default=0.25,
                   help="per-tenant latency SLO threshold in seconds "
                        "(default 0.25)")
    p.add_argument("--slo-objective", type=float, default=0.99,
                   help="fraction of requests that must meet the SLO "
                        "(default 0.99)")
    p.add_argument("--slo-shed", action="store_true",
                   help="under overload, shed tenants that are burning "
                        "their error budget before well-behaved ones")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="open-loop Poisson load generator against a running server",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.add_argument("--connections", type=int, default=4,
                   help="concurrent client connections (default 4)")
    p.add_argument("--rate", type=float, default=50.0,
                   help="target arrivals per second per connection "
                        "(default 50)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="seconds of load to generate (default 2)")
    p.add_argument("--method", default="health",
                   help="RPC method to call (default health)")
    p.add_argument("--params", default="", metavar="JSON",
                   help="method params as a JSON array, e.g. "
                        "'[\"key\", \"rho\"]'")
    p.add_argument("--tenant", default="",
                   help="tenant name stamped into each request's ctx map "
                        "(drives the server's fair queue)")
    p.add_argument("--call-timeout", type=float, default=30.0,
                   help="per-request timeout in seconds (default 30)")
    p.add_argument("--seed", type=int, default=1234,
                   help="RNG seed for the Poisson arrival plan")
    p.add_argument("--out", default="", metavar="FILE",
                   help="write the full report (percentiles + histogram) "
                        "as JSON")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "verify", help="verify stored VGF checksums (detect at-rest corruption)"
    )
    p.add_argument("--store", required=True)
    p.add_argument("--bucket", default=DEFAULT_BUCKET)
    p.add_argument("--prefix", default="")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("shard", help="split a stored VGF into a block-"
                                     "partitioned cluster layout")
    p.add_argument("key", help="source VGF object key")
    p.add_argument("--store", required=True)
    p.add_argument("--bucket", default=DEFAULT_BUCKET)
    p.add_argument("--blocks", required=True, metavar="AxBxC",
                   help="block layout per axis, e.g. 2x2x2")
    p.add_argument("--shards", type=int, default=0,
                   help="shard (server) count; blocks are assigned "
                        "round-robin (default: one shard per block)")
    p.add_argument("--codec", default="lz4", help="storage codec per block")
    p.add_argument("--replicas", type=int, default=1, metavar="R",
                   help="serve each block from R consecutive shards "
                        "(ordered replica chain; default 1 = no "
                        "replication)")
    p.add_argument("--sign-key", default="",
                   help="HMAC key for the manifest signature (default: "
                        "unkeyed SHA-256 content digest)")
    p.set_defaults(func=cmd_shard)

    p = sub.add_parser("serve-cluster", help="run one NDP server per shard "
                                             "of a manifest")
    p.add_argument("--store", required=True)
    p.add_argument("--bucket", default=DEFAULT_BUCKET)
    p.add_argument("--manifest", required=True, metavar="KEY",
                   help="shard manifest object key (see `repro shard`)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--timeout", type=float, default=0,
                   help="exit after N seconds (0 = run forever)")
    p.add_argument("--drain-timeout", type=float,
                   default=DEFAULT_DRAIN_TIMEOUT)
    p.add_argument("--endpoints-out", default="", metavar="FILE",
                   help="write the shard host:port list here, one per line")
    p.add_argument("--sign-key", default="",
                   help="HMAC key the manifest was signed with")
    p.add_argument("--shard", type=int, default=-1, metavar="N",
                   help="serve only shard N in this process (one process "
                        "per shard; default: every shard in-process)")
    p.add_argument("--port", type=int, default=0,
                   help="listen port for --shard mode (default ephemeral)")
    p.add_argument("--map-poll", type=float, default=1.0, metavar="SECONDS",
                   help="min seconds between manifest re-reads for the "
                        "live map_version token (default 1)")
    p.set_defaults(func=cmd_serve_cluster)

    p = sub.add_parser("serve-edge", help="run an edge cache in front of "
                                          "one or more NDP servers")
    p.add_argument("--upstream", required=True, metavar="ADDR[,ADDR...]",
                   help="upstream NDP server address(es), in failover order")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--timeout", type=float, default=0,
                   help="exit after N seconds (0 = run forever)")
    p.add_argument("--cache-bytes", type=int, default=128 * 2**20,
                   help="decoded-array block cache budget in bytes "
                        "(default 128 MiB; 0 disables local compute)")
    p.add_argument("--reply-cache", type=int, default=64 * 2**20,
                   metavar="BYTES",
                   help="encoded-reply cache budget in bytes "
                        "(default 64 MiB; 0 makes the edge a pure proxy)")
    p.add_argument("--coherence", choices=["strict", "watch"],
                   default="strict",
                   help="strict: revalidate upstream per serve (never "
                        "stale); watch: serve from last-known tokens, "
                        "re-probed every --watch-interval")
    p.add_argument("--watch-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="background re-probe period for --coherence=watch "
                        "(default 1; 0 disables the poller)")
    p.add_argument("--serve-stale", action="store_true",
                   help="when the upstream is unreachable, serve the "
                        "last-known-fresh cached reply instead of the "
                        "transport error")
    p.add_argument("--promote-after", type=int, default=2, metavar="N",
                   help="reply misses per (object, array) before the edge "
                        "pulls the block and computes contours locally "
                        "(default 2)")
    p.add_argument("--wan-profile", default="",
                   choices=["", "lan", "wan-metro", "wan-cross-country",
                            "wan-transatlantic"],
                   help="throttle the upstream dial through a named WAN "
                        "latency/bandwidth model (default: none)")
    p.add_argument("--upstream-timeout", type=float, default=30.0,
                   help="socket timeout for upstream dials (default 30)")
    p.add_argument("--max-connections", type=int, default=0,
                   help="refuse TCP connections beyond this many concurrent "
                        "(0 = unlimited)")
    p.add_argument("--trace-out", default="",
                   help="write the edge's trace spans here on exit")
    p.set_defaults(func=cmd_serve_edge)

    p = sub.add_parser("contour", help="offloaded contour of a stored array")
    p.add_argument("--connect", default="", metavar="HOST:PORT",
                   help="NDP server address (omit for in-process over "
                        "--store); with --cluster, a comma-separated "
                        "address per shard")
    p.add_argument("--store", default="")
    p.add_argument("--bucket", default=DEFAULT_BUCKET)
    p.add_argument("--key", default="",
                   help="VGF object key (monolithic path)")
    p.add_argument("--cluster", default="", metavar="MANIFEST_KEY",
                   help="contour a sharded dataset via its manifest "
                        "(scatter-gather across shards)")
    p.add_argument("--array", required=True)
    p.add_argument("--values", required=True, help="comma-separated isovalues")
    p.add_argument("--render", default="", help="write a PPM frame here")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--trace-out", default="", metavar="FILE",
                   help="trace the request end-to-end and write the merged "
                        "client+server tree (.jsonl = span log, else Chrome "
                        "trace JSON for Perfetto)")
    _add_resilience_flags(p)
    p.add_argument("--fallback", action="store_true",
                   help="degrade to a baseline full read through --store "
                        "when the NDP server is unreachable")
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("health", help="probe an NDP server's health endpoint")
    p.add_argument("--connect", required=True, metavar="HOST:PORT[,..]",
                   help="one address, or a comma-separated list for a "
                        "cluster-wide health table")
    _add_resilience_flags(p)
    p.set_defaults(func=cmd_health)

    p = sub.add_parser(
        "stats", help="pretty-print an NDP server's unified registry snapshot"
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT[,..]",
                   help="one address, or a comma-separated list merged "
                        "into one table (counters summed, histograms "
                        "merged bucket-wise)")
    p.add_argument("--prom", action="store_true",
                   help="print Prometheus text exposition instead")
    _add_resilience_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "dump", help="pull a server's flight-recorder ring (recent "
                     "structured events) over RPC"
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT[,..]")
    p.add_argument("--out", default="", metavar="FILE",
                   help="write the events as JSONL here (multi-address "
                        "lists get one file per shard)")
    p.add_argument("--last", type=float, default=0.0, metavar="SECONDS",
                   help="only events from the last N seconds "
                        "(0 = server default window)")
    p.add_argument("--reason", default="rpc",
                   help="reason label stamped into the dump header")
    _add_resilience_flags(p)
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser(
        "prof", help="pull a server's sampling-profiler flamegraph stacks"
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT[,..]")
    p.add_argument("--out", default="", metavar="FILE",
                   help="write collapsed stacks here (.collapsed format "
                        "for flamegraph.pl / speedscope / inferno)")
    p.add_argument("--top", type=int, default=0,
                   help="only the N hottest stacks (0 = all)")
    p.add_argument("--show", type=int, default=15,
                   help="stacks printed to stdout without --out "
                        "(default 15)")
    _add_resilience_flags(p)
    p.set_defaults(func=cmd_prof)

    p = sub.add_parser(
        "rebalance", help="plan/apply hot-shard re-replication for a "
                          "manifest (writes a new map_version)"
    )
    p.add_argument("key", help="shard manifest object key")
    p.add_argument("--store", required=True)
    p.add_argument("--bucket", default=DEFAULT_BUCKET)
    p.add_argument("--connect", default="", metavar="HOST:PORT[,..]",
                   help="poll these shard endpoints for live load scores "
                        "(default: plan from block placement only)")
    p.add_argument("--replicas", type=int, default=0, metavar="R",
                   help="target replication factor (default: keep the "
                        "manifest's current factor)")
    p.add_argument("--hot-factor", type=float, default=1.5,
                   help="a shard is hot when its load exceeds this multiple "
                        "of the cluster mean (default 1.5)")
    p.add_argument("--apply", action="store_true",
                   help="write the plan back as manifest generation "
                        "map_version+1 (default: dry run)")
    p.add_argument("--out", default="", metavar="FILE",
                   help="write the full plan as JSON")
    p.add_argument("--sign-key", default="",
                   help="HMAC key the manifest was signed with")
    p.set_defaults(func=cmd_rebalance)

    p = sub.add_parser(
        "top", help="live cluster console: throughput, queues, burn rates "
                    "across every shard"
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT[,..]",
                   help="comma-separated addresses of every shard to watch")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    p.add_argument("--iterations", type=int, default=0,
                   help="exit after N polls (0 = run until interrupted)")
    p.add_argument("--once", action="store_true",
                   help="poll once and exit (scripting)")
    p.add_argument("--json", action="store_true",
                   help="print the raw view dict as JSON instead of tables")
    p.set_defaults(func=cmd_top)

    return parser


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--retries", type=int, default=3,
                   help="total attempts per RPC (default 3)")
    p.add_argument("--backoff", type=float, default=0.05,
                   help="base retry backoff in seconds (exponential)")
    p.add_argument("--deadline", type=float, default=30.0,
                   help="per-request time budget in seconds (0 = none)")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive failures before the circuit breaker "
                        "opens (0 = breaker off)")
    p.add_argument("--breaker-reset", type=float, default=30.0,
                   help="seconds an open breaker waits before a half-open probe")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
