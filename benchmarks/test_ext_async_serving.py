"""Extension — one listener, four times the clients.

The event-loop listener multiplexes every connection onto one I/O thread
and dispatches on a worker pool, so its concurrent-client capacity is
not a thread count: the same server that answers C clients sustains 4C
at an equal-or-better tail.  The only way to
turn clients away is the operator's ``max_connections`` cap, and what a
refused client sees is a retryable transport error.

This bench drives the real NDP health endpoint over real sockets with
the open-loop Poisson load generator (latency measured from scheduled
arrival — no coordinated omission) and records the full latency
histograms in ``BENCH_results.json``:

* ``C`` clients — the baseline tail,
* ``4C`` clients, same server configuration — zero errors, tail no
  worse than at a quarter of the load,
* ``4C`` clients against ``max_connections=C`` — the cap refuses the
  excess, which surfaces as failed (retryable) requests.
"""

from repro.bench.loadgen import run_load
from repro.bench.reporting import print_table
from repro.core import NDPServer
from repro.io import write_vgf
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid

BASE_CLIENTS = 6
SCALE = 4
RATE = 30.0          # arrivals/s per connection
DURATION = 2.0


def _make_server():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    fs.write_object("obj.vgf", write_vgf(make_sphere_grid(16), codec="gzip"))
    return NDPServer(fs, cache_bytes=8 * 2**20, selection_cache_bytes=2**20)


def _drive(listener, connections, seed):
    return run_load(
        listener.host, listener.port, connections=connections, rate=RATE,
        duration=DURATION, method="health", timeout=10.0, seed=seed,
    )


def test_ext_async_serving_sustains_4x_clients(bench_record):
    listener = _make_server().serve_tcp(workers=8)
    try:
        base = _drive(listener, BASE_CLIENTS, seed=11)
        scaled = _drive(listener, SCALE * BASE_CLIENTS, seed=13)
    finally:
        listener.stop(drain_timeout=5.0)

    # The same herd against an operator's connection cap.
    capped_listener = _make_server().serve_tcp(max_connections=BASE_CLIENTS)
    try:
        capped = _drive(capped_listener, SCALE * BASE_CLIENTS, seed=12)
        refused = capped_listener.refused
    finally:
        capped_listener.stop(drain_timeout=5.0)

    rows = [
        {"listener": name, "clients": r.connections,
         "ok": r.ok, "errors": r.errors, "p50_ms": r.p50 * 1e3,
         "p99_ms": r.p99 * 1e3, "p999_ms": r.p999 * 1e3}
        for name, r in (("open", base), ("open", scaled),
                        (f"cap={BASE_CLIENTS}", capped))
    ]
    print_table(
        rows,
        ["listener", "clients", "ok", "errors",
         "p50_ms", "p99_ms", "p999_ms"],
        title="one listener under open-loop load "
              f"({RATE:.0f} Hz/conn, {DURATION:.0f}s)",
    )
    bench_record(
        base=base.to_dict(),
        scaled=scaled.to_dict(),
        capped=capped.to_dict(),
        capped_refused=refused,
        scale_factor=SCALE,
    )

    # Healthy at C clients, and at 4x the clients: zero failures...
    assert base.errors == 0
    assert scaled.errors == 0
    assert scaled.ok == scaled.sent
    # ...at a tail no worse than at 1x load (generous headroom: CI boxes
    # are noisy; the claim is "equal or better", the guard is "not
    # meaningfully worse").
    assert scaled.p99 <= max(2.0 * base.p99, 0.050), (
        f"p99 at {SCALE}x clients {scaled.p99 * 1e3:.1f} ms vs "
        f"{base.p99 * 1e3:.1f} ms at 1x"
    )
    # A capped listener refuses the excess, which surfaces as failed
    # requests the clients may retry.
    assert refused > 0
    assert capped.errors > 0
