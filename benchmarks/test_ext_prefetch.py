"""Extension — prefetch overlap: hiding storage latency behind client work.

The paper's runs are strictly sequential per timestep.
:class:`~repro.core.prefetch.NDPPrefetcher` overlaps the storage node's
work on timestep t+1 with the client's post-filter on timestep t.  This
bench measures *wall-clock* (not simulated) time with a deterministic
latency injected into every server dispatch, comparing the sequential
loop against the prefetching iterator on the same requests.

What the prefetcher can hide is *waiting* (network and storage latency,
modelled by the injected sleep); Python's GIL keeps the two sides'
NumPy compute mostly serialized.  The assertion therefore checks that a
majority of the injected latency disappears from the wall clock, not a
ratio of total times.
"""

import time

from repro.bench.reporting import print_table
from repro.render import Scene
from repro.core import NDPServer
from repro.core.ndp_client import ndp_contour
from repro.core.prefetch import NDPPrefetcher
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient, Transport
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

# Below the client's per-step work (post-filter + render, ~50 ms at 64^3 now
# that the rasteriser is batched): only waiting that fits under it can hide.
SERVER_DELAY_S = 0.03
N_REQUESTS = 6


class DelayedTransport(Transport):
    """Adds a fixed dispatch delay: a stand-in for storage-side latency."""

    def __init__(self, inner: Transport, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s

    def request(self, payload: bytes) -> bytes:
        time.sleep(self.delay_s)
        return self.inner.request(payload)


def _setup(env):
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    grid = env.grid("asteroid", env.timesteps[0])
    for i in range(N_REQUESTS):
        fs.write_object(f"ts{i}.vgf", write_vgf(grid, codec="lz4"))
    server = NDPServer(fs)
    client = RPCClient(
        DelayedTransport(InProcessTransport(server.dispatch), SERVER_DELAY_S)
    )
    requests = [
        {"key": f"ts{i}.vgf", "kind": "contour", "array": "v02", "values": [0.1]}
        for i in range(N_REQUESTS)
    ]
    return client, requests


def _render(polydata) -> None:
    """The client-side per-frame work the prefetcher overlaps with."""
    scene = Scene()
    scene.add_mesh(polydata)
    scene.render(200, 150)


def test_ext_prefetch_overlap(benchmark, env):
    client, requests = _setup(env)

    # Sequential: every step waits out the full server delay, then renders.
    t0 = time.perf_counter()
    for req in requests:
        pd, _ = ndp_contour(client, req["key"], req["array"], req["values"])
        _render(pd)
    sequential_s = time.perf_counter() - t0

    # Prefetched: the next step's server delay overlaps this render.
    t0 = time.perf_counter()
    n_done = 0
    for _key, pd, _stats in NDPPrefetcher(client, requests, depth=2):
        _render(pd)
        n_done += 1
    prefetch_s = time.perf_counter() - t0
    assert n_done == N_REQUESTS

    hidden_s = sequential_s - prefetch_s
    injected_s = N_REQUESTS * SERVER_DELAY_S
    rows = [
        {
            "strategy": "sequential",
            "wall_s": sequential_s,
            "per_step_ms": 1e3 * sequential_s / N_REQUESTS,
        },
        {
            "strategy": "prefetch(depth=2)",
            "wall_s": prefetch_s,
            "per_step_ms": 1e3 * prefetch_s / N_REQUESTS,
        },
        {
            "strategy": "latency hidden",
            "wall_s": hidden_s,
            "per_step_ms": 1e3 * hidden_s / N_REQUESTS,
        },
    ]
    print_table(
        rows,
        title=(
            f"Extension — prefetch overlap ({N_REQUESTS} steps, "
            f"{SERVER_DELAY_S * 1e3:.0f} ms injected server latency = "
            f"{injected_s:.1f} s total)"
        ),
    )
    # The prefetcher must hide a majority of the injected wait time
    # (generous margin for scheduler noise).
    assert hidden_s > 0.5 * injected_s

    benchmark(lambda: list(NDPPrefetcher(client, requests[:2], depth=2)))
