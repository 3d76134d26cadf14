"""Extension — storage-side caching: warm repeated-value sweeps.

The paper's interactive scenario (Sec. VI) is a user scrubbing contour
values over the same timestep: every request re-reads and re-decompresses
the same object.  With the storage-side :class:`~repro.storage.cache.ArrayCache`
the decoded array is paid for once, and the
:class:`~repro.storage.cache.SelectionCache` makes *revisited* values free.

This bench replays a value sweep three times against a cold (caches off)
and a warm (caches on) server on the calibrated simulated testbed and
reports simulated seconds per round.  GZip storage makes the read +
decompress the dominant cold cost — exactly what the caches elide — so
the warm sweep must come in at least 5x faster overall while returning
bit-identical geometry.
"""

import numpy as np

from repro.bench.reporting import print_table
from repro.core import NDPServer, ndp_contour
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem
from repro.storage.netsim import Testbed

VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
ROUNDS = 3


def _setup(env, cached: bool):
    tb = Testbed()
    store = ObjectStore(MemoryBackend(), device=tb.ssd)
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    grid = env.grid("asteroid", env.timesteps[0])
    fs.write_object("ts.vgf", write_vgf(grid, codec="gzip"))
    tb.reset()
    kwargs = (
        dict(cache_bytes=256 * 2**20, selection_cache_bytes=64 * 2**20)
        if cached
        else {}
    )
    server = NDPServer(fs, testbed=tb, **kwargs)
    return tb, RPCClient(InProcessTransport(server.dispatch))


def _sweep(tb, client) -> list[float]:
    """One pass over VALUES; returns simulated seconds per request."""
    times = []
    for v in VALUES:
        t0 = tb.clock.now
        client.call("prefilter_contour", "ts.vgf", "v02", [v])
        times.append(tb.clock.now - t0)
    return times


def test_ext_cache_warm_sweep(benchmark, env):
    tb_cold, cold = _setup(env, cached=False)
    tb_warm, warm = _setup(env, cached=True)

    cold_rounds = [sum(_sweep(tb_cold, cold)) for _ in range(ROUNDS)]
    warm_rounds = [sum(_sweep(tb_warm, warm)) for _ in range(ROUNDS)]

    rows = [
        {
            "round": i + 1,
            "cold_s": cold_rounds[i],
            "warm_s": warm_rounds[i],
            "speedup": cold_rounds[i] / warm_rounds[i] if warm_rounds[i] else float("inf"),
        }
        for i in range(ROUNDS)
    ]
    total_cold = sum(cold_rounds)
    total_warm = sum(warm_rounds)
    rows.append(
        {
            "round": "total",
            "cold_s": total_cold,
            "warm_s": total_warm,
            "speedup": total_cold / total_warm,
        }
    )
    print_table(
        rows,
        title=(
            f"Extension — warm-cache value sweep ({len(VALUES)} values x "
            f"{ROUNDS} rounds, gzip storage, simulated s)"
        ),
    )

    # The caches must actually be doing the work they claim.
    stats = warm.call("stats")["collected"]
    assert stats["array_cache"]["hits"] >= 1
    assert stats["array_cache"]["misses"] == 1  # one decode for the whole sweep
    assert stats["selection_cache"]["hits"] == (ROUNDS - 1) * len(VALUES)

    # Warm rounds 2+ are pure selection-cache hits: free on the simulated clock.
    assert all(t == 0.0 for t in warm_rounds[1:])
    # Overall: at least the acceptance 5x (read+decompress dominate cold).
    assert total_cold > 5.0 * total_warm

    # Correctness is non-negotiable: warm geometry == cold geometry.
    for v in VALUES:
        pd_cold, _ = ndp_contour(cold, "ts.vgf", "v02", [v])
        pd_warm, _ = ndp_contour(warm, "ts.vgf", "v02", [v])
        assert np.array_equal(pd_cold.points, pd_warm.points)
        assert np.array_equal(pd_cold.polys.connectivity, pd_warm.polys.connectivity)

    benchmark(lambda: warm.call("prefilter_contour", "ts.vgf", "v02", [0.5]))
