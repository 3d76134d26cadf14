"""Property test: faults never change geometry, only the path it takes.

For random grids, contour-value sets, and seeded fault schedules, an
``ndp_contour`` through a resilient transport with a baseline fallback
must produce geometry bit-identical to contouring the local array —
whether the request succeeded first try, rode retries, timed out into the
fallback, or was rejected by an open breaker.  Time is injected, so the
whole property suite runs without a single real sleep.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import FallbackPolicy, NDPServer, ndp_contour
from repro.filters.contour import contour_grid
from repro.grid import DataArray, UniformGrid
from repro.io import write_vgf
from repro.rpc import (
    CircuitBreaker,
    InProcessTransport,
    ResilientTransport,
    RetryPolicy,
    RPCClient,
)
from repro.obs.metrics import Tally
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.faults import FakeClock, FaultSchedule, FaultyTransport

fields_3d = arrays(
    dtype=np.float32,
    shape=st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)),
    elements=st.floats(
        min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False,
        width=32,
    ),
)

value_sets = st.lists(
    st.floats(min_value=-9.5, max_value=9.5, allow_nan=False, width=32),
    min_size=1,
    max_size=2,
    unique=True,
)


def run_faulted_ndp(field, values, schedule, use_breaker):
    nz, ny, nx = field.shape
    grid = UniformGrid((nx, ny, nz))
    grid.point_data.add(DataArray("f", field.reshape(-1)))

    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    fs.write_object("g.vgf", write_vgf(grid, codec="lz4"))
    server = NDPServer(fs)

    clock = FakeClock()
    stats = Tally()
    breaker = (
        CircuitBreaker(failure_threshold=2, reset_timeout=60.0, clock=clock)
        if use_breaker
        else None
    )
    client = RPCClient(
        ResilientTransport(
            FaultyTransport(InProcessTransport(server.dispatch), schedule, clock),
            retry=RetryPolicy(max_attempts=3, base_delay=0.05, jitter=0.5, deadline=2.0),
            breaker=breaker,
            clock=clock,
            sleep=clock.sleep,
            rng=random.Random(0),
            stats=stats,
        )
    )
    fallback = FallbackPolicy(fs, stats=stats)
    pd, st_out = ndp_contour(client, "g.vgf", "f", values, fallback=fallback)
    return grid, pd, st_out, fallback


@given(
    field=fields_3d,
    values=value_sets,
    fault_seed=st.integers(0, 2**16),
    drop_rate=st.sampled_from([0.0, 0.3, 0.8]),
    use_breaker=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_ndp_with_faults_matches_baseline_geometry(
    field, values, fault_seed, drop_rate, use_breaker
):
    schedule = FaultSchedule.random(
        fault_seed, length=6, drop=drop_rate, delay=0.2, delay_seconds=0.8
    )
    grid, pd, st_out, fallback = run_faulted_ndp(
        field, values, schedule, use_breaker)
    stats = fallback.stats
    baseline = contour_grid(grid, "f", values)

    assert np.array_equal(baseline.points, pd.points)
    assert np.array_equal(baseline.polys.connectivity, pd.polys.connectivity)
    assert np.array_equal(baseline.lines.connectivity, pd.lines.connectivity)
    assert baseline.point_data.get("contour_value") == pd.point_data.get("contour_value")

    # Whatever happened, exactly one path answered, and the books balance.
    assert st_out["path"] in ("ndp", "fallback")
    assert stats.get("ndp_successes") + stats.get("fallbacks") == 1


@given(field=fields_3d, values=value_sets)
@settings(max_examples=15, deadline=None)
def test_permanent_outage_always_falls_back_identically(field, values):
    schedule = FaultSchedule.permanently_down()
    grid, pd, st_out, fallback = run_faulted_ndp(field, values, schedule, True)
    baseline = contour_grid(grid, "f", values)
    assert st_out["path"] == "fallback"
    assert fallback.fallback_rate == 1.0
    assert np.array_equal(baseline.points, pd.points)
    assert np.array_equal(baseline.polys.connectivity, pd.polys.connectivity)
