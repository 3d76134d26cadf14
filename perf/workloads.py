"""The four request lists.  Pure functions of the seed: no clock, no I/O.

A workload is a dict ``tenant -> [Op, ...]``.  Every tenant has a
connection of its own, and one closed loop serves them in turn (the next
request leaves when the previous frame is back).  One pass over the lists is
a *round*; rounds of one run are content-equal, so request i can be compared
across them.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from itertools import cycle, product
from typing import Callable

from repro.datasets.asteroid import AsteroidParams

#: Grid edge.  The issue's ladder is 96 -> 80 -> 64; the driver's cap
#: (92 runs in 3420 s, each with its own set-up) leaves ~37 s a run, and
#: five content-equal rounds of the slowest list must fit in that, so the
#: ledger sits one rung lower.  Names and layer mix do not change.
DIM = 48
TIMESTEPS = AsteroidParams().timesteps
CODECS = ("raw", "gzip", "lz4")
ARRAYS = ("v02", "v03")
#: inside the range where selectivity is flat in the isovalue: below 0.1 and
#: above 0.9 a nudge of 0.04 can double what a contour selects
ISOVALUES = (0.2, 0.35, 0.5, 0.65, 0.8)
FRAME_SIZE = (160, 120)
SLIDER_REQUESTS = 48
SLIDER_REVISITS = 12
SINGLE_TENANT = "analyst"


def store_key(codec: str, step: int) -> str:
    return f"asteroid/{codec}/ts{step:05d}.vgf"


@dataclass(frozen=True)
class Op:
    """One client operation: ``kind`` on ``key``/``array`` with ``args``.

    kinds: contour(value) | threshold(lower, upper) | slice(axis, coord) |
    stats() | read_block() | frame(value)
    """

    kind: str
    key: str
    array: str
    args: tuple = ()


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable[[int], dict]
    #: untimed calls made once per round, before the clock starts
    warmup: tuple = ()


ISOVALUE_JITTER = 0.04


def nudged(rng: random.Random, value: float) -> float:
    """``value`` moved by the seed, by too little to change what it costs."""
    return round(value + rng.uniform(-ISOVALUE_JITTER, ISOVALUE_JITTER), 4)


def timeseries_cold(seed: int) -> dict:
    """The isovalue rotates with the block, the same way for every seed (a
    rotation that moved with the seed would hand the dear isovalues to other
    blocks and move the percentiles by itself); the seed nudges each one."""
    rng = random.Random(seed)
    blocks = product(TIMESTEPS, CODECS, ARRAYS)
    return {SINGLE_TENANT: [
        Op("contour", store_key(codec, step), array,
           (nudged(rng, ISOVALUES[i % len(ISOVALUES)]),))
        for i, (step, codec, array) in enumerate(blocks)
    ]}


def stratified(rng: random.Random, count: int, low: float, high: float) -> list:
    """``count`` values, one per equal stratum of [low, high], each at a
    seed-jittered point: the seed moves every value but not how the set
    covers the range — hence not how much work the set is."""
    width = (high - low) / count
    return [round(low + (k + rng.random()) * width, 4) for k in range(count)]


SLIDER_KEY = store_key("lz4", TIMESTEPS[6])
SLIDER_RANGE = (0.1, 0.9)


def slider_values(seed: int) -> list[float]:
    """One drag of the slider across the whole range, wrapping at the end:
    every stratum once, from a seed-chosen start in a seed-chosen direction.
    SLIDER_REVISITS seed-chosen positions, never the first, return to a
    value already shown instead of moving on."""
    rng = random.Random(seed)
    fresh = stratified(rng, SLIDER_REQUESTS - SLIDER_REVISITS, *SLIDER_RANGE)
    start, direction = rng.randrange(len(fresh)), rng.choice((-1, 1))
    drag = iter(fresh[(start + direction * k) % len(fresh)]
                for k in range(len(fresh)))
    revisit_at = set(rng.sample(range(1, SLIDER_REQUESTS), SLIDER_REVISITS))
    out: list[float] = []
    for i in range(SLIDER_REQUESTS):
        out.append(rng.choice(sorted(set(out))) if i in revisit_at
                   else next(drag))
    return out


def isovalue_warm(seed: int) -> dict:
    return {SINGLE_TENANT: [
        Op("contour", SLIDER_KEY, "v02", (v,)) for v in slider_values(seed)
    ]}


def frame_pixels(seed: int) -> dict:
    """Two passes over the timesteps; the isovalue rotates with the frame
    and the seed nudges each one, so a run renders all five surfaces and the
    second pass repeats no (timestep, isovalue) pair of the first."""
    rng = random.Random(seed)
    return {SINGLE_TENANT: [
        Op("frame", store_key("lz4", TIMESTEPS[j % len(TIMESTEPS)]), "v03",
           (nudged(rng, ISOVALUES[j % len(ISOVALUES)]),))
        for j in range(2 * len(TIMESTEPS))
    ]}


#: exact shares (40/20/20/20 %), so a seed changes order and parameters
#: but never how much of each kind a round holds
VIZ_MIX = (("contour", 40), ("threshold", 20), ("slice", 20), ("stats", 20))
BULK_READS = 100


def mixed_tenants(seed: int) -> dict:
    """Every kind walks the (timestep, array) blocks evenly and draws its
    parameters stratified: the seed sets values and order, not which blocks
    or which part of a range carry the load."""
    rng = random.Random(seed)
    counts = dict(VIZ_MIX)
    args = {
        "contour": [(v,) for v in stratified(rng, counts["contour"], 0.1, 0.9)],
        "threshold": list(zip(
            stratified(rng, counts["threshold"], 0.05, 0.45),
            reversed(stratified(rng, counts["threshold"], 0.55, 0.95)))),
        "slice": [(k % 3, c) for k, c in enumerate(
            stratified(rng, counts["slice"], 0.05, 0.95))],
        "stats": [()] * counts["stats"],
    }
    viz = [
        Op(kind, store_key("lz4", step), array, arg)
        for kind, _ in VIZ_MIX
        for arg, (step, array) in zip(args[kind],
                                      cycle(product(TIMESTEPS[-3:], ARRAYS)))
    ]
    rng.shuffle(viz)
    bulk = [Op("read_block", store_key("gzip", step), array)
            for _, (step, array) in zip(range(BULK_READS),
                                        cycle(product(TIMESTEPS, ARRAYS)))]
    rng.shuffle(bulk)
    return {"viz": viz, "bulk": bulk}


WORKLOADS: dict[str, Workload] = {
    "timeseries_cold": Workload(
        "every (timestep, store codec, array) block once on a fresh server: "
        "both caches miss, so store read, checksum, store decode, scan and "
        "encode do the work (paper Fig. 13 / Table II shape)",
        timeseries_cold,
    ),
    "isovalue_warm": Workload(
        "a 48-step isovalue slider on one cached lz4 block, 12 revisits: "
        "array cache always hits, selection cache hits 1/4, so wire codec, "
        "rpc, decode and post-filter dominate",
        isovalue_warm,
        warmup=(Op("stats", SLIDER_KEY, "v02"),),
    ),
    "frame_pixels": Workload(
        "request-to-pixels: two isovalue sweeps over all timesteps, each "
        "contour rendered at 160x120 and PPM-encoded; the only workload "
        "where the rasteriser works",
        frame_pixels,
    ),
    "mixed_tenants": Workload(
        "the same layers used differently: a viz tenant's contour, "
        "threshold, slice and statistics calls taking turns with a bulk "
        "tenant's whole-block gzip reads, each on its own connection, one at "
        "a time",
        mixed_tenants,
    ),
}


def serialize(tenants: dict) -> bytes:
    """Canonical bytes of a request list (what 'same inputs' means)."""
    return json.dumps(
        {tenant: [asdict(op) for op in ops] for tenant, ops in tenants.items()},
        sort_keys=True,
    ).encode()
