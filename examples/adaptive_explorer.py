#!/usr/bin/env python
"""Interactive-exploration session, scripted: statistics -> values -> ROI.

What an analyst actually does with a dataset they have never seen, using
the near-data endpoints so the full arrays never cross the network:

1. discover the timesteps with a :class:`~repro.io.catalog.TimestepCatalog`,
2. fetch value statistics + a histogram for the array of interest
   (``array_statistics``: ~200 bytes instead of the array),
3. pick contour values from the histogram,
4. let the :class:`~repro.core.planner.AdaptiveContourClient` probe once
   and route every load (NDP vs baseline),
5. zoom into the most interesting region with an ROI contour, and render
   it colored by isovalue.

Run:  python examples/adaptive_explorer.py [resolution]
Writes: explorer_overview.ppm, explorer_zoom.ppm
"""

import sys

import numpy as np

from repro.core import NDPServer, ndp_contour
from repro.core.planner import AdaptiveContourClient
from repro.datasets import AsteroidImpactDataset, AsteroidParams
from repro.filters.geometry import component_sizes, surface_area
from repro.grid import Bounds
from repro.io import TimestepCatalog, write_ppm, write_vgf
from repro.render import Scene
from repro.rpc import InProcessTransport, RPCClient
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem
from repro.storage.netsim import Testbed

RESOLUTION = int(sys.argv[1]) if len(sys.argv) > 1 else 48


def main() -> None:
    # -- setup: a populated store and its NDP server --------------------
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    dataset = AsteroidImpactDataset(AsteroidParams(dims=(RESOLUTION,) * 3))
    for step in dataset.timesteps[::2]:
        grid = dataset.generate_arrays(step, ["v02"])
        fs.write_object(
            f"ts{step:05d}.vgf",
            write_vgf(grid, codec="lz4", meta={"timestep": step}),
        )
    server = NDPServer(fs)
    client = RPCClient(InProcessTransport(server.dispatch))

    # -- 1. discover ------------------------------------------------------
    catalog = TimestepCatalog(fs)
    print(f"catalog: {len(catalog)} timesteps {catalog.timesteps}")
    last = catalog.timesteps[-1]
    key = catalog.entry(last).key

    # -- 2. near-data statistics ------------------------------------------
    stats = client.call("array_statistics", key, "v02", 10)
    print(
        f"v02 @ ts{last}: range [{stats['min']:.3f}, {stats['max']:.3f}], "
        f"mean {stats['mean']:.3f}"
    )
    counts = stats["histogram_counts"]
    edges = stats["histogram_edges"]
    bar = max(counts)
    for c, lo, hi in zip(counts, edges, edges[1:]):
        print(f"  [{lo:5.2f}, {hi:5.2f})  {'#' * max(1, int(40 * c / bar))} {c}")

    # -- 3. pick values off the histogram ---------------------------------
    values = [0.1, 0.5, 0.9]
    print(f"contouring at {values}")

    # -- 4. adaptive routing ------------------------------------------------
    adaptive = AdaptiveContourClient(client, S3FileSystem(store, "sim"), Testbed())
    overview, info = adaptive.contour(key, "v02", values)
    print(
        f"route={info['route']} (predicted speedup "
        f"{info['decision'].predicted_speedup:.2f}x); "
        f"{overview.triangles().shape[0]} triangles, "
        f"area {surface_area(overview):.3f}, "
        f"{len(component_sizes(overview, min_points=10))} components"
    )
    scene = Scene()
    scene.add_mesh(overview, scalars="contour_value", cmap="viridis")
    write_ppm("explorer_overview.ppm", scene.render(640, 480))

    # -- 5. zoom: ROI around the impact site --------------------------------
    b = overview.bounds
    cx, cy, _ = b.center
    zoom = Bounds(cx - 0.2, cx + 0.2, cy - 0.2, cy + 0.2, b.zmin, b.zmax)
    detail, roi_stats = ndp_contour(client, key, "v02", values, roi=zoom)
    print(
        f"ROI zoom: {detail.triangles().shape[0]} triangles, "
        f"{roi_stats['wire_bytes'] / 1e3:.1f} kB transferred "
        f"(full selection would be larger)"
    )
    if detail.num_points:
        zoom_scene = Scene(background=(0.05, 0.05, 0.08))
        zoom_scene.add_mesh(detail, scalars="contour_value", cmap="hot")
        write_ppm("explorer_zoom.ppm", zoom_scene.render(640, 480))
        print("wrote explorer_overview.ppm, explorer_zoom.ppm")

    counters = client.call("stats")["counters"]
    scanned, shipped = counters["raw_bytes_scanned"], counters["wire_bytes_sent"]
    print(
        f"server totals: {counters['prefilter_calls']:.0f} offloads, "
        f"{scanned / 1e6:.1f} MB scanned -> {shipped / 1e3:.1f} kB shipped "
        f"({scanned / shipped if shipped else 0.0:.0f}x reduction)"
    )


if __name__ == "__main__":
    main()
