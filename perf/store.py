"""Set-up: generate the asteroid series and write it as the served store.

27 objects (9 timesteps x store codecs raw/gzip/lz4), each holding arrays
``v02`` and ``v03`` — 54 array blocks under ``asteroid/<codec>/ts<step>.vgf``
in the bucket ``repro serve`` mounts by default.
"""

from __future__ import annotations

from repro.datasets.asteroid import AsteroidImpactDataset, AsteroidParams
from repro.io.vgf import write_vgf
from repro.storage.object_store import DirectoryBackend, ObjectStore
from repro.storage.s3fs import S3FileSystem

from perf.workloads import ARRAYS, CODECS, DIM, TIMESTEPS, store_key

BUCKET = "sim"  # the CLI's default bucket


def open_fs(directory: str) -> S3FileSystem:
    """The mount ``repro serve --store DIR`` opens (local, no link)."""
    store = ObjectStore(DirectoryBackend(directory))
    store.create_bucket(BUCKET)
    return S3FileSystem(store, BUCKET)


def build_store(directory: str, dim: int = DIM) -> dict:
    """Generate every timestep, write all codecs; returns ``step -> grid``."""
    fs = open_fs(directory)
    dataset = AsteroidImpactDataset(AsteroidParams(dims=(dim, dim, dim)))
    grids = {}
    for step in TIMESTEPS:
        grid = dataset.generate_arrays(step, list(ARRAYS))
        grids[step] = grid
        for codec in CODECS:
            fs.write_object(
                store_key(codec, step),
                write_vgf(grid, codec=codec, meta={"timestep": step}),
            )
    return grids
