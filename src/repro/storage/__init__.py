"""Storage substrate: object store, file mount layer, and cost models.

Substitutes for the paper's testbed pieces:

* :class:`~repro.storage.object_store.ObjectStore` — the MinIO stand-in,
* :class:`~repro.storage.s3fs.S3FileSystem` — the s3fs stand-in: a
  file-like mount over an object store reached through a transport,
* :mod:`~repro.storage.netsim` — simulated clock + device/link models that
  reproduce the paper's 1 GbE / local-SSD cost structure on one machine,
* :mod:`~repro.storage.cache` — storage-side LRU caches with single-flight
  coalescing, the NDP server's shield against repeated and concurrent
  reads of one object.
"""

from repro.storage.cache import ArrayCache, SelectionCache, SingleFlightCache
from repro.storage.netsim import (
    CodecTiming,
    DeviceModel,
    LinkModel,
    SimClock,
    Testbed,
)
from repro.storage.object_store import DirectoryBackend, MemoryBackend, ObjectStore
from repro.storage.s3fs import S3File, S3FileSystem

__all__ = [
    "SimClock",
    "LinkModel",
    "DeviceModel",
    "CodecTiming",
    "Testbed",
    "ObjectStore",
    "MemoryBackend",
    "DirectoryBackend",
    "S3FileSystem",
    "S3File",
    "SingleFlightCache",
    "ArrayCache",
    "SelectionCache",
]
