"""The s3fs substitute: file-like access to objects in a store.

The paper mounts its MinIO buckets with s3fs, "an open-source FUSE-based
solution that enables mounting remote S3 buckets and operating them as
local filesystems" (Sec. IV), and the whole NDP argument hinges on *where*
that mount lives: on the client (baseline — every byte crosses the
network) or on the storage node (NDP — reads are local).

:class:`S3FileSystem` reproduces that: it wraps anything with the
object-store read surface
(:class:`~repro.storage.object_store.ObjectStore`) and serves
:class:`S3File` handles whose reads are issued as ranged GETs in
``chunk_bytes`` units, like a FUSE page cache.  An optional link model
charges every fetched byte to the simulated network, which is exactly the
baseline-vs-NDP distinction the benchmarks flip.
"""

from __future__ import annotations

import contextlib
import io

from repro.errors import NoSuchBucketError, NoSuchObjectError, StorageError

__all__ = ["S3FileSystem", "S3File"]

_DEFAULT_CHUNK = 8 * 1024 * 1024


class S3FileSystem:
    """A read/write file layer over an object store.

    Parameters
    ----------
    store:
        Object-store-like: must provide ``get_object``/``head_object``/
        ``list_objects`` (and ``put_object`` for writes).
    bucket:
        The mounted bucket.
    link:
        Optional :class:`~repro.storage.netsim.LinkModel`; every byte
        fetched through this mount is charged to it.  Use for the
        *baseline* placement (s3fs remote from MinIO); leave ``None`` for
        the NDP placement (s3fs colocated with MinIO).
    chunk_bytes:
        Ranged-GET granularity; mimics s3fs's readahead window.
    """

    def __init__(self, store, bucket: str, link=None, chunk_bytes: int = _DEFAULT_CHUNK):
        if chunk_bytes <= 0:
            raise StorageError(f"chunk_bytes must be > 0, got {chunk_bytes}")
        self.store = store
        self.bucket = bucket
        self.link = link
        self.chunk_bytes = int(chunk_bytes)

    # ------------------------------------------------------------------
    def open(self, key: str) -> "S3File":
        """Open an object for reading."""
        size = self.store.head_object(self.bucket, key)
        return S3File(self, key, size)

    def read_object(self, key: str) -> bytes:
        """Read a whole object through the chunked path."""
        with self.open(key) as fh:
            return fh.read()

    def write_object(self, key: str, data: bytes) -> None:
        """Write a whole object (charged to the link if one is set)."""
        if self.link is not None:
            self.link.charge(len(data))
        self.store.put_object(self.bucket, key, data)

    def listdir(self, prefix: str = "") -> list[str]:
        return self.store.list_objects(self.bucket, prefix)

    def exists(self, key: str) -> bool:
        """True if the object exists, False if the store says it doesn't.

        Only the store's typed not-found errors mean ``False``; anything
        else (connection refused, auth failure, a flaky backend) is a
        *store* failure and propagates — swallowing it here would make an
        outage indistinguishable from an empty bucket and hide exactly
        the faults the resilience layer exists to handle.
        """
        try:
            self.store.head_object(self.bucket, key)
            return True
        except (NoSuchObjectError, NoSuchBucketError):
            return False

    def size(self, key: str) -> int:
        return self.store.head_object(self.bucket, key)

    def version(self, key: str) -> tuple:
        """Cache-invalidation token for one object (metadata only, no data).

        Prefers the store's ``object_version`` (mtime/generation + size);
        store-likes that only offer HEAD degrade to a size-only token.
        """
        object_version = getattr(self.store, "object_version", None)
        if object_version is not None:
            ver = object_version(self.bucket, key)
            return tuple(ver) if isinstance(ver, list) else ver
        return ("size", self.store.head_object(self.bucket, key))

    # internal: one ranged GET
    def _fetch(self, key: str, offset: int, length: int) -> bytes:
        data = self.store.get_object(self.bucket, key, offset, length)
        if self.link is not None:
            self.link.charge(len(data))
        return data


class S3File(io.RawIOBase):
    """A seekable read-only file over one object, fetched in chunks."""

    def __init__(self, fs: S3FileSystem, key: str, size: int):
        super().__init__()
        self._fs = fs
        self._key = key
        self._size = size
        self._pos = 0
        # one-chunk readahead cache, like a minimal FUSE page cache
        self._cache_start = -1
        self._cache: bytes = b""

    # -- io.RawIOBase interface ----------------------------------------
    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        if whence == io.SEEK_SET:
            pos = offset
        elif whence == io.SEEK_CUR:
            pos = self._pos + offset
        elif whence == io.SEEK_END:
            pos = self._size + offset
        else:
            raise StorageError(f"invalid whence {whence}")
        if pos < 0:
            raise StorageError(f"cannot seek to negative offset {pos}")
        self._pos = pos
        return pos

    def tell(self) -> int:
        return self._pos

    @property
    def size(self) -> int:
        return self._size

    def read(self, n: int = -1) -> bytes:
        if n is None or n < 0:
            n = self._size - self._pos
        n = max(0, min(n, self._size - self._pos))
        if n == 0:
            return b""
        out = bytearray()
        pos = self._pos
        remaining = n
        chunk_bytes = self._fs.chunk_bytes
        # A multi-chunk read is one pipelined request over the link: the
        # ranged GETs stream back-to-back, so latency is charged once.
        link = self._fs.link
        scope = link.request() if hasattr(link, "request") else contextlib.nullcontext()
        with scope:
            while remaining > 0:
                chunk_idx = pos // chunk_bytes
                chunk_start = chunk_idx * chunk_bytes
                if chunk_start != self._cache_start:
                    length = min(chunk_bytes, self._size - chunk_start)
                    self._cache = self._fs._fetch(self._key, chunk_start, length)
                    self._cache_start = chunk_start
                local = pos - chunk_start
                take = min(remaining, len(self._cache) - local)
                if take <= 0:
                    break  # object shrank under us; stop rather than spin
                out += self._cache[local : local + take]
                pos += take
                remaining -= take
        self._pos = pos
        return bytes(out)

    def readall(self) -> bytes:
        return self.read(self._size - self._pos)
