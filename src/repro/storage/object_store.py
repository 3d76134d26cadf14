"""The object store: this library's MinIO substitute.

An S3-flavoured bucket/object store with the operations the paper's
pipeline actually exercises through s3fs: PUT whole objects, ranged GETs,
HEAD, and LIST.  Two backends:

* :class:`MemoryBackend` — a dict, used by tests and benchmarks,
* :class:`DirectoryBackend` — one file per object under a root directory,
  used by the examples and the cross-process demos.

A store may carry a :class:`~repro.storage.netsim.DeviceModel`; every byte
served is then charged to it, modelling MinIO reading from its local SSD.
"""

from __future__ import annotations

import os
import re
import threading
from abc import ABC, abstractmethod

from repro.errors import NoSuchBucketError, NoSuchObjectError, StorageError

__all__ = [
    "ObjectStore",
    "MemoryBackend",
    "DirectoryBackend",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._\-/]*$")


def _check_name(kind: str, name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name) or ".." in name:
        raise StorageError(f"invalid {kind} name {name!r}")
    return name


class Backend(ABC):
    """Raw byte storage under (bucket, key) pairs."""

    def version(self, bucket: str, key: str) -> tuple:
        """A token that changes whenever the object's content may have.

        Caches key their entries by it (the "store mtime/version"
        invalidation rule).  The base fallback is size-only — weaker than
        the mtime/generation tokens the concrete backends return, but
        safe for any backend that only implements the abstract surface.
        """
        return ("size", self.size(bucket, key))

    @abstractmethod
    def create_bucket(self, bucket: str) -> None: ...

    @abstractmethod
    def bucket_exists(self, bucket: str) -> bool: ...

    @abstractmethod
    def put(self, bucket: str, key: str, data: bytes) -> None: ...

    @abstractmethod
    def get(self, bucket: str, key: str, offset: int, length: int | None) -> bytes: ...

    @abstractmethod
    def size(self, bucket: str, key: str) -> int: ...

    @abstractmethod
    def list_keys(self, bucket: str, prefix: str) -> list[str]: ...

    @abstractmethod
    def delete(self, bucket: str, key: str) -> None: ...


class MemoryBackend(Backend):
    """Objects held in process memory."""

    def __init__(self):
        self._buckets: dict[str, dict[str, bytes]] = {}
        self._lock = threading.Lock()
        self._generation = 0
        self._versions: dict[tuple[str, str], int] = {}

    def create_bucket(self, bucket: str) -> None:
        with self._lock:
            self._buckets.setdefault(bucket, {})

    def bucket_exists(self, bucket: str) -> bool:
        return bucket in self._buckets

    def _bucket(self, bucket: str) -> dict[str, bytes]:
        try:
            return self._buckets[bucket]
        except KeyError:
            raise NoSuchBucketError(f"no bucket {bucket!r}") from None

    def put(self, bucket: str, key: str, data: bytes) -> None:
        with self._lock:
            self._bucket(bucket)[key] = bytes(data)
            self._generation += 1
            self._versions[(bucket, key)] = self._generation

    def version(self, bucket: str, key: str) -> tuple:
        with self._lock:
            size = len(self._object(bucket, key))
            return ("gen", self._versions.get((bucket, key), 0), size)

    def _object(self, bucket: str, key: str) -> bytes:
        objects = self._bucket(bucket)
        try:
            return objects[key]
        except KeyError:
            raise NoSuchObjectError(f"no object {bucket}/{key}") from None

    def get(self, bucket: str, key: str, offset: int, length: int | None) -> bytes:
        data = self._object(bucket, key)
        end = len(data) if length is None else offset + length
        return data[offset:end]

    def size(self, bucket: str, key: str) -> int:
        return len(self._object(bucket, key))

    def list_keys(self, bucket: str, prefix: str) -> list[str]:
        return sorted(k for k in self._bucket(bucket) if k.startswith(prefix))

    def delete(self, bucket: str, key: str) -> None:
        with self._lock:
            objects = self._bucket(bucket)
            if key not in objects:
                raise NoSuchObjectError(f"no object {bucket}/{key}")
            del objects[key]
            self._versions.pop((bucket, key), None)


class DirectoryBackend(Backend):
    """One file per object under ``root/bucket/key``."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _bucket_dir(self, bucket: str) -> str:
        return os.path.join(self.root, bucket)

    def _path(self, bucket: str, key: str) -> str:
        bdir = self._bucket_dir(bucket)
        if not os.path.isdir(bdir):
            raise NoSuchBucketError(f"no bucket {bucket!r}")
        return os.path.join(bdir, key)

    def create_bucket(self, bucket: str) -> None:
        os.makedirs(self._bucket_dir(bucket), exist_ok=True)

    def bucket_exists(self, bucket: str) -> bool:
        return os.path.isdir(self._bucket_dir(bucket))

    def put(self, bucket: str, key: str, data: bytes) -> None:
        path = self._path(bucket, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)

    def get(self, bucket: str, key: str, offset: int, length: int | None) -> bytes:
        path = self._path(bucket, key)
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                return fh.read() if length is None else fh.read(length)
        except FileNotFoundError:
            raise NoSuchObjectError(f"no object {bucket}/{key}") from None

    def size(self, bucket: str, key: str) -> int:
        try:
            return os.path.getsize(self._path(bucket, key))
        except FileNotFoundError:
            raise NoSuchObjectError(f"no object {bucket}/{key}") from None

    def version(self, bucket: str, key: str) -> tuple:
        try:
            st = os.stat(self._path(bucket, key))
        except FileNotFoundError:
            raise NoSuchObjectError(f"no object {bucket}/{key}") from None
        return ("mtime", st.st_mtime_ns, st.st_size)

    def list_keys(self, bucket: str, prefix: str) -> list[str]:
        bdir = self._bucket_dir(bucket)
        if not os.path.isdir(bdir):
            raise NoSuchBucketError(f"no bucket {bucket!r}")
        keys = []
        for dirpath, _dirs, files in os.walk(bdir):
            for fname in files:
                if fname.endswith(".tmp"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fname), bdir)
                key = rel.replace(os.sep, "/")
                if key.startswith(prefix):
                    keys.append(key)
        return sorted(keys)

    def delete(self, bucket: str, key: str) -> None:
        try:
            os.remove(self._path(bucket, key))
        except FileNotFoundError:
            raise NoSuchObjectError(f"no object {bucket}/{key}") from None


class ObjectStore:
    """Bucket/object store with optional device-cost accounting.

    Parameters
    ----------
    backend:
        Byte storage; defaults to a fresh :class:`MemoryBackend`.
    device:
        Optional :class:`~repro.storage.netsim.DeviceModel`; every GET is
        charged to it (the MinIO-reads-its-SSD cost in the paper's setups).
    """

    def __init__(self, backend: Backend | None = None, device=None):
        self.backend = backend if backend is not None else MemoryBackend()
        self.device = device

    # ------------------------------------------------------------------
    def create_bucket(self, bucket: str) -> None:
        self.backend.create_bucket(_check_name("bucket", bucket))

    def bucket_exists(self, bucket: str) -> bool:
        return self.backend.bucket_exists(bucket)

    def put_object(self, bucket: str, key: str, data: bytes) -> None:
        _check_name("bucket", bucket)
        _check_name("key", key)
        data = bytes(data)
        if self.device is not None:
            self.device.write(len(data))
        self.backend.put(bucket, key, data)

    def get_object(self, bucket: str, key: str, offset: int = 0, length: int | None = None) -> bytes:
        if offset < 0 or (length is not None and length < 0):
            raise StorageError(f"invalid range offset={offset} length={length}")
        data = self.backend.get(bucket, key, offset, length)
        if self.device is not None:
            self.device.read(len(data))
        return data

    def head_object(self, bucket: str, key: str) -> int:
        """Return the object's size in bytes."""
        return self.backend.size(bucket, key)

    def object_version(self, bucket: str, key: str) -> tuple:
        """Version token for cache invalidation (mtime/generation + size)."""
        return tuple(self.backend.version(bucket, key))

    def list_objects(self, bucket: str, prefix: str = "") -> list[str]:
        return self.backend.list_keys(bucket, prefix)

    def delete_object(self, bucket: str, key: str) -> None:
        self.backend.delete(bucket, key)
