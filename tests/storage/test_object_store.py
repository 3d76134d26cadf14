"""Unit tests for the object store and its backends."""

import pytest

from repro.errors import NoSuchBucketError, NoSuchObjectError, StorageError
from repro.storage import DirectoryBackend, MemoryBackend, ObjectStore, SimClock
from repro.storage.netsim import DeviceModel


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        backend = MemoryBackend()
    else:
        backend = DirectoryBackend(str(tmp_path / "objects"))
    s = ObjectStore(backend)
    s.create_bucket("data")
    return s


class TestCRUD:
    def test_put_get(self, store):
        store.put_object("data", "a/b.bin", b"payload")
        assert store.get_object("data", "a/b.bin") == b"payload"

    def test_ranged_get(self, store):
        store.put_object("data", "k", b"0123456789")
        assert store.get_object("data", "k", offset=2, length=3) == b"234"
        assert store.get_object("data", "k", offset=8) == b"89"
        assert store.get_object("data", "k", offset=20) == b""

    def test_head(self, store):
        store.put_object("data", "k", b"12345")
        assert store.head_object("data", "k") == 5

    def test_overwrite(self, store):
        store.put_object("data", "k", b"one")
        store.put_object("data", "k", b"two")
        assert store.get_object("data", "k") == b"two"

    def test_delete(self, store):
        store.put_object("data", "k", b"x")
        store.delete_object("data", "k")
        with pytest.raises(NoSuchObjectError):
            store.get_object("data", "k")

    def test_delete_missing(self, store):
        with pytest.raises(NoSuchObjectError):
            store.delete_object("data", "missing")

    def test_missing_object(self, store):
        with pytest.raises(NoSuchObjectError):
            store.get_object("data", "missing")
        with pytest.raises(NoSuchObjectError):
            store.head_object("data", "missing")

    def test_missing_bucket(self, store):
        with pytest.raises(NoSuchBucketError):
            store.get_object("nope", "k")

    def test_list_with_prefix(self, store):
        for key in ("ts0/a", "ts0/b", "ts1/a"):
            store.put_object("data", key, b"x")
        assert store.list_objects("data", "ts0/") == ["ts0/a", "ts0/b"]
        assert len(store.list_objects("data")) == 3

    def test_bucket_exists(self, store):
        assert store.bucket_exists("data")
        assert not store.bucket_exists("other")

    def test_invalid_names(self, store):
        with pytest.raises(StorageError):
            store.put_object("data", "../escape", b"x")
        with pytest.raises(StorageError):
            store.put_object("bad name!", "k", b"x")
        with pytest.raises(StorageError):
            store.put_object("data", "", b"x")

    def test_invalid_range(self, store):
        store.put_object("data", "k", b"x")
        with pytest.raises(StorageError):
            store.get_object("data", "k", offset=-1)


class TestDeviceAccounting:
    def test_reads_charged(self):
        clock = SimClock()
        dev = DeviceModel(clock, bandwidth_bps=1e6)
        s = ObjectStore(MemoryBackend(), device=dev)
        s.create_bucket("b")
        s.put_object("b", "k", b"x" * 500_000)
        written = dev.total_bytes
        s.get_object("b", "k")
        assert dev.total_bytes == written + 500_000
        assert clock.now > 0

    def test_ranged_read_charges_range_only(self):
        dev = DeviceModel(SimClock(), 1e6)
        s = ObjectStore(MemoryBackend(), device=dev)
        s.create_bucket("b")
        s.put_object("b", "k", b"x" * 1000)
        dev.reset_counters()
        s.get_object("b", "k", offset=0, length=100)
        assert dev.total_bytes == 100


class TestDirectoryBackendSpecifics:
    def test_persistence_across_instances(self, tmp_path):
        root = str(tmp_path / "store")
        s1 = ObjectStore(DirectoryBackend(root))
        s1.create_bucket("b")
        s1.put_object("b", "deep/key.bin", b"persisted")
        s2 = ObjectStore(DirectoryBackend(root))
        assert s2.get_object("b", "deep/key.bin") == b"persisted"
        assert s2.list_objects("b") == ["deep/key.bin"]

    def test_tmp_files_not_listed(self, tmp_path):
        root = tmp_path / "store"
        backend = DirectoryBackend(str(root))
        backend.create_bucket("b")
        (root / "b" / "junk.tmp").write_bytes(b"partial")
        assert backend.list_keys("b", "") == []
