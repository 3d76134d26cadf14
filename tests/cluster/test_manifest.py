"""Shard manifests: round-trip, signatures, tampering, catalog discovery."""

import json

import numpy as np
import pytest

from repro.cluster import (
    ShardManifest,
    load_manifest,
    manifest_key_for,
    shard_object,
)
from repro.errors import FormatError, IntegrityError, ReproError
from repro.io import TimestepCatalog, read_vgf, write_vgf
from repro.storage.object_store import MemoryBackend, ObjectStore
from repro.storage.s3fs import S3FileSystem

from tests.conftest import make_sphere_grid


@pytest.fixture
def fs():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    return S3FileSystem(store, "sim")


@pytest.fixture
def sharded(fs):
    grid = make_sphere_grid(10)
    fs.write_object(
        "a/ts00000.vgf", write_vgf(grid, codec="lz4", meta={"timestep": 0})
    )
    manifest = shard_object(fs, "a/ts00000.vgf", blocks=(2, 2, 1), shards=2)
    return fs, grid, manifest


class TestShardObject:
    def test_writes_blocks_and_manifest(self, sharded):
        fs, grid, manifest = sharded
        assert manifest.manifest_key == manifest_key_for("a/ts00000.vgf")
        assert manifest.blocks == (2, 2, 1)
        assert manifest.shards == 2
        assert len(manifest.block_objects) == 4
        assert [bo.shard for bo in manifest.block_objects] == [0, 1, 0, 1]
        for bo in manifest.block_objects:
            with fs.open(bo.key) as fh:
                block = read_vgf(fh)
            assert block.dims == bo.spec.dims

    def test_block_values_match_parent_slice(self, sharded):
        fs, grid, manifest = sharded
        parent = grid.point_data.get("r").values.reshape(10, 10, 10)
        bo = manifest.block_objects[3]
        with fs.open(bo.key) as fh:
            block = read_vgf(fh)
        (li, lj, lk), (hi, hj, hk) = bo.spec.lo, bo.spec.hi
        np.testing.assert_array_equal(
            parent[lk: hk + 1, lj: hj + 1, li: hi + 1].reshape(-1),
            block.point_data.get("r").values,
        )

    def test_manifest_records_array_dtypes(self, sharded):
        _, _, manifest = sharded
        assert manifest.array_names == ["r"]
        assert manifest.array_dtype("r") == np.dtype(np.float32)
        with pytest.raises(ReproError):
            manifest.array_dtype("missing")

    def test_bad_shard_count(self, fs):
        grid = make_sphere_grid(8)
        fs.write_object("b.vgf", write_vgf(grid))
        with pytest.raises(ReproError):
            shard_object(fs, "b.vgf", blocks=(2, 1, 1), shards=3)


class TestSignature:
    def test_roundtrip(self, sharded):
        fs, _, manifest = sharded
        loaded = load_manifest(fs, manifest.manifest_key)
        assert loaded.to_doc() == manifest.to_doc()
        assert isinstance(loaded, ShardManifest)

    def test_tampered_manifest_rejected(self, sharded):
        fs, _, manifest = sharded
        doc = json.loads(fs.read_object(manifest.manifest_key).decode())
        doc["block_objects"][0]["key"] = "evil/elsewhere.vgf"
        fs.write_object(
            manifest.manifest_key, json.dumps(doc).encode()
        )
        with pytest.raises(IntegrityError):
            load_manifest(fs, manifest.manifest_key)

    def test_missing_signature_rejected(self, sharded):
        fs, _, manifest = sharded
        doc = json.loads(fs.read_object(manifest.manifest_key).decode())
        del doc["signature"]
        fs.write_object(manifest.manifest_key, json.dumps(doc).encode())
        with pytest.raises(IntegrityError):
            load_manifest(fs, manifest.manifest_key)

    def test_hmac_signing(self, fs):
        grid = make_sphere_grid(8)
        fs.write_object("c.vgf", write_vgf(grid))
        manifest = shard_object(fs, "c.vgf", blocks=(2, 1, 1),
                                sign_key=b"secret")
        loaded = load_manifest(fs, manifest.manifest_key, sign_key=b"secret")
        assert loaded.dims == manifest.dims
        # Without the key the HMAC cannot be checked.
        with pytest.raises(IntegrityError):
            load_manifest(fs, manifest.manifest_key)
        with pytest.raises(IntegrityError):
            load_manifest(fs, manifest.manifest_key, sign_key=b"wrong")

    def test_not_json_rejected(self, fs):
        fs.write_object("junk.manifest.json", b"\x00\x01binary")
        with pytest.raises(FormatError):
            load_manifest(fs, "junk.manifest.json")


class TestCatalogs:
    def test_catalogs_coexist(self, sharded):
        fs, _, _ = sharded
        # The timestep catalog must see exactly the one source object:
        # block objects carry no timestep, the manifest is not a VGF.
        tcat = TimestepCatalog(fs)
        assert [e.key for e in tcat] == ["a/ts00000.vgf"]
