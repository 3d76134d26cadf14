"""Unit tests for precomputed (in-situ-style) selections."""

import numpy as np
import pytest

from repro.core.encoding import decode_selection
from repro.core.insitu import (
    ndp_contour_precomputed,
    precompute_selections,
    selection_key,
)
from repro.core.prefilter import prefilter_contour
from repro.errors import NoSuchObjectError
from repro.filters import contour_grid
from repro.io import write_vgf
from repro.rpc.msgpack import unpack
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid, make_wave_grid


@pytest.fixture
def fs():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    fs.write_object("ts0.vgf", write_vgf(make_wave_grid(14), codec="lz4"))
    return fs


class TestSelectionKey:
    def test_deterministic(self):
        a = selection_key("ts0.vgf", "f", [0.5, 0.1])
        b = selection_key("ts0.vgf", "f", [0.1, 0.5])  # order-insensitive
        assert a == b
        assert "ts0.vgf.sel/f/" in a

    def test_distinct_parameters_distinct_keys(self):
        base = selection_key("k", "a", [0.1])
        assert selection_key("k", "a", [0.2]) != base
        assert selection_key("k", "b", [0.1]) != base
        assert selection_key("k", "a", [0.1], mode="edge") != base


class TestPrecompute:
    def test_writes_objects(self, fs):
        written = precompute_selections(fs, "ts0.vgf", ["f"], [0.0, 0.5])
        assert len(written) == 1
        sel_key, nbytes = written[0]
        assert fs.exists(sel_key)
        assert 0 < nbytes < make_wave_grid(14).point_data.get("f").nbytes

    def test_sparse_selection_object_is_tiny(self):
        """On realistic (sparse-contour) data the selection object is far
        smaller than even the compressed array."""
        store = ObjectStore(MemoryBackend())
        store.create_bucket("sim")
        fs = S3FileSystem(store, "sim")
        grid = make_sphere_grid(20)
        fs.write_object("s.vgf", write_vgf(grid, codec="lz4"))
        (sel_key, nbytes), = precompute_selections(fs, "s.vgf", ["r"], [6.0])
        # (The symmetric sphere field itself LZ4-compresses unusually
        # well, so compare against the raw array size, as Fig. 1 does.)
        assert nbytes < grid.point_data.get("r").nbytes / 4

    def test_load_round_trip(self, fs):
        precompute_selections(fs, "ts0.vgf", ["f"], [0.0])
        blob = fs.read_object(selection_key("ts0.vgf", "f", [0.0]))
        sel = decode_selection(unpack(blob))
        grid = make_wave_grid(14)
        expected = prefilter_contour(grid, "f", [0.0])
        assert sel == expected

    def test_missing_raises(self, fs):
        with pytest.raises(NoSuchObjectError):
            ndp_contour_precomputed(fs, "ts0.vgf", "f", [0.33])


class TestPrecomputedContour:
    def test_matches_full_contour(self, fs):
        precompute_selections(fs, "ts0.vgf", ["f"], [0.0, 0.5])
        pd, stats = ndp_contour_precomputed(fs, "ts0.vgf", "f", [0.0, 0.5])
        expected = contour_grid(make_wave_grid(14), "f", [0.0, 0.5])
        assert np.array_equal(expected.points, pd.points)
        assert stats["precomputed"] is True
        assert stats["stored_bytes"] < stats["raw_bytes"]

    def test_through_remote_mount_transfers_selection_only(self):
        """The headline property: only the selection crosses the link."""
        from repro.storage.netsim import LinkModel, SimClock

        store = ObjectStore(MemoryBackend())
        store.create_bucket("sim")
        local = S3FileSystem(store, "sim")
        grid = make_sphere_grid(16)
        local.write_object("ts0.vgf", write_vgf(grid, codec="raw"))
        precompute_selections(local, "ts0.vgf", ["r"], [5.0])

        clock = SimClock()
        link = LinkModel(clock, bandwidth_bps=1e6)
        remote = S3FileSystem(store, "sim", link=link, chunk_bytes=4096)
        pd, stats = ndp_contour_precomputed(remote, "ts0.vgf", "r", [5.0])
        expected = contour_grid(grid, "r", [5.0])
        assert np.array_equal(expected.points, pd.points)
        # The full array never crossed the link.
        assert link.total_bytes < grid.point_data.get("r").nbytes / 4

    def test_wrong_values_not_silently_served(self, fs):
        precompute_selections(fs, "ts0.vgf", ["f"], [0.0])
        with pytest.raises(NoSuchObjectError):
            ndp_contour_precomputed(fs, "ts0.vgf", "f", [0.25])
