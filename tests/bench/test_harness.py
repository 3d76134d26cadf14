"""Unit tests for the benchmark environment and experiment runners."""

import numpy as np
import pytest

from repro.bench import BenchEnv
from repro.bench.experiments import (
    run_encoding_ablation,
    run_fig1,
    run_fig5_local,
    run_fig5_remote,
    run_fig5_sizes,
    run_fig6,
    run_fig13,
    run_fig14,
    run_link_sweep,
    run_table2,
)
from repro.core.encoding import decode_selection
from repro.core.postfilter import postfilter_contour
from repro.filters.contour import contour_grid

DIMS = (32, 32, 32)  # tiny: these tests check wiring, not calibration


@pytest.fixture(scope="module")
def env():
    return BenchEnv(dims=DIMS, with_nyx=True)


class TestEnvironment:
    def test_objects_populated(self, env):
        keys = env.store.list_objects("sim")
        assert len(keys) == 9 * 3 + 3  # 9 asteroid steps + 1 nyx, x3 codecs
        assert env.key("asteroid", "gzip", 0) in keys

    def test_grids_cached(self, env):
        grid = env.grid("asteroid", 0)
        assert grid.dims == DIMS
        assert set(grid.point_data.names()) == {"v02", "v03"}

    def test_stored_sizes_codecs_ordered(self, env):
        sizes = env.stored_sizes("asteroid", 0, "v02")
        assert sizes["gzip"] < sizes["lz4"] < sizes["raw"]

    def test_stored_sizes_does_not_touch_clock(self, env):
        before = env.testbed.clock.now
        env.stored_sizes("asteroid", 0, "v02")
        assert env.testbed.clock.now == before


class TestLoads:
    def test_baseline_load_remote_charges_network(self, env):
        grid, res = env.baseline_load("asteroid", "raw", 0, "v02")
        assert res.seconds > 0
        assert res.network_bytes >= res.stored_bytes > 0
        assert grid.point_data.get("v02") == env.grid("asteroid", 0).point_data.get("v02")

    def test_baseline_load_local_no_network(self, env):
        _, res = env.baseline_load("asteroid", "raw", 0, "v02", local=True)
        assert res.network_bytes == 0
        assert res.seconds > 0

    def test_local_faster_than_remote(self, env):
        _, remote = env.baseline_load("asteroid", "raw", 0, "v02")
        _, local = env.baseline_load("asteroid", "raw", 0, "v02", local=True)
        assert local.seconds < remote.seconds

    def test_ndp_load_reduces_network(self, env):
        _, base = env.baseline_load("asteroid", "raw", 0, "v02")
        _, ndp = env.ndp_load("asteroid", "raw", 0, "v02", [0.1])
        assert ndp.network_bytes < base.network_bytes / 5
        assert ndp.seconds < base.seconds

    def test_ndp_stats(self, env):
        encoded, res = env.ndp_load("asteroid", "gzip", 0, "v03", [0.1])
        assert res.extra["codec"] == "gzip"
        assert res.extra["selected_points"] > 0
        assert res.raw_bytes == env.grid("asteroid", 0).point_data.get("v03").nbytes

    def test_ndp_equivalence(self, env):
        """NDP-loaded geometry equals locally contoured geometry."""
        for dataset, step, array, values in (
            ("asteroid", 24006, "v02", [0.1]),
            ("nyx", 0, "baryon_density", [81.66]),
        ):
            encoded, _ = env.ndp_load(dataset, "raw", step, array, values)
            recon = postfilter_contour(decode_selection(encoded), values)
            full = contour_grid(env.grid(dataset, step), array, values)
            assert np.array_equal(full.points, recon.points)
            assert np.array_equal(full.polys.connectivity, recon.polys.connectivity)


class TestExperiments:
    def test_fig1_rows(self, env):
        rows = run_fig1(env)
        assert [r["technique"] for r in rows] == ["gzip", "lz4", "contour-selection"]
        for row in rows:
            assert row["min_ratio"] <= row["median_ratio"] <= row["max_ratio"]

    def test_fig5_sizes(self, env):
        rows = run_fig5_sizes(env, "v02")
        assert len(rows) == 9
        # compression ratio decays over the run
        assert rows[0]["gzip_ratio"] > rows[-1]["gzip_ratio"]

    def test_fig5_remote_compression_wins(self, env):
        rows = run_fig5_remote(env, "v02")
        for row in rows:
            assert row["gzip_s"] < row["raw_s"]
            assert row["lz4_s"] < row["raw_s"]

    def test_fig5_local_lz4_beats_gzip(self, env):
        """The paper's Fig. 5c/5f finding."""
        rows = run_fig5_local(env, "v02")
        assert all(row["lz4_s"] < row["gzip_s"] for row in rows)

    def test_fig6_selectivity_falls_with_value(self, env):
        rows = run_fig6(env, "v02")
        last = rows[-1]
        assert last["val0.1"] >= last["val0.9"]

    def test_fig13_ndp_wins(self, env):
        rows = run_fig13(env, "v02", "raw", values=(0.1,))
        for row in rows:
            assert row["ndp0.1_s"] < row["baseline_s"]

    def test_table2_orderings(self, env):
        rows = run_table2(env, arrays=("v02",), values=(0.1, 0.9))
        for row in rows:
            assert row["RAW"] == 1.0
            assert row["NDP"] > 1.0
            assert row["LZ4"] > row["GZip"] > 1.0
            assert row["GZip+NDP"] > row["NDP"]
            assert row["LZ4+NDP"] >= row["GZip+NDP"]

    def test_fig14_ndp_wins_on_nyx(self, env):
        rows = run_fig14(env)
        for row in rows:
            assert row["speedup"] > 1.0

    def test_encoding_ablation(self, env):
        rows = run_encoding_ablation(env)
        for row in rows:
            assert row["auto_kb"] <= row["ids_kb"] + 1e-9
            assert row["auto_kb"] <= row["bitmap_kb"] + 1e-9

    def test_link_sweep_monotone(self, env):
        rows = run_link_sweep(env)
        speedups = [row["speedup"] for row in rows]
        assert speedups == sorted(speedups, reverse=True)
        # bandwidth restored afterwards
        assert env.testbed.net.bandwidth_bps == pytest.approx(63.5e6)
