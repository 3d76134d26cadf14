"""Unit tests for the synthetic Nyx cosmology dataset."""

import numpy as np
import pytest

from repro.compression import get_codec
from repro.core import selection_rate
from repro.datasets import NyxDataset, NyxParams
from repro.datasets.nyx import HALO_THRESHOLD
from repro.errors import ReproError

DIMS = (48, 48, 48)


@pytest.fixture(scope="module")
def grid():
    return NyxDataset(NyxParams(dims=DIMS)).generate()


class TestStructure:
    def test_six_arrays(self, grid):
        assert set(grid.point_data.names()) == {
            "velocity_x",
            "velocity_y",
            "velocity_z",
            "temperature",
            "dark_matter_density",
            "baryon_density",
        }

    def test_float32(self, grid):
        for arr in grid.point_data:
            assert arr.dtype == np.float32

    def test_deterministic(self):
        a = NyxDataset(NyxParams(dims=DIMS)).generate()
        b = NyxDataset(NyxParams(dims=DIMS)).generate()
        assert a == b

    def test_param_validation(self):
        with pytest.raises(ReproError):
            NyxParams(sigma=-1.0)
        with pytest.raises(ReproError):
            NyxParams(target_selectivity=2.0)


class TestCalibration:
    def test_halo_threshold_selectivity(self, grid):
        """The paper's headline statistic: 0.06% data selectivity at the
        halo-formation threshold 81.66."""
        permille = selection_rate(grid, "baryon_density", [HALO_THRESHOLD])
        assert 0.3 < permille < 1.2  # target 0.6 permille (0.06%)

    def test_threshold_inside_value_range(self, grid):
        lo, hi = grid.point_data.get("baryon_density").range()
        assert lo < HALO_THRESHOLD < hi

    def test_halos_are_rare(self, grid):
        dens = grid.point_data.get("baryon_density").values
        assert (dens >= HALO_THRESHOLD).mean() < 0.01

    def test_density_positive(self, grid):
        assert grid.point_data.get("baryon_density").values.min() > 0


class TestStatisticalCharacter:
    def test_log_density_roughly_gaussian(self, grid):
        logd = np.log(grid.point_data.get("baryon_density").values.astype(np.float64))
        from scipy import stats

        skew = stats.skew(logd)
        assert abs(skew) < 1.0  # log-normal -> log is near-symmetric

    def test_poorly_compressible(self, grid):
        """The paper's Sec. VII finding: GZip cuts Nyx by only ~11%."""
        gz = get_codec("gzip")
        data = grid.point_data.get("baryon_density").values.tobytes()
        ratio = len(data) / len(gz.compress(data))
        assert ratio < 1.5

    def test_dark_matter_correlates_with_baryons(self, grid):
        b = np.log(grid.point_data.get("baryon_density").values.astype(np.float64))
        d = np.log(grid.point_data.get("dark_matter_density").values.astype(np.float64))
        corr = np.corrcoef(b, d)[0, 1]
        assert corr > 0.5

    def test_temperature_density_relation(self, grid):
        b = np.log(grid.point_data.get("baryon_density").values.astype(np.float64))
        t = np.log(grid.point_data.get("temperature").values.astype(np.float64))
        assert np.corrcoef(b, t)[0, 1] > 0.5

    def test_velocities_zero_mean(self, grid):
        for name in ("velocity_x", "velocity_y", "velocity_z"):
            v = grid.point_data.get(name).values
            assert abs(v.mean()) < 0.2 * v.std()


class TestFields:
    def test_fractal_noise_unit_variance(self, rng):
        from repro.datasets import fractal_noise

        field = fractal_noise((32, 32, 32), rng)
        assert field.std() == pytest.approx(1.0, rel=1e-6)
        assert abs(field.mean()) < 0.05

    def test_fractal_noise_spectral_slope(self, rng):
        """Steeper spectra concentrate power at large scales."""
        from repro.datasets import fractal_noise

        smooth = fractal_noise((48, 48, 48), rng, spectral_index=-3.0)
        rough = fractal_noise((48, 48, 48), rng, spectral_index=-1.0)
        # Gradient magnitude is much larger for the rough field.
        gs = np.abs(np.diff(smooth, axis=0)).mean()
        gr = np.abs(np.diff(rough, axis=0)).mean()
        assert gr > 1.5 * gs

    def test_fractal_noise_2d(self, rng):
        from repro.datasets import fractal_noise

        field = fractal_noise((64, 64), rng)
        assert field.shape == (64, 64)

    def test_smoothstep_properties(self):
        from repro.datasets import smoothstep

        assert smoothstep(np.array(-1.0)) == 0.0
        assert smoothstep(np.array(2.0)) == 1.0
        assert smoothstep(np.array(0.5)) == pytest.approx(0.5)
