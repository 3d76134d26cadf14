"""Shared fixtures: small grids and fields every test group reuses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.grid import DataArray, UniformGrid

# CI runs tests/rpc/test_envelope.py with --hypothesis-profile=envelope-ci:
# more examples than a developer run, and the same ones every time.
settings.register_profile(
    "envelope-ci", max_examples=2000, derandomize=True, deadline=None)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_sphere_grid(n: int = 20, name: str = "r") -> UniformGrid:
    """An n^3 grid carrying the distance-from-center field."""
    zz, yy, xx = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    r = np.sqrt((xx - n / 2) ** 2 + (yy - n / 2) ** 2 + (zz - n / 2) ** 2)
    grid = UniformGrid((n, n, n))
    grid.point_data.add(DataArray(name, r.reshape(-1).astype(np.float32)))
    return grid


def make_wave_grid(n: int = 24, name: str = "f", seed: int = 7) -> UniformGrid:
    """A smooth multiscale 3-D field with mixed positive/negative values."""
    rng = np.random.default_rng(seed)
    zz, yy, xx = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    field = (
        np.sin(xx / 3.5) * np.cos(yy / 4.5)
        + 0.4 * np.sin(zz / 2.5)
        + 0.05 * rng.normal(size=xx.shape)
    )
    grid = UniformGrid((n, n, n), origin=(0.5, -1.0, 2.0), spacing=(0.7, 1.1, 0.9))
    grid.point_data.add(DataArray(name, field.reshape(-1)))
    return grid


def make_2d_grid(nx: int = 16, ny: int = 12, name: str = "f", seed: int = 3) -> UniformGrid:
    rng = np.random.default_rng(seed)
    field = rng.normal(size=(ny, nx))
    grid = UniformGrid((nx, ny, 1))
    grid.point_data.add(DataArray(name, field.reshape(-1)))
    return grid


@pytest.fixture
def sphere_grid():
    return make_sphere_grid()


@pytest.fixture
def wave_grid():
    return make_wave_grid()


@pytest.fixture
def grid_2d():
    return make_2d_grid()
