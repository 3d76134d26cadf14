"""Field-synthesis primitives: spectral noise, profiles, geometry helpers."""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

from repro.errors import ReproError

__all__ = ["fractal_noise", "smoothstep", "unit_coords"]


def fractal_noise(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    spectral_index: float = -2.0,
    kmin: float = 1.0,
) -> np.ndarray:
    """Zero-mean, unit-variance noise with a power-law spectrum.

    Synthesized in Fourier space: white noise shaped by
    ``P(k) ~ k**spectral_index`` for ``k >= kmin`` (modes below ``kmin``
    are damped to keep the field statistically homogeneous).  A spectral
    index of -2 .. -3 gives the smooth-but-multiscale character of
    hydrodynamic turbulence and cosmological density fields.
    """
    if any(s < 1 for s in shape):
        raise ReproError(f"invalid noise shape {shape}")
    white = rng.standard_normal(shape)
    spectrum = sp_fft.rfftn(white)
    freqs = [np.fft.fftfreq(s) * s for s in shape[:-1]]
    freqs.append(np.fft.rfftfreq(shape[-1]) * shape[-1])
    grids = np.meshgrid(*freqs, indexing="ij", sparse=True)
    k2 = sum(g * g for g in grids)
    k = np.sqrt(k2)
    with np.errstate(divide="ignore"):
        amp = np.where(k >= kmin, k ** (spectral_index / 2.0), 0.0)
    amp.flat[0] = 0.0  # kill the DC mode: zero-mean output
    field = sp_fft.irfftn(spectrum * amp, s=shape)
    std = field.std()
    if std > 0:
        field = field / std
    return field


def smoothstep(x: np.ndarray) -> np.ndarray:
    """The cubic smoothstep ``3x^2 - 2x^3`` on [0, 1], clipped outside."""
    t = np.clip(x, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def unit_coords(dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse ``(z, y, x)`` coordinate grids normalized to [0, 1].

    Shapes broadcast to ``(nz, ny, nx)``; degenerate axes map to 0.5.
    """
    nx, ny, nz = dims

    def axis(n: int) -> np.ndarray:
        if n == 1:
            return np.array([0.5])
        return np.arange(n) / (n - 1)

    z = axis(nz)[:, None, None]
    y = axis(ny)[None, :, None]
    x = axis(nx)[None, None, :]
    return z, y, x
