"""Hypothesis property tests for field-synthesis primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import fractal_noise, smoothstep


@given(
    shape=st.tuples(st.integers(4, 24), st.integers(4, 24), st.integers(4, 24)),
    seed=st.integers(0, 2**31 - 1),
    index=st.floats(-3.5, -0.5),
)
@settings(max_examples=40, deadline=None)
def test_fractal_noise_normalization(shape, seed, index):
    field = fractal_noise(shape, np.random.default_rng(seed), spectral_index=index)
    assert field.shape == shape
    assert np.isfinite(field).all()
    assert abs(field.std() - 1.0) < 1e-6
    assert abs(field.mean()) < 0.25  # DC killed; small-sample mean noise


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_fractal_noise_deterministic_per_seed(seed):
    a = fractal_noise((8, 8, 8), np.random.default_rng(seed))
    b = fractal_noise((8, 8, 8), np.random.default_rng(seed))
    assert np.array_equal(a, b)


@given(
    x=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=50)
)
@settings(max_examples=60, deadline=None)
def test_smoothstep_properties(x):
    arr = np.asarray(x)
    out = smoothstep(arr)
    assert ((out >= 0) & (out <= 1)).all()
    # Monotone: sorting inputs sorts outputs.
    assert np.array_equal(smoothstep(np.sort(arr)), np.sort(out))
    # Fixed points at the clamps.
    assert smoothstep(np.array(0.0)) == 0.0
    assert smoothstep(np.array(1.0)) == 1.0
