"""The marching-tetrahedra kernel against its frozen per-tet reference.

``repro.filters.marching_tets`` interpolates each distinct cell edge once
and gathers triangles through a generated table; the kernel it replaced
is kept verbatim in ``reference_marching_tets.py``.  For every input the
two must return the same shape and the same bits (compared as ``uint64``
views, so NaN payloads and signed zeros count), in the same order.

Hypothesis draws fields that hit the kernel's edge cases: ties at the
isovalue, isovalues a float32 ulp (or a fraction of one) either side of
a sample, NaN and ±inf corners, float32/float64/int16 fields, constant
planes, 2-wide axes, rectilinear axes (signed zeros included) and cell
masks.  Tier-1 runs a derandomised slice; CI runs the ``marching-ci``
profile (``tests/conftest.py``).  The live kernel must also stay
silent: it runs under ``warnings.simplefilter("error")``.

One thing is outside the contract: which NaN an operation returns when
*both* its operands are NaNs with different payloads.  NumPy's SIMD
loops choose by an element's position in the array (the vector body and
the tail loop differ), so even the reference changes its answer when a
cell moves.  A field therefore carries one NaN payload (either sign),
and infinite coordinates — whose ``inf - inf`` spans are the other NaN
— are drawn only for NaN-free fields.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.filters.marching_tets import marching_tetrahedra

from tests.filters.reference_marching_tets import (
    marching_tetrahedra as reference_marching_tetrahedra,
)

#: Few distinct levels, so corners often tie with each other and with v.
LEVELS = (-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0)


def reference(field, value, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the reference warns on ±inf data
        return reference_marching_tetrahedra(field, value, **kw)


def live(field, value, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return marching_tetrahedra(field, value, **kw)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def float32_neighbours(sample: float) -> list[float]:
    """Values around a sample on the float32 grid: one ulp either side,
    and float64 values strictly between float32 neighbours (where a
    float32-width compare against ``v`` would round ``v`` first)."""
    s = np.float32(sample)
    up = np.nextafter(s, np.float32(np.inf))
    down = np.nextafter(s, np.float32(-np.inf))
    out = [float(up), float(down)]
    for frac in (0.25, 0.5, 0.75):
        out.append(float(s) + frac * (float(up) - float(s)))
        out.append(float(s) - frac * (float(s) - float(down)))
    return out


@st.composite
def contour_inputs(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int16]))
    shape = tuple(draw(st.lists(st.integers(2, 5), min_size=3, max_size=3)))
    if dtype == np.int16:
        elements = st.integers(-3, 3)
    else:
        elements = st.sampled_from(LEVELS) | st.floats(
            -4, 4, width=32 if dtype == np.float32 else 64)
    field = draw(arrays(dtype, shape, elements=elements))

    if dtype != np.int16:
        nan = draw(st.sampled_from([np.nan, -np.nan]))
        for _ in range(draw(st.integers(0, 3))):
            at = tuple(draw(st.integers(0, n - 1)) for n in shape)
            field[at] = draw(st.sampled_from([nan, np.inf, -np.inf]))

    if draw(st.booleans()):
        # A constant plane: a whole lattice slab at one level.
        axis = draw(st.integers(0, 2))
        at = [slice(None)] * 3
        at[axis] = draw(st.integers(0, shape[axis] - 1))
        field[tuple(at)] = draw(st.sampled_from(LEVELS[2:7]))

    finite = field[np.isfinite(field)]
    choices = [st.sampled_from(LEVELS), st.floats(-4, 4)]
    if dtype == np.float32:
        choices.append(st.sampled_from([-1e39, 1e39]))  # beyond float32
    if finite.size:
        sample = st.sampled_from(sorted(set(finite.astype(float).tolist())))
        choices.append(sample)  # a tie with some sample
        choices.append(sample.flatmap(
            lambda s: st.sampled_from(float32_neighbours(s))))
    value = draw(st.one_of(choices))

    kw = {}
    if draw(st.booleans()):
        special = [-0.0, 0.0]
        if not np.isnan(field).any():
            special += [np.inf, -np.inf]
        coords = st.floats(-50, 50) | st.sampled_from(special)
        kw["axes"] = tuple(
            np.array(draw(st.lists(coords, min_size=n, max_size=n)))
            for n in shape[::-1]
        )
    else:
        kw["origin"] = tuple(draw(st.lists(st.floats(-10, 10), min_size=3, max_size=3)))
        kw["spacing"] = tuple(draw(st.lists(st.floats(-3, 3), min_size=3, max_size=3)))
    if draw(st.booleans()):
        cells = tuple(n - 1 for n in shape)
        kw["cell_mask"] = draw(arrays(np.bool_, cells))
    return field, value, kw


# No max_examples here: the default profile's 100 is the tier-1 slice and
# ``--hypothesis-profile=marching-ci`` raises it.
@given(contour_inputs())
@settings(derandomize=True, deadline=None)
def test_kernel_matches_frozen_reference(case):
    field, value, kw = case
    assert_same_bits(live(field, value, **kw), reference(field, value, **kw))


def test_matches_reference_on_a_dense_field():
    """A smooth float32 field with thousands of active cells: every tet,
    case and slot is exercised at once, in emission order."""
    n = 24
    zz, yy, xx = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
    f = (np.sin(xx / 3.1) * np.cos(yy / 4.3) + 0.4 * np.sin(zz / 2.2)).astype(np.float32)
    for value in (0.0, 0.3, float(f[5, 7, 9])):
        assert_same_bits(live(f, value), reference(f, value))


def test_inf_corner_raises_no_warning():
    """One +inf corner used to warn ``invalid value encountered in
    divide`` per crossing edge; the NaN vertices it makes are data."""
    f = np.zeros((3, 3, 3))
    f[1, 1, 1] = np.inf
    got = live(f, 0.5)
    want = reference(f, 0.5)
    assert np.isnan(got).any()
    assert_same_bits(got, want)


def test_float32_field_classifies_with_float64_semantics():
    """Isovalues strictly between float32 neighbours, or beyond float32's
    range, must classify as the float64 reference does: a float32-width
    compare against the bare value would round it first."""
    s = np.float32(0.1)
    f = np.zeros((3, 3, 3), dtype=np.float32)
    f[1, 1, 1] = s
    f[0, 0, 0] = -np.inf
    for value in float32_neighbours(float(s)) + [-1e39]:
        assert_same_bits(live(f, value), reference(f, value))
