"""A masked contour runs on the mask's z-slab, with the whole lattice's bits.

``marching_tetrahedra`` crops the field, mask and z axis to the k-layers
from the first to the last one holding a masked-in cell.  The triangles
must stay those of the frozen per-tet reference, which always walks the
whole field: same bits (``uint64`` views), same order.
"""

import numpy as np
import pytest

from tests.filters.test_marching_identity import assert_same_bits, live, reference

N = 20


def _field():
    zz, yy, xx = np.meshgrid(*(np.arange(N),) * 3, indexing="ij")
    return (np.sin(xx / 2.9) * np.cos(yy / 3.7) + 0.5 * np.sin(zz / 1.9)).astype(np.float32)


def _masks():
    cells = (N - 1,) * 3
    rng = np.random.default_rng(5)
    yield "bottom layer", np.zeros(cells, bool), (0, 1)
    yield "top layer", np.zeros(cells, bool), (N - 2, N - 1)
    yield "middle slab", np.zeros(cells, bool), (6, 11)
    yield "two far layers", np.zeros(cells, bool), (3, 4, 15, 16)
    yield "sparse", rng.random(cells) < 0.02, None
    yield "everything", np.ones(cells, bool), None


@pytest.mark.parametrize("axes", [False, True], ids=["uniform", "rectilinear"])
@pytest.mark.parametrize("name, mask, layers", list(_masks()), ids=[m[0] for m in _masks()])
def test_slab_matches_frozen_reference(name, mask, layers, axes):
    if layers is not None:
        for lo, hi in zip(layers[::2], layers[1::2]):
            mask[lo:hi] = np.random.default_rng(lo).random(mask[lo:hi].shape) < 0.6
    kw = {"cell_mask": mask}
    if axes:
        rng = np.random.default_rng(9)
        zs = np.cumsum(rng.random(N)) - 4.0
        zs[4] = -0.0  # a signed zero inside the slab's z coordinates
        kw["axes"] = (np.cumsum(rng.random(N)), np.cumsum(rng.random(N)), zs)
    else:
        kw.update(origin=(0.5, -1.0, 2.25), spacing=(0.7, 1.1, 0.3))
    f = _field()
    for value in (0.0, 0.35, float(f[7, 5, 3])):
        got = live(f, value, **kw)
        assert_same_bits(got, reference(f, value, **kw))
        assert len(got) or not mask.any()


def test_all_false_mask_is_empty():
    f = _field()
    got = live(f, 0.0, cell_mask=np.zeros((N - 1,) * 3, bool))
    assert got.shape == (0, 3, 3) and got.dtype == np.float64
