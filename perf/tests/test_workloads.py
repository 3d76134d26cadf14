"""Request lists are pure functions of the seed, with the tabled sizes."""

from collections import Counter

import pytest

from perf.workloads import (
    SLIDER_REVISITS,
    VIZ_MIX,
    WORKLOADS,
    serialize,
    slider_values,
)

SIZES = {
    "timeseries_cold": {"analyst": 54},
    "isovalue_warm": {"analyst": 48},
    "frame_pixels": {"analyst": 18},
    "mixed_tenants": {"viz": 100, "bulk": 100},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    build = WORKLOADS[name].build
    assert serialize(build(7)) == serialize(build(7))
    assert serialize(build(7)) != serialize(build(8))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_list_sizes(name):
    tenants = WORKLOADS[name].build(3)
    assert {t: len(ops) for t, ops in tenants.items()} == SIZES[name]


def test_cold_touches_every_block_once():
    ops = WORKLOADS["timeseries_cold"].build(0)["analyst"]
    assert len({(op.key, op.array) for op in ops}) == 54


@pytest.mark.parametrize("seed", range(20))
def test_slider_has_exactly_twelve_revisits_never_first(seed):
    values = slider_values(seed)
    revisits = [i for i, v in enumerate(values) if v in values[:i]]
    assert len(revisits) == SLIDER_REVISITS == 12
    assert 0 not in revisits
    assert len(set(values)) == len(values) - SLIDER_REVISITS


@pytest.mark.parametrize("seed", range(5))
def test_mixed_shares_are_exact(seed):
    tenants = WORKLOADS["mixed_tenants"].build(seed)
    assert Counter(op.kind for op in tenants["viz"]) == dict(VIZ_MIX)
    assert {op.kind for op in tenants["bulk"]} == {"read_block"}
    assert all("/gzip/" in op.key for op in tenants["bulk"])
    assert all("/lz4/" in op.key for op in tenants["viz"])


def test_cold_isovalues_rotate_the_same_way_for_every_seed():
    """The seed nudges each isovalue and moves none to another block."""
    one, other = (WORKLOADS["timeseries_cold"].build(seed)["analyst"]
                  for seed in (1, 2))
    assert [(op.key, op.array) for op in one] == [
        (op.key, op.array) for op in other]
    for a, b in zip(one, other):
        assert a.args != b.args and abs(a.args[0] - b.args[0]) <= 0.08
