"""Verification and server lifecycle, end to end on a small grid."""

import functools
import json
import socket

import numpy as np
import pytest

from perf import runner
from perf.server import DefaultServer
from perf.spans import read_jsonl
from perf.store import build_store
from perf.verify import References
from perf.workloads import WORKLOADS, Op, store_key

SMALL = functools.partial(build_store, dim=16)


def test_references_accept_stock_output_and_reject_a_changed_one(tmp_path):
    from repro.filters.contour import contour_grid

    grids = SMALL(str(tmp_path))
    step = next(iter(grids))
    op = Op("contour", store_key("lz4", step), "v02", (0.5,))
    references = References(grids, {"t": [op]})
    good = contour_grid(grids[step], "v02", [0.5])
    assert good.num_points and references.check(op, good)
    bad = contour_grid(grids[step], "v02", [0.5])
    bad.set_points(np.asarray(bad.points) + 1e-6)
    assert not references.check(op, bad)


CONTRACT = json.loads(
    (runner.OUT_DIR.parents[1] / "BENCHMARK.json").read_text())


def test_contract_lists_the_workloads_with_their_reasons():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def reported(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def declared(section):
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


def test_run_is_correct_and_leaves_nothing_behind(monkeypatch):
    monkeypatch.setattr(runner, "build_store", SMALL)
    monkeypatch.setattr(runner, "SETUPS", 1)
    result = runner.run_workload("frame_pixels", seed=1, seconds=0.1, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 18
    assert reported(result) == declared("end_to_end")
    assert not list(runner.OUT_DIR.glob("store-*"))


def test_two_tenants_share_one_loop(monkeypatch):
    monkeypatch.setattr(runner, "build_store", SMALL)
    monkeypatch.setattr(runner, "SETUPS", 1)
    result = runner.run_workload("mixed_tenants", seed=1, seconds=0.1,
                                 trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 100 + 100


def test_traced_run_reports_every_declared_layer_metric(monkeypatch):
    monkeypatch.setattr(runner, "build_store", SMALL)
    monkeypatch.setattr(runner, "SETUPS", 1)
    result = runner.run_workload("isovalue_warm", seed=1, seconds=0.1, trace=True)
    assert result["correct"] and result["attempted"] == 3 * 48
    assert reported(result) == declared("per_layer")
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert value["storage.array_cache_hit_ratio"] == 1.0
    assert value["storage.selection_cache_hit_ratio"] == 0.25
    assert value["render.rasterize_ms_p50"] == 0.0
    trace = runner.OUT_DIR / "trace_isovalue_warm.jsonl"
    names = {span.name for spans_ in read_jsonl(str(trace)).values()
             for span in spans_}
    assert {"request", "rpc.call", "rpc.link", "rpc.tcp", "core.postfilter",
            "replay", "storage.read", "core.scan"} <= names


def test_corrupted_reference_fails_the_run(monkeypatch):
    monkeypatch.setattr(runner, "build_store", SMALL)
    monkeypatch.setattr(runner, "SETUPS", 1)
    build = References._build

    def corrupt(self, grid, op):
        points, triangles = build(self, grid, op)
        return points + 1e-6, triangles

    monkeypatch.setattr(References, "_build", corrupt)
    result = runner.run_workload("frame_pixels", seed=1, seconds=0.1, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 18


def test_server_is_killed_when_the_round_fails(tmp_path):
    SMALL(str(tmp_path))
    with pytest.raises(RuntimeError, match="boom"):
        with DefaultServer(str(tmp_path)) as server:
            port = server.port
            socket.create_connection((server.host, port)).close()
            raise RuntimeError("boom")
    assert server.process.poll() is not None
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=1)
