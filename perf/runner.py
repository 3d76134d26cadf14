"""One run of one workload: set-up, rounds against fresh default servers,
verification, and the numbers.

A *round* is a fresh ``repro serve`` (default flags), the workload's untimed
warm-up, then one timed pass over the request lists: a single closed loop in
which the tenants, each on a connection of its own, take turns.  There is
never more than one request in flight — on a shared two-CPU host concurrent
loops measure the scheduler.  Rounds of a run are content-equal, and a new
one starts while less than ``seconds`` of timed work is spent.  Every output
is checked as it arrives, between two requests and outside the request's
clock.

The host only ever adds time to a request (a neighbour on the core's other
hyperthread, a stolen CPU), never takes any away, so a run reports each
request at its fastest round: what the program costs, not what the host did
to it during these seconds.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

from repro.rpc.client import RPCClient

from perf import layers, ops, spans
from perf.quantiles import median, percentile
from perf.replay import replay
from perf.server import DefaultServer
from perf.store import build_store, open_fs
from perf.verify import References
from perf.workloads import WORKLOADS, Workload

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUPS = 3           # set-up is repeated and its median reported
REPLAY_SAMPLE = 64   # at most this many ops per tenant are replayed a round
_FLOOR_CALLS = 20


def spin_seconds() -> float:
    """A fixed pure-Python loop: the host-noise witness beside each round."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - t0


def stolen_seconds() -> float:
    """CPU time the hypervisor has withheld from this VM so far, all CPUs
    (0.0 where /proc/stat has no steal column)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


@dataclass
class Round:
    wall: float = 0.0
    latencies: dict = field(default_factory=dict)  # tenant -> [seconds]
    failures: list = field(default_factory=list)   # (tenant, index)
    stats: tuple | None = None                    # (before, after) snapshots
    peak_rss_mb: float = 0.0
    floor_seconds: list = field(default_factory=list)
    spin: float = 0.0
    stolen: float = 0.0                           # share of the pass's CPU time


def turns(tenants: dict) -> list:
    """The order of one pass: a request of each tenant in turn, as
    ``(tenant, index, op)``, until every list is spent."""
    lists = ([(tenant, index, op) for index, op in enumerate(ops_list)]
             for tenant, ops_list in tenants.items())
    return [turn for group in zip_longest(*lists) for turn in group if turn]


def _executor(recorder, label: str):
    if not recorder:
        return lambda client, op, index: ops.run_op(client, op)

    def execute(client, op, index):
        recorder.request = f"{label}/{index}"
        return ops.run_op_traced(client, op, recorder)
    return execute


def run_round(store_dir: str, workload: Workload, tenants: dict, check,
              recorders: dict | None = None, label: str = "") -> Round:
    """One fresh server, warm-up, one timed pass; ``check(op, output)`` says
    whether an output is right.  With ``recorders`` (one per tenant) the pass
    runs the traced twin and the control connection snapshots ``stats``
    around it."""
    result = Round(spin=spin_seconds())
    named = len(tenants) > 1
    with DefaultServer(store_dir) as server, ExitStack() as connections:
        clients = {}
        for tenant in tenants:
            name = tenant if named else None
            clients[tenant] = connections.enter_context(
                ops.connect_traced(server, recorders[tenant], name)
                if recorders else ops.connect(server, name))
        if workload.warmup:
            # its own connection: the warm-up exists to fill the server's
            # caches and must leave no span behind
            warm = connections.enter_context(ops.connect(server))
            for op in workload.warmup:
                ops.run_op(warm, op)
        if recorders:
            control = connections.enter_context(
                RPCClient.connect_tcp(server.host, server.port))
            for _ in range(_FLOOR_CALLS):
                t0 = time.perf_counter()
                control.call("health")
                result.floor_seconds.append(time.perf_counter() - t0)
            before = control.call("stats")

        result.latencies = {tenant: [] for tenant in tenants}
        execute = {
            tenant: _executor(recorders and recorders[tenant],
                              f"{label}/{tenant}")
            for tenant in tenants
        }
        stolen0 = stolen_seconds()
        start = time.perf_counter()
        for tenant, index, op in turns(tenants):
            t0 = time.perf_counter()
            try:
                output = execute[tenant](clients[tenant], op, index)
            except Exception as exc:  # a failed request is a counted outcome
                traceback.print_exc(file=sys.stderr)
                output = exc
            result.latencies[tenant].append(time.perf_counter() - t0)
            if isinstance(output, Exception) or not check(op, output):
                result.failures.append((tenant, index))
        result.wall = time.perf_counter() - start
        result.stolen = ((stolen_seconds() - stolen0)
                         / (result.wall * os.cpu_count()))
        if recorders:
            result.stats = (before, control.call("stats"))
        result.peak_rss_mb = server.peak_rss_mb()
    return result


def fastest(rounds: list, tenant: str) -> list:
    """Per request of ``tenant``'s list, the fastest it was served in any
    round."""
    return [min(times) for times in
            zip(*(result.latencies[tenant] for result in rounds))]


def _sample(ops_list: list) -> list:
    stride = -(-len(ops_list) // REPLAY_SAMPLE)
    return list(enumerate(ops_list))[::stride]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the contract prints
    (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    workload = WORKLOADS[name]
    tenants = workload.build(seed)
    OUT_DIR.mkdir(exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix=f"store-{name}-", dir=OUT_DIR)
    try:
        setup_seconds = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            grids = build_store(store_dir)
            references = References(grids, tenants)
            setup_seconds.append(time.perf_counter() - t0)

        rounds: list[Round] = []
        traced: list[Round] = []
        recorders = {tenant: spans.Recorder() for tenant in tenants}
        replay_rec = spans.Recorder()
        fs = open_fs(store_dir)
        per_round = sum(map(len, tenants.values()))
        spent = 0.0
        # A traced run holds an untraced round too, the baseline of the
        # tracing-overhead ratio: second, between two traced ones, so that
        # neither the client's first-call costs nor a drifting host lean on it.
        while spent < seconds or (trace and len(rounds) < 3):
            tracing = trace and len(rounds) != 1
            label = f"{name}/{len(rounds)}"
            result = run_round(store_dir, workload, tenants, references.check,
                               recorders if tracing else None, label)
            rounds.append(result)
            spent += result.wall
            if tracing:
                traced.append(result)
                t0 = time.perf_counter()
                for tenant, ops_list in tenants.items():
                    for index, op in _sample(ops_list):
                        replay_rec.request = f"{label}/{tenant}/{index}"
                        replay(op, fs, replay_rec)
                spent += time.perf_counter() - t0

        stolen = max(r.stolen for r in rounds)
        if stolen > 0.05:
            print(f"note: the hypervisor withheld up to {stolen:.0%} of the "
                  f"CPU during a round of {name}; expect outliers",
                  file=sys.stderr)
        if trace:
            spans.write_jsonl({**recorders, spans.REPLAY: replay_rec},
                              str(OUT_DIR / f"trace_{name}.jsonl"))
            metrics = layers.layer_metrics(
                real=list(recorders.values()), replayed=replay_rec,
                rounds=traced, baseline=rounds[1],
                contour_grid_seconds=references.contour_grid_seconds,
            )
        else:
            best = {tenant: fastest(rounds, tenant) for tenant in tenants}
            # the percentiles are the first tenant's, the one with an
            # analyst waiting; a closed loop's time is its requests' time
            latencies_ms = [latency * 1e3
                            for latency in best[next(iter(tenants))]]
            metrics = {
                "setup_s": (median(setup_seconds), "s"),
                "req_per_s": (per_round / sum(map(sum, best.values())), "1/s"),
                "latency_p50_ms": (percentile(latencies_ms, 50), "ms"),
                "latency_p90_ms": (percentile(latencies_ms, 90), "ms"),
            }
        failed = sum(len(r.failures) for r in rounds)
        return {
            "correct": failed == 0,
            "attempted": per_round * len(rounds),
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
