"""Chaos: connections killed mid-pipeline must leak nothing.

Marked ``chaos`` (runs in its own CI job).  Several multiplexed clients
pipeline batches of slow requests while a scripted killer severs their
sockets mid-flight — which connections die, and after how many of their
requests are in the air, comes from a seeded
:class:`tests.faults.FaultSchedule`, so a failing run replays exactly.

The invariants under assault:

* **no orphaned futures** — every submitted future completes (result or
  transport error); ``TCPTransport.pending`` returns to zero,
* **no leaked admission slots** — the fair queue's inflight/pending
  counters return to zero once the dust settles,
* **graceful drain still works** — ``stop(drain_timeout)`` completes
  within its window after the carnage.
"""

import threading
import time

import pytest

from repro.errors import RPCTransportError
from repro.rpc import RPCServer, pack
from repro.rpc.fairshare import FairScheduler
from repro.rpc.transport import TCPTransport

from tests.faults import Drop, FaultSchedule

pytestmark = pytest.mark.chaos

CLIENTS = 6
REQUESTS = 25


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestKillMidPipeline:
    def run_assault(self, seed: int):
        server = RPCServer(
            {"work": lambda ms, i: (time.sleep(ms / 1000.0), i)[1]},
        )
        listener = server.serve_tcp(scheduler=FairScheduler(
            server.handle, workers=4, max_tenant_pending=64))
        gate = listener.scheduler

        # One scripted decision per client: Drop = kill that client's
        # socket mid-pipeline, Ok = leave it alone.  Seeded => replayable.
        schedule = FaultSchedule.random(seed, CLIENTS, drop=0.5, delay=0.0)
        transports = []
        outcomes = {"ok": 0, "failed": 0, "submitted": 0}
        lock = threading.Lock()

        def client(idx: int, kill: bool):
            transport = TCPTransport(listener.host, listener.port,
                                     timeout=15.0)
            with lock:
                transports.append(transport)
            futures = []
            for i in range(REQUESTS):
                try:
                    futures.append(
                        transport.submit(pack([0, i + 1, "work", [5, i]]))
                    )
                except RPCTransportError:
                    continue  # severed at submit time: no future exists
                if kill and i == REQUESTS // 2:
                    # Sever the socket with half the pipeline in flight.
                    transport._sock.shutdown(2)
            with lock:
                outcomes["submitted"] += len(futures)
            for fut in futures:
                try:
                    fut.result(timeout=15.0)
                    with lock:
                        outcomes["ok"] += 1
                except Exception:
                    with lock:
                        outcomes["failed"] += 1

        threads = [
            threading.Thread(
                target=client, args=(i, isinstance(schedule.next(), Drop)),
                daemon=True,
            )
            for i in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive(), "client thread wedged"

        kills = sum(1 for a in schedule.log if isinstance(a, Drop))

        # Every future completed one way or the other — none orphaned.
        assert outcomes["ok"] + outcomes["failed"] == outcomes["submitted"]
        for transport in transports:
            assert transport.pending == 0
        if kills:
            assert outcomes["failed"] > 0  # the kills actually bit
        assert outcomes["ok"] > 0          # survivors actually served

        # Admission slots all returned: nothing leaked server-side.
        assert wait_until(
            lambda: gate.inflight == 0 and gate.pending == 0
        ), gate.admission_info()

        # Graceful drain completes within its window post-carnage.
        t0 = time.monotonic()
        clean = listener.stop(drain_timeout=5.0)
        assert clean is True
        assert time.monotonic() - t0 < 5.0

        for transport in transports:
            transport.close()
        return outcomes, kills

    @pytest.mark.parametrize("seed", [7, 23, 4242])
    def test_no_leaks_after_mid_pipeline_kills(self, seed):
        self.run_assault(seed)

    def test_all_connections_killed_still_drains(self):
        """Even with every client severed, counters zero out and the
        listener drains cleanly."""
        server = RPCServer(
            {"work": lambda ms, i: (time.sleep(ms / 1000.0), i)[1]},
        )
        listener = server.serve_tcp(scheduler=FairScheduler(
            server.handle, workers=2, max_tenant_pending=64))
        gate = listener.scheduler
        transports = []
        for c in range(4):
            transport = TCPTransport(listener.host, listener.port,
                                     timeout=10.0)
            transports.append(transport)
            futures = [
                transport.submit(pack([0, i + 1, "work", [10, i]]))
                for i in range(10)
            ]
            transport._sock.shutdown(2)
            for fut in futures:
                with pytest.raises(Exception):
                    fut.result(timeout=10.0)
            assert transport.pending == 0

        assert wait_until(
            lambda: gate.inflight == 0 and gate.pending == 0
        ), gate.admission_info()
        assert listener.stop(drain_timeout=5.0) is True
        for transport in transports:
            transport.close()
