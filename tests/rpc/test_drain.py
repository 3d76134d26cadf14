"""Graceful drain and overload survival over a real TCP listener.

Two families:

* drain semantics — in-flight requests finish inside the drain window,
  new connections are refused the moment draining starts, and ``stop``
  returns within its timeout even when a handler wedges;
* the stampede (marked ``chaos``) — a thundering herd against a small
  worker pool and a short fair queue keeps concurrency bounded, sheds
  the excess as typed retryable errors, and a resilient client rides the sheds to success
  without duplicating store reads beyond the single-flight guarantee.
"""

import threading
import time

import pytest

from repro.core import NDPServer, ndp_contour
from repro.errors import RPCTransportError, ServerOverloadedError
from repro.io import write_vgf
from repro.rpc import RPCClient, RPCServer, pack
from repro.rpc.fairshare import FairScheduler
from repro.rpc.resilience import ResilientTransport, RetryPolicy
from repro.rpc.mux import AsyncServerTransport
from repro.rpc.transport import InProcessTransport, TCPTransport
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid
from tests.faults import FaultSchedule, FaultyBackend


class TestGracefulDrain:
    def test_inflight_request_finishes_while_new_connections_refused(self):
        started = threading.Event()
        release = threading.Event()

        def slow():
            started.set()
            release.wait(timeout=10.0)
            return "done"

        server = RPCServer({"slow": slow, "ping": lambda: "pong"})
        listener = server.serve_tcp()
        result = {}

        def call():
            client = RPCClient(TCPTransport(listener.host, listener.port))
            try:
                result["value"] = client.call("slow")
            finally:
                client.close()

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        assert started.wait(timeout=5.0)

        stop_result = {}
        stopper = threading.Thread(
            target=lambda: stop_result.update(clean=listener.stop(drain_timeout=10.0)),
            daemon=True,
        )
        stopper.start()
        deadline = time.monotonic() + 5.0
        while not listener.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        assert listener.draining

        # The listener socket is already closed: no new client gets
        # *served*.  The kernel may still complete a handshake into the
        # dying listen backlog, but nothing ever accepts it — either the
        # connect is refused outright or the first request on it fails.
        with pytest.raises(RPCTransportError):
            late = TCPTransport(listener.host, listener.port, timeout=2.0)
            try:
                late.request(pack([0, 99, "ping", []]))
            finally:
                late.close()

        release.set()  # let the in-flight request finish
        stopper.join(timeout=10.0)
        caller.join(timeout=10.0)
        assert stop_result["clean"] is True
        assert result["value"] == "done"  # the in-flight caller was served

    def test_stop_returns_within_drain_timeout_when_handler_wedges(self):
        wedge = threading.Event()
        started = threading.Event()

        def stuck():
            started.set()
            wedge.wait(timeout=30.0)
            return "eventually"

        server = RPCServer({"stuck": stuck})
        listener = server.serve_tcp()
        transport = TCPTransport(listener.host, listener.port)
        # Fire the request without waiting for its (never-coming) reply.
        raw = threading.Thread(
            target=lambda: _swallow(lambda: transport.request(
                pack([0, 1, "stuck", []])
            )),
            daemon=True,
        )
        raw.start()
        assert started.wait(timeout=5.0)
        t0 = time.monotonic()
        clean = listener.stop(drain_timeout=0.3)
        elapsed = time.monotonic() - t0
        wedge.set()
        assert clean is False  # forced, and it says so
        assert elapsed < 5.0   # did not wait out the 30 s wedge

    def test_connection_cap_refuses_excess_clients(self):
        block = threading.Event()
        entered = threading.Event()

        def hold():
            entered.set()
            block.wait(timeout=10.0)
            return "held"

        server = RPCServer({"hold": hold})
        listener = AsyncServerTransport(
            server.handle, max_connections=1
        ).start()
        first = TCPTransport(listener.host, listener.port)
        holder = threading.Thread(
            target=lambda: _swallow(
                lambda: first.request(pack([0, 1, "hold", []]))
            ),
            daemon=True,
        )
        holder.start()
        assert entered.wait(timeout=5.0)
        # Second connection is accepted by the OS then closed by the cap.
        with pytest.raises(RPCTransportError):
            second = TCPTransport(listener.host, listener.port)
            second.request(pack([0, 2, "hold", []]))
        assert listener.refused >= 1
        block.set()
        holder.join(timeout=5.0)
        listener.stop(drain_timeout=2.0)


def _swallow(fn):
    try:
        fn()
    except Exception:
        pass


@pytest.mark.chaos
class TestStampede:
    """Thundering herd against a small server: bounded, shed, recovered."""

    N_CLIENTS = 8
    WORKERS = 2

    def test_concurrency_bounded_and_sheds_are_retryable(self):
        lock = threading.Lock()
        state = {"inflight": 0, "peak": 0}

        def slow():
            with lock:
                state["inflight"] += 1
                state["peak"] = max(state["peak"], state["inflight"])
            time.sleep(0.05)
            with lock:
                state["inflight"] -= 1
            return "ok"

        server = RPCServer({"slow": slow})
        listener = server.serve_tcp(scheduler=FairScheduler(
            server.handle, workers=self.WORKERS, max_tenant_pending=1))
        sheds = []
        successes = []

        def bare_client():
            client = RPCClient(TCPTransport(listener.host, listener.port))
            try:
                successes.append(client.call("slow"))
            except ServerOverloadedError as exc:
                sheds.append(exc)
            finally:
                client.close()

        threads = [
            threading.Thread(target=bare_client) for _ in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        listener.stop(drain_timeout=2.0)

        assert state["peak"] <= self.WORKERS  # the gate held the line
        assert listener.scheduler.admission_info()["peak_inflight"] \
            <= self.WORKERS
        assert successes  # somebody got through
        if sheds:  # under load, excess arrivals got the typed hint
            assert all(s.retry_after for s in sheds)

    def test_resilient_clients_ride_sheds_to_success(self):
        def slow():
            time.sleep(0.02)
            return "ok"

        server = RPCServer({"slow": slow})
        listener = server.serve_tcp(scheduler=FairScheduler(
            server.handle, workers=1, max_tenant_pending=1, retry_after=0.01))
        results = []

        def resilient_client():
            transport = ResilientTransport(
                TCPTransport(listener.host, listener.port),
                retry=RetryPolicy(max_attempts=30, base_delay=0.01,
                                  max_delay=0.05, deadline=20.0),
            )
            client = RPCClient(transport)
            try:
                results.append(client.call("slow"))
            finally:
                client.close()

        threads = [threading.Thread(target=resilient_client) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        listener.stop(drain_timeout=2.0)
        assert results == ["ok"] * 6  # every caller eventually served

    def test_stampede_does_not_duplicate_store_reads(self):
        """Identical concurrent requests coalesce: the store is read as if
        a single cold request had run (single-flight + caches), even with
        sheds and retries in the mix."""
        blob = write_vgf(make_sphere_grid(10), codec="gzip")

        def build():
            store = ObjectStore(MemoryBackend())
            store.create_bucket("sim")
            S3FileSystem(store, "sim").write_object("g.vgf", blob)
            backend = FaultyBackend(store, FaultSchedule())
            server = NDPServer(
                S3FileSystem(backend, "sim"),
                cache_bytes=8 * 2**20, selection_cache_bytes=8 * 2**20,
            )
            return backend, server

        # Reference: how many store reads one cold request costs.
        ref_backend, ref_server = build()
        ref_client = RPCClient(InProcessTransport(ref_server.dispatch))
        ndp_contour(ref_client, "g.vgf", "r", [3.0])
        cold_reads = ref_backend.reads

        backend, server = build()
        listener = server.serve_tcp(workers=self.WORKERS, tenant_pending=1)
        failures = []

        def client_run():
            transport = ResilientTransport(
                TCPTransport(listener.host, listener.port),
                retry=RetryPolicy(max_attempts=30, base_delay=0.01,
                                  max_delay=0.05, deadline=20.0),
            )
            client = RPCClient(transport)
            try:
                pd, _ = ndp_contour(client, "g.vgf", "r", [3.0])
                assert pd.num_points > 0
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=client_run) for _ in range(self.N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        listener.stop(drain_timeout=2.0)
        assert not failures
        assert backend.reads == cold_reads  # zero duplicated reads
