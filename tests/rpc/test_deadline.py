"""Deadline propagation end-to-end: client injects, server enforces.

The budget rides the request envelope as a *duration* (seconds left), so
client and server clocks never need agreement; the server rejects
expired requests before touching the store and abandons doomed work
between phases.
"""

import threading

import pytest

from repro.core import NDPServer
from repro.errors import DeadlineExpiredError, RPCRemoteError
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient, RPCServer, pack, unpack
from repro.rpc.envelope import with_ctx
from repro.rpc.resilience import ResilientTransport, RetryPolicy
from repro.rpc.transport import TCPTransport, Transport
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid
from tests.faults import FakeClock, FaultSchedule, FaultyBackend


class DeadlineStamper(Transport):
    """Injects a fixed remaining budget into every outgoing frame."""

    def __init__(self, inner: Transport, remaining: float):
        self.inner = inner
        self.remaining = remaining

    def request(self, payload: bytes) -> bytes:
        return self.inner.request(with_ctx(payload, deadline=self.remaining))


class RecordingTransport(Transport):
    """Captures what ResilientTransport actually puts on the wire."""

    def __init__(self, dispatcher):
        self.dispatcher = dispatcher
        self.frames: list[bytes] = []

    def request(self, payload: bytes) -> bytes:
        self.frames.append(payload)
        return self.dispatcher(payload)


class TestServerEnforcement:
    def test_expired_on_arrival_is_rejected_before_handler(self):
        calls = []
        server = RPCServer({"work": lambda: calls.append(1)})
        reply = unpack(
            server.dispatch(pack([0, 1, "work", [], {"deadline": 0.0}]))
        )
        assert reply[2].startswith("DeadlineExpiredError")
        assert "nothing attempted" in reply[2]
        assert calls == []  # the handler never ran
        assert server.expired.value == 1

    def test_time_spent_queued_is_charged_to_the_deadline(self):
        """A 50 ms budget queued behind a 300 ms request has run out by
        the time a worker picks it up: it is refused, not run."""
        calls = []
        held, release = threading.Event(), threading.Event()

        def hold():
            held.set()
            release.wait(timeout=10.0)
            return "held"

        server = RPCServer({"hold": hold, "work": lambda: calls.append(1)})
        listener = server.serve_tcp(workers=1)
        holder = RPCClient(TCPTransport(listener.host, listener.port))
        client = RPCClient(DeadlineStamper(
            TCPTransport(listener.host, listener.port), remaining=0.05))
        try:
            thread = threading.Thread(target=holder.call, args=("hold",))
            thread.start()
            assert held.wait(timeout=5.0)
            threading.Timer(0.3, release.set).start()
            with pytest.raises(DeadlineExpiredError, match="nothing attempted"):
                client.call("work")
            thread.join(timeout=5.0)
        finally:
            release.set()
            holder.close()
            client.close()
            listener.stop()
        assert calls == []  # the handler never ran
        assert server.expired.value == 1

    def test_mid_phase_expiry_abandons_work(self):
        from repro.rpc.admission import check_deadline

        clock = FakeClock()

        def slow_handler():
            clock.advance(5.0)  # the work took longer than the budget
            check_deadline("phase two")
            return "never reached"

        server = RPCServer({"slow": slow_handler}, clock=clock)
        reply = unpack(
            server.dispatch(pack([0, 1, "slow", [], {"deadline": 1.0}]))
        )
        assert reply[2].startswith("DeadlineExpiredError")
        assert "phase two" in reply[2]

    def test_deadline_only_ctx_gets_classic_response(self):
        """A deadline opts into budgets, not into tracing."""
        from repro.obs.trace import Tracer

        server = RPCServer({"ping": lambda: "pong"}, tracer=Tracer())
        reply = unpack(
            server.dispatch(pack([0, 1, "ping", [], {"deadline": 9.0}]))
        )
        assert reply == [1, 1, None, "pong"]  # 4 elements, no span list

    def test_malformed_deadline_is_ignored(self):
        server = RPCServer({"ping": lambda: "pong"})
        reply = unpack(
            server.dispatch(pack([0, 1, "ping", [], {"deadline": "soon"}]))
        )
        assert reply[2] is None and reply[3] == "pong"


class TestClientMapping:
    def test_expired_request_raises_typed_error_at_client(self):
        server = RPCServer({"ping": lambda: "pong"})
        client = RPCClient(
            DeadlineStamper(InProcessTransport(server.dispatch), remaining=0.0)
        )
        with pytest.raises(DeadlineExpiredError, match="already expired"):
            client.call("ping")

    def test_expired_is_not_a_plain_remote_error(self):
        server = RPCServer({"ping": lambda: "pong"})
        client = RPCClient(
            DeadlineStamper(InProcessTransport(server.dispatch), remaining=0.0)
        )
        try:
            client.call("ping")
        except RPCRemoteError:
            pytest.fail("expired deadline must map to DeadlineExpiredError")
        except DeadlineExpiredError:
            pass


class TestResilientInjection:
    def test_remaining_budget_rides_the_envelope(self):
        server = RPCServer({"ping": lambda: "pong"})
        recorder = RecordingTransport(server.dispatch)
        clock = FakeClock()
        transport = ResilientTransport(
            recorder, retry=RetryPolicy(deadline=4.0), clock=clock,
            sleep=clock.sleep,
        )
        RPCClient(transport).call("ping")
        (frame,) = recorder.frames
        message = unpack(frame)
        assert len(message) == 5
        assert message[4]["deadline"] == pytest.approx(4.0)

    def test_propagation_can_be_disabled(self):
        server = RPCServer({"ping": lambda: "pong"})
        recorder = RecordingTransport(server.dispatch)
        transport = ResilientTransport(
            recorder, retry=RetryPolicy(deadline=4.0), propagate_deadline=False
        )
        RPCClient(transport).call("ping")
        assert len(unpack(recorder.frames[0])) == 4  # untouched frame

    def test_no_deadline_policy_means_no_injection(self):
        server = RPCServer({"ping": lambda: "pong"})
        recorder = RecordingTransport(server.dispatch)
        transport = ResilientTransport(recorder, retry=RetryPolicy(deadline=None))
        RPCClient(transport).call("ping")
        assert len(unpack(recorder.frames[0])) == 4


class TestNDPServerPhases:
    """An expired budget must be caught *before* the store is touched."""

    def _env(self):
        store = ObjectStore(MemoryBackend())
        store.create_bucket("sim")
        S3FileSystem(store, "sim").write_object(
            "g.vgf", write_vgf(make_sphere_grid(10), codec="gzip")
        )
        backend = FaultyBackend(store, FaultSchedule())
        server = NDPServer(S3FileSystem(backend, "sim"))
        return backend, server

    def test_expired_request_never_reads_the_store(self):
        backend, server = self._env()
        reply = unpack(server.dispatch(pack(
            [0, 1, "prefilter_contour", ["g.vgf", "r", [3.0]],
             {"deadline": 0.0}]
        )))
        assert reply[2].startswith("DeadlineExpiredError")
        assert backend.reads == 0

    def test_generous_budget_completes_normally(self):
        backend, server = self._env()
        reply = unpack(server.dispatch(pack(
            [0, 1, "prefilter_contour", ["g.vgf", "r", [3.0]],
             {"deadline": 60.0}]
        )))
        assert reply[2] is None
        assert backend.reads > 0
