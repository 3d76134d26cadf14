"""Admission control: the counting gate, shed errors, and wire helpers.

Covers :mod:`repro.rpc.admission` — the controller semantics, the
deadline scopes, the client-side frame helpers — and the wire
compatibility contract: frames without a deadline and replies without an
overload error are byte-identical to the pre-admission protocol.
"""

import threading

import pytest

from repro.errors import (
    DeadlineExpiredError,
    RPCTransportError,
    ServerOverloadedError,
)
from repro.rpc import (
    InProcessTransport,
    ResilientTransport,
    RetryPolicy,
    RPCServer,
    pack,
    unpack,
)
from repro.rpc.admission import (
    AdmissionController,
    DeadlineScope,
    check_deadline,
    current_deadline,
    remaining_budget,
)
from repro.rpc.envelope import with_ctx

from tests.faults import FakeClock


class TestAdmissionController:
    def test_unlimited_counts_but_never_sheds(self):
        gate = AdmissionController(max_inflight=0)
        for _ in range(5):
            gate.acquire()
        info = gate.info()
        assert info["inflight"] == 5
        assert info["peak_inflight"] == 5
        assert info["shed"] == 0
        for _ in range(5):
            gate.release()
        assert gate.inflight == 0
        assert gate.info()["admitted"] == 5

    def test_sheds_immediately_when_full_and_no_queue(self):
        gate = AdmissionController(max_inflight=1, max_pending=0)
        gate.acquire()
        with pytest.raises(ServerOverloadedError) as excinfo:
            gate.acquire()
        # The hint crosses the string-only error channel *and* is typed.
        assert excinfo.value.retry_after == pytest.approx(0.05)
        assert "retry_after=0.05" in str(excinfo.value)
        assert isinstance(excinfo.value, RPCTransportError)  # retryable
        assert gate.info()["shed"] == 1
        gate.release()
        gate.acquire()  # slot free again
        gate.release()

    def test_pending_queue_admits_when_slot_frees(self):
        gate = AdmissionController(max_inflight=1, max_pending=1)
        gate.acquire()
        admitted = threading.Event()

        def waiter():
            gate.acquire()
            admitted.set()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        # The waiter parks in the pending queue rather than shedding.
        while gate.pending == 0:
            pass
        assert not admitted.is_set()
        # A third arrival finds the queue full and sheds.
        with pytest.raises(ServerOverloadedError, match="pending queue full"):
            gate.acquire()
        gate.release()
        assert admitted.wait(timeout=5.0)
        t.join(timeout=5.0)
        assert gate.inflight == 1
        gate.release()

    def test_queue_timeout_zero_sheds_queued_request(self):
        gate = AdmissionController(max_inflight=1, max_pending=1, queue_timeout=0.0)
        gate.acquire()
        with pytest.raises(ServerOverloadedError, match="queue wait timed out"):
            gate.acquire()
        assert gate.pending == 0  # the pending count was unwound
        gate.release()

    def test_context_manager_releases_on_error(self):
        gate = AdmissionController(max_inflight=1)
        with pytest.raises(RuntimeError):
            with gate:
                assert gate.inflight == 1
                raise RuntimeError("handler blew up")
        assert gate.inflight == 0

    def test_record_expired_shows_in_info(self):
        gate = AdmissionController(max_inflight=2)
        gate.record_expired()
        gate.record_expired()
        assert gate.info()["expired"] == 2

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=-1)


class TestDeadlineScope:
    def test_scope_tracks_budget_against_clock(self):
        clock = FakeClock()
        with DeadlineScope(2.0, clock=clock) as scope:
            assert current_deadline() is scope
            assert remaining_budget() == pytest.approx(2.0)
            clock.advance(1.5)
            assert remaining_budget() == pytest.approx(0.5)
            check_deadline("half way")  # still inside budget
            clock.advance(1.0)
            assert scope.expired()
            with pytest.raises(DeadlineExpiredError, match="before decompress"):
                check_deadline("decompress")
        assert current_deadline() is None

    def test_check_deadline_is_noop_outside_scope(self):
        assert remaining_budget() is None
        check_deadline("anything")  # must not raise

    def test_nested_scopes_innermost_wins(self):
        clock = FakeClock()
        with DeadlineScope(10.0, clock=clock):
            with DeadlineScope(1.0, clock=clock):
                clock.advance(2.0)
                with pytest.raises(DeadlineExpiredError):
                    check_deadline()
            # back to the outer scope: 8 s left
            check_deadline()


class TestInjectDeadline:
    def test_plain_request_gains_ctx_map(self):
        frame = pack([0, 7, "ping", []])
        out = unpack(with_ctx(frame, deadline=1.25))
        assert out == [0, 7, "ping", [], {"deadline": 1.25}]

    def test_existing_ctx_is_merged_not_replaced(self):
        frame = pack([0, 7, "ping", [], {"trace_id": "t", "span_id": "s"}])
        out = unpack(with_ctx(frame, deadline=0.5))
        assert out[4] == {"trace_id": "t", "span_id": "s", "deadline": 0.5}

    def test_negative_remaining_clamps_to_zero(self):
        out = unpack(with_ctx(pack([0, 1, "m", []]), deadline=-3.0))
        assert out[4]["deadline"] == 0.0

    @pytest.mark.parametrize(
        "payload",
        [
            pack([2, "notify_me", []]),          # NOTIFY: no response channel
            pack([1, 1, None, "a response"]),    # not a request
            pack({"not": "a frame"}),
            b"\xff\xfe not msgpack at all",
        ],
    )
    def test_non_request_frames_pass_through_untouched(self, payload):
        assert with_ctx(payload, deadline=1.0) == payload

    def test_no_deadline_means_byte_identical_wire(self):
        """The compat contract: not injecting leaves pre-PR bytes exact."""
        server = RPCServer({"ping": lambda: "pong"})
        frame = pack([0, 3, "ping", []])
        response = server.dispatch(frame)
        assert unpack(response) == [1, 3, None, "pong"]  # classic 4 elements


def shed_in_exchange(reply):
    """The shed a ``ResilientTransport`` finds inside one exchange."""
    transport = ResilientTransport(
        InProcessTransport(lambda _: reply), retry=RetryPolicy(max_attempts=1))
    try:
        transport.request(pack([0, 9, "m", []]))
    except ServerOverloadedError as exc:
        return exc
    return None


class TestSniffOverload:
    def _shed_reply(self) -> bytes:
        gate = AdmissionController(max_inflight=1)
        gate.acquire()
        try:
            gate.acquire()
        except ServerOverloadedError as exc:
            return pack([1, 9, f"ServerOverloadedError: {exc}", None])
        raise AssertionError("gate did not shed")

    def test_detects_shed_reply_and_parses_hint(self):
        shed = shed_in_exchange(self._shed_reply())
        assert isinstance(shed, ServerOverloadedError)
        assert shed.retry_after == pytest.approx(0.05)

    def test_normal_replies_are_not_overloads(self):
        assert shed_in_exchange(pack([1, 9, None, {"big": "result"}])) is None
        assert shed_in_exchange(pack([1, 9, "ValueError: nope", None])) is None
        assert shed_in_exchange(None) is None

    def test_marker_in_result_payload_is_not_an_overload(self):
        # The marker string appearing in *data* must not trigger shedding.
        reply = pack([1, 9, None, "docs about ServerOverloadedError"])
        assert shed_in_exchange(reply) is None

    def test_large_payloads_skip_the_scan(self):
        reply = pack([1, 9, None, b"x" * 1024 + b"ServerOverloadedError"])
        assert shed_in_exchange(reply) is None

    def test_garbage_bytes_are_ignored(self):
        assert shed_in_exchange(b"ServerOverloadedError \xff\xfe") is None


class TestServerSideAdmission:
    def test_shed_request_gets_typed_error_line(self):
        gate = AdmissionController(max_inflight=1)
        server = RPCServer({"ping": lambda: "pong"}, admission=gate)
        gate.acquire()  # simulate a busy slot
        try:
            response = unpack(server.dispatch(pack([0, 1, "ping", []])))
        finally:
            gate.release()
        assert response[2].startswith("ServerOverloadedError")
        assert "retry_after=" in response[2]
        # Afterwards the slot is free and the same frame succeeds.
        assert unpack(server.dispatch(pack([0, 2, "ping", []])))[2] is None
