"""Deadline scopes, shed replies, and wire helpers.

Covers :mod:`repro.rpc.admission` — the deadline scopes — the
client-side frame helpers, the typed shed line the fair queue answers
with, and the wire compatibility contract: frames without a deadline and
replies without an overload error are byte-identical to the
pre-admission protocol.
"""

import time

import pytest

from repro.errors import DeadlineExpiredError, ServerOverloadedError
from repro.rpc import (
    InProcessTransport,
    ResilientTransport,
    RetryPolicy,
    RPCServer,
    pack,
    unpack,
)
from repro.rpc.admission import (
    DeadlineScope,
    check_deadline,
    current_deadline,
)
from repro.rpc.envelope import overloaded_line, with_ctx
from repro.rpc.fairshare import FairScheduler

from tests.faults import FakeClock


class TestDeadlineScope:
    def test_scope_tracks_budget_against_clock(self):
        clock = FakeClock()
        with DeadlineScope(2.0, clock=clock) as scope:
            assert current_deadline() is scope
            assert scope.remaining() == pytest.approx(2.0)
            clock.advance(1.5)
            assert scope.remaining() == pytest.approx(0.5)
            check_deadline("half way")  # still inside budget
            clock.advance(1.0)
            assert scope.expired()
            with pytest.raises(DeadlineExpiredError, match="before decompress"):
                check_deadline("decompress")
        assert current_deadline() is None

    def test_check_deadline_is_noop_outside_scope(self):
        assert current_deadline() is None
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
        return pack([1, 9, overloaded_line("pending queue full", 0.05), None])

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
        server = RPCServer({"ping": lambda: "pong"})
        # Not started: the first request waits in the one queue slot.
        gate = FairScheduler(server.handle, workers=1, max_tenant_pending=1)
        replies = []
        gate.submit(pack([0, 1, "ping", []]), replies.append)
        gate.submit(pack([0, 2, "ping", []]), replies.append)
        (response,) = [unpack(raw) for raw in replies]
        assert response[1] == 2
        assert response[2].startswith("ServerOverloadedError")
        assert "retry_after=" in response[2]
        # Once the queue drains, the same frame succeeds.
        gate.start()
        try:
            gate.submit(pack([0, 3, "ping", []]), replies.append)
            assert _wait_for(lambda: len(replies) == 3)
        finally:
            gate.stop()
        assert sorted(unpack(raw)[1:] for raw in replies[1:]) == [
            [1, None, "pong"], [3, None, "pong"]]


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()
