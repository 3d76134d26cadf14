"""Proxied-hop fidelity: frames, ctx, trace spans, and typed errors.

A forwarding hop (the edge tier) must be invisible at the protocol
level: request frames reach the upstream byte-identical (tenant,
deadline, and trace ctx included — no key dropped, no re-encode), the
reply travels back verbatim for untraced calls, and traced calls gain
exactly one ``via``-tagged span in the reply's span list.  Typed error
lines (circuit open, timeout, transport) must survive the error channel
so client-side fallback policies fire through a proxy exactly as they
do on a direct connection.
"""

import pytest

from repro.errors import (
    CircuitOpenError,
    RPCError,
    RPCRemoteError,
    RPCTimeoutError,
    RPCTransportError,
)
from repro.obs.trace import Tracer
from repro.rpc import InProcessTransport, RPCClient, RPCServer
from repro.rpc.envelope import NOTIFY, REQUEST, parse_request
from repro.rpc.forward import ForwardingHandler
from repro.rpc.msgpack import pack, unpack


class RecordingTransport(InProcessTransport):
    def __init__(self, dispatcher):
        super().__init__(dispatcher)
        self.frames = []
        self.notifies = []
        self.down = False

    def request(self, payload):
        if self.down:
            raise RPCTransportError("down")
        self.frames.append(bytes(payload))
        return super().request(payload)

    def send(self, payload):
        if self.down:
            raise RPCTransportError("down")
        self.notifies.append(bytes(payload))
        super().send(payload)


class TestClassifyFrame:
    def test_request_with_ctx(self):
        ctx = {"trace_id": "t", "span_id": "s", "tenant": "acme",
               "deadline": 1.5}
        req = parse_request(pack([0, 7, "m", [1, 2], ctx]))
        assert (req.kind, req.msgid, req.method, req.params) == \
            (REQUEST, 7, "m", [1, 2])
        assert req.ctx == ctx

    def test_classic_request(self):
        req = parse_request(pack([0, 1, "m", []]))
        assert (req.kind, req.ctx) == (REQUEST, None)

    def test_notify_and_garbage(self):
        assert parse_request(pack([2, "m", [1]])).kind == NOTIFY
        assert parse_request(b"\xff\xfe").kind is None
        assert parse_request(pack({"not": "a frame"})).kind is None


class TestByteFidelity:
    def test_request_and_reply_relayed_verbatim(self):
        server = RPCServer({"echo": lambda x: x})
        upstream = RecordingTransport(server.dispatch)
        fwd = ForwardingHandler([upstream])
        frame = pack([0, 42, "echo", ["hello"]])
        out = fwd.forward(frame)
        assert upstream.frames == [frame]
        assert out == server.dispatch(frame)

    def test_full_ctx_reaches_upstream_unmutated(self):
        seen = {}

        def dispatch(payload):
            message = unpack(payload)
            seen["ctx"] = message[4] if len(message) == 5 else None
            return pack([1, message[1], None, "ok"])

        upstream = RecordingTransport(dispatch)
        fwd = ForwardingHandler([upstream])
        ctx = {"trace_id": "abc", "span_id": "def", "deadline": 2.5,
               "tenant": "acme", "hedge": True, "custom_key": [1, 2]}
        frame = pack([0, 1, "work", [], ctx])
        fwd.forward(frame)
        # every ctx key — including ones this code has never heard of —
        # arrives exactly as sent
        assert seen["ctx"] == ctx
        assert upstream.frames == [frame]

    def test_notify_relayed(self):
        got = []
        server = RPCServer({"note": lambda x: got.append(x)})
        upstream = RecordingTransport(server.dispatch)
        fwd = ForwardingHandler([upstream])
        frame = pack([2, "note", ["hi"]])
        assert fwd.forward(frame) is None
        assert got == ["hi"]
        assert upstream.notifies == [frame]


class TestFailover:
    def test_advances_past_dead_upstreams(self):
        server = RPCServer({"ping": lambda: "pong"})
        dead = RecordingTransport(server.dispatch)
        dead.down = True
        live = RecordingTransport(server.dispatch)
        counters = {}

        class Counter:
            def __init__(self):
                self.n = 0

            def inc(self, v=1):
                self.n += v

        counters = {"forwards": Counter(), "upstream_errors": Counter()}
        fwd = ForwardingHandler([dead, live], counters=counters)
        out = unpack(fwd.forward(pack([0, 1, "ping", []])))
        assert out[3] == "pong"
        assert counters["upstream_errors"].n == 1
        assert counters["forwards"].n == 1

    def test_raises_last_error_when_all_down(self):
        dead = RecordingTransport(lambda p: p)
        dead.down = True
        fwd = ForwardingHandler([dead, dead])
        with pytest.raises(RPCTransportError):
            fwd.forward(pack([0, 1, "ping", []]))

    def test_remote_handler_errors_not_failed_over(self):
        def boom():
            raise ValueError("bad input")

        first = RecordingTransport(RPCServer({"work": boom}).dispatch)
        second = RecordingTransport(
            RPCServer({"work": lambda: "ok"}).dispatch)
        fwd = ForwardingHandler([first, second])
        out = unpack(fwd.forward(pack([0, 1, "work", []])))
        assert out[2] is not None and "ValueError" in out[2]
        assert second.frames == []  # a request error is not retried

    def test_needs_at_least_one_upstream(self):
        with pytest.raises(RPCError):
            ForwardingHandler([])


class TestTracedForwarding:
    def test_via_span_joins_the_merged_tree(self):
        server_tracer = Tracer(process="server")
        server = RPCServer({"work": lambda x: x * 2}, tracer=server_tracer)
        upstream = RecordingTransport(server.dispatch)
        edge_tracer = Tracer(process="edge")
        fwd = ForwardingHandler([upstream], tracer=edge_tracer, via="edge")
        client_tracer = Tracer(process="client")
        client = RPCClient(InProcessTransport(fwd.forward),
                           tracer=client_tracer)
        assert client.call("work", 21) == 42

        spans = {s.name: s for s in client_tracer.finished()}
        assert {"rpc.call", "rpc.forward", "rpc.dispatch"} <= set(spans)
        call = spans["rpc.call"]
        forward = spans["rpc.forward"]
        # one trace: the proxy span is a child of the client's call and
        # tagged with where the hop happened
        assert forward.trace_id == call.trace_id
        assert forward.parent_id == call.span_id
        assert forward.attrs.get("via") == "edge"
        assert forward.process == "edge"
        assert spans["rpc.dispatch"].process == "server"
        # the request frame itself still went upstream verbatim
        request = unpack(upstream.frames[0])
        assert request[4]["trace_id"] == call.trace_id

    def test_untraced_request_stays_pure_relay(self):
        server = RPCServer({"ping": lambda: "pong"})
        upstream = RecordingTransport(server.dispatch)
        fwd = ForwardingHandler([upstream], tracer=Tracer(process="edge"))
        frame = pack([0, 3, "ping", []])
        out = fwd.forward(frame)
        # no ctx -> no span grafting -> bytes equal to a direct call
        assert out == server.dispatch(frame)


class TestTypedErrorChannel:
    def _client_against(self, error_line):
        def dispatch(payload):
            message = unpack(payload)
            return pack([1, message[1], error_line, None])

        return RPCClient(InProcessTransport(dispatch))

    def test_circuit_open_line_maps_to_typed_exception(self):
        client = self._client_against("CircuitOpenError: breaker open")
        with pytest.raises(CircuitOpenError):
            client.call("work")

    def test_timeout_line_maps_to_typed_exception(self):
        client = self._client_against("RPCTimeoutError: no response in 2s")
        with pytest.raises(RPCTimeoutError):
            client.call("work")

    def test_transport_line_maps_to_typed_exception(self):
        client = self._client_against("RPCTransportError: connection reset")
        with pytest.raises(RPCTransportError):
            client.call("work")

    def test_other_lines_stay_remote_errors(self):
        client = self._client_against("ValueError: nope")
        with pytest.raises(RPCRemoteError):
            client.call("work")


class TestCallCtx:
    def test_ctx_extra_rides_the_fifth_element(self):
        seen = {}

        def dispatch(payload):
            message = unpack(payload)
            seen["ctx"] = message[4] if len(message) == 5 else None
            return pack([1, message[1], None, "ok"])

        client = RPCClient(InProcessTransport(dispatch), tenant="acme")
        client.call("work", ctx_extra={"failover": True})
        assert seen["ctx"] == {"tenant": "acme", "failover": True}

    def test_plain_call_stays_classic_four_element(self):
        seen = {}

        def dispatch(payload):
            seen["len"] = len(unpack(payload))
            message = unpack(payload)
            return pack([1, message[1], None, "ok"])

        RPCClient(InProcessTransport(dispatch)).call("work")
        assert seen["len"] == 4
