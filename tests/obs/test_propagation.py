"""Cross-process trace propagation over the real TCP transport.

The acceptance test for the tracing subsystem: a traced client calling a
traced server over an actual socket must end up holding ONE merged span
tree — the server's ``rpc.dispatch`` subtree grafted under the client's
``rpc.call`` span with correct parent ids — and the extended envelope
must stay compatible with untraced peers in both directions.
"""

import threading

from repro.rpc import RPCClient, RPCServer, pack, unpack
from repro.obs import Tracer


def serve(handlers, tracer=None):
    srv = RPCServer(handlers, tracer=tracer)
    listener = srv.serve_tcp()
    return srv, listener


class TestMergedTreeOverTCP:
    def test_single_call_yields_one_merged_tree(self):
        server_tracer = Tracer(process="server")

        def work(x):
            with server_tracer.span("store.read", key="obj"):
                with server_tracer.span("decompress"):
                    pass
            return x * 2

        srv, listener = serve({"work": work}, tracer=server_tracer)
        client_tracer = Tracer(process="client")
        try:
            cli = RPCClient.connect_tcp(listener.host, listener.port,
                                        tracer=client_tracer)
            try:
                assert cli.call("work", 21) == 42
            finally:
                cli.close()
        finally:
            listener.stop()

        spans = {s.name: s for s in client_tracer.finished()}
        # The client holds the WHOLE tree: its own span plus the adopted
        # server subtree, all under one trace id.
        assert set(spans) == {"rpc.call", "rpc.dispatch", "store.read",
                              "decompress"}
        call = spans["rpc.call"]
        assert call.parent_id is None
        assert {s.trace_id for s in spans.values()} == {call.trace_id}
        assert spans["rpc.dispatch"].parent_id == call.span_id
        assert spans["store.read"].parent_id == spans["rpc.dispatch"].span_id
        assert spans["decompress"].parent_id == spans["store.read"].span_id
        # Processes survive adoption so exporters can split the tracks.
        assert call.process == "client"
        assert spans["store.read"].process == "server"
        # Rebasing put the server subtree inside the client's rpc.call
        # window (midpoint alignment; sub-call durations fit inside it).
        assert spans["rpc.dispatch"].start_wall >= call.start_wall
        assert spans["rpc.dispatch"].end_wall <= call.end_wall

    def test_two_calls_yield_two_distinct_traces(self):
        server_tracer = Tracer(process="server")
        srv, listener = serve({"ping": lambda: "pong"}, tracer=server_tracer)
        client_tracer = Tracer(process="client")
        try:
            cli = RPCClient.connect_tcp(listener.host, listener.port,
                                        tracer=client_tracer)
            try:
                cli.call("ping")
                cli.call("ping")
            finally:
                cli.close()
        finally:
            listener.stop()
        trace_ids = {s.trace_id for s in client_tracer.finished()}
        assert len(trace_ids) == 2

    def test_concurrent_traced_calls_do_not_cross_wires(self):
        server_tracer = Tracer(process="server")

        def work(tag):
            with server_tracer.span("inner", tag=tag):
                pass
            return tag

        srv, listener = serve({"work": work}, tracer=server_tracer)
        tracers = [Tracer(process=f"client{i}") for i in range(4)]
        errors = []

        def one(i):
            try:
                cli = RPCClient.connect_tcp(listener.host, listener.port,
                                            tracer=tracers[i])
                try:
                    for _ in range(5):
                        assert cli.call("work", i) == i
                finally:
                    cli.close()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            listener.stop()
        assert errors == []
        for i, tracer in enumerate(tracers):
            inners = [s for s in tracer.finished() if s.name == "inner"]
            # Each client adopted exactly its own 5 dispatch subtrees,
            # with its own tag — no leakage between connections.
            assert len(inners) == 5
            assert {s.attrs.get("tag") for s in inners} == {i}
            calls = {s.span_id: s for s in tracer.finished()
                     if s.name == "rpc.call"}
            for s in tracer.finished():
                if s.name == "rpc.dispatch":
                    assert s.parent_id in calls


class TestCompat:
    def test_old_style_request_against_traced_server(self):
        """A plain 4-element frame (pre-tracing client) still dispatches,
        and the response stays 4 elements — no surprise payload for a
        client that cannot parse it."""
        tracer = Tracer(process="server")

        def work():
            with tracer.span("inner"):
                pass
            return "ok"

        srv = RPCServer({"work": work}, tracer=tracer)
        response = unpack(srv.dispatch(pack([0, 7, "work", []])))
        assert response == [1, 7, None, "ok"]

    def test_untraced_client_sends_plain_frames_over_tcp(self):
        seen = []
        srv = RPCServer({"echo": lambda x: x})
        original = srv.handle

        def spy(req):
            seen.append(unpack(req.raw))
            return original(req)

        srv.handle = spy
        listener = srv.serve_tcp()
        try:
            cli = RPCClient.connect_tcp(listener.host, listener.port)
            try:
                assert cli.call("echo", "x") == "x"
            finally:
                cli.close()
        finally:
            listener.stop()
        [frame] = seen
        assert len(frame) == 4  # byte-compatible with the old protocol

    def test_traced_client_against_untraced_server(self):
        """A server without a tracer ignores the context element and
        returns a plain response; the client's local span still records."""
        client_tracer = Tracer(process="client")
        srv = RPCServer({"add": lambda a, b: a + b})  # no tracer
        listener = srv.serve_tcp()
        try:
            cli = RPCClient.connect_tcp(listener.host, listener.port,
                                        tracer=client_tracer)
            try:
                assert cli.call("add", 2, 3) == 5
            finally:
                cli.close()
        finally:
            listener.stop()
        [span] = client_tracer.finished()
        assert span.name == "rpc.call"
        assert span.attrs["method"] == "add"

    def test_remote_error_still_ships_server_spans(self):
        """Spans from a failing dispatch ride back on the error response,
        so the trace shows WHERE the failure happened."""
        import pytest

        from repro.errors import RPCRemoteError

        server_tracer = Tracer(process="server")

        def fail():
            with server_tracer.span("store.read"):
                raise ValueError("corrupt object")

        srv = RPCServer({"fail": fail}, tracer=server_tracer)
        client_tracer = Tracer(process="client")
        cli = RPCClient.in_process(srv, tracer=client_tracer)
        with pytest.raises(RPCRemoteError, match="corrupt object"):
            cli.call("fail")
        spans = {s.name: s for s in client_tracer.finished()}
        assert "store.read" in spans
        assert spans["store.read"].error == "ValueError: corrupt object"
        assert spans["rpc.dispatch"].error == "ValueError: corrupt object"
        assert spans["rpc.call"].error  # client span marked too
