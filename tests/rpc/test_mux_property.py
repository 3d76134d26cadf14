"""Property test: pipelined TCP calls ≡ in-process dispatch.

For an arbitrary batch of requests — mixed methods, params, and ctx
flavors (plain, deadline-carrying, tenant-tagged, traced) — issuing them
pipelined over one TCP connection and collecting the results in an
arbitrary interleaved order must return exactly what the same frames
produce when dispatched one at a time in process.

Responses without trace context must match **byte for byte** (the wire
msgids the connection puts on each frame are swapped back, so the
listener and the client together speak the classic protocol exactly);
traced responses carry server-side span summaries whose timings
legitimately vary, so for those the comparison is on the four protocol
elements (type, msgid, error, result) instead of the raw bytes.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import Tracer
from repro.rpc import RPCServer, pack, unpack
from repro.rpc.transport import InProcessTransport, TCPTransport

_settings = settings(max_examples=20, deadline=None)


def handlers():
    return {
        "echo": lambda x: x,
        "add": lambda a, b: a + b,
        "cat": lambda a, b: a + b,
        "blob": lambda n: bytes(range(256)) * n,
        "sleep_ms": lambda ms, tag: (time.sleep(ms / 1000.0), tag)[1],
        "boom": lambda: 1 / 0,
    }


CTX_NONE, CTX_DEADLINE, CTX_TENANT, CTX_TRACE = range(4)

_scalar = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=12),
    st.binary(max_size=32),
    st.booleans(),
    st.none(),
)

_op = st.one_of(
    st.tuples(st.just("echo"), st.tuples(_scalar)),
    st.tuples(st.just("add"),
              st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000))),
    st.tuples(st.just("cat"), st.tuples(st.text(max_size=8),
                                        st.text(max_size=8))),
    st.tuples(st.just("blob"), st.tuples(st.integers(0, 64))),
    st.tuples(st.just("sleep_ms"),
              st.tuples(st.integers(0, 5), st.integers(0, 99))),
    st.tuples(st.just("boom"), st.tuples()),
)

_plan = st.lists(
    st.tuples(_op, st.sampled_from([CTX_NONE, CTX_DEADLINE, CTX_TENANT,
                                    CTX_TRACE])),
    min_size=1, max_size=12,
)


def build_frames(plan) -> list:
    frames = []
    for i, ((method, params), ctx_kind) in enumerate(plan):
        frame = [0, i + 1, method, list(params)]
        if ctx_kind == CTX_DEADLINE:
            frame.append({"deadline": 30.0})
        elif ctx_kind == CTX_TENANT:
            frame.append({"tenant": "prop"})
        elif ctx_kind == CTX_TRACE:
            # Fixed ids keep the request frames identical across runs;
            # only the *response* spans vary.
            frame.append({"trace_id": "t" * 16, "span_id": "s" * 8,
                          "deadline": 30.0})
        frames.append((pack(frame), ctx_kind == CTX_TRACE))
    return frames


class TestMuxEquivalence:
    @classmethod
    def setup_class(cls):
        cls.server = RPCServer(handlers(), tracer=Tracer(process="server"))
        cls.listener = cls.server.serve_tcp(workers=4)

    @classmethod
    def teardown_class(cls):
        cls.listener.stop()

    @_settings
    @given(plan=_plan, seed=st.randoms(use_true_random=False))
    def test_interleaved_pipeline_matches_sequential_legacy(self, plan, seed):
        frames = build_frames(plan)

        reference = InProcessTransport(self.server.dispatch)
        want = [reference.request(payload) for payload, _ in frames]

        mux = TCPTransport(self.listener.host, self.listener.port,
                           timeout=30.0)
        try:
            futures = [mux.submit(payload) for payload, _ in frames]
            # Collect in an arbitrary interleaved order: correlation ids,
            # not arrival order, pair responses with requests.
            order = list(range(len(futures)))
            seed.shuffle(order)
            got = [None] * len(futures)
            for i in order:
                got[i] = futures[i].result(timeout=30.0)
            assert mux.pending == 0
        finally:
            mux.close()

        for (payload, traced), w, g in zip(frames, want, got):
            if traced:
                assert unpack(g)[:4] == unpack(w)[:4]
            else:
                assert g == w  # byte-identical classic responses
