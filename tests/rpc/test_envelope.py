"""The wire envelope against references built from a full decode.

``repro.rpc.envelope`` is the one place frames are built and read.  Its
full parses must agree with what ``unpack`` says the frame holds, its
prefix reads (``peek`` / ``peek_error``) must agree with the full parse
wherever they answer at all, and its splice (``with_ctx``) must produce
the bytes the per-module helpers it replaced produced — key order
included.  Its msgid swap (``swap_msgid``) must change the msgid and
nothing else, and swap back exactly.  For every input, well-formed or
mangled, the only exception
allowed out is :class:`FormatError`.

The fixed inputs are the cases the helper suites in ``test_mux``,
``test_fairshare``, ``test_admission``, ``test_deadline`` and
``test_forward`` exercised; Hypothesis adds generated frames and their
truncations and byte flips (CI runs this file under the derandomised
``envelope-ci`` profile, see ``tests/conftest.py``).
"""

import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NDPServer
from repro.edge import EdgeCacheServer
from repro.errors import (
    CircuitOpenError,
    DeadlineExpiredError,
    FormatError,
    IntegrityError,
    RPCError,
    RPCRemoteError,
    RPCTimeoutError,
    RPCTransportError,
    ServerOverloadedError,
)
from repro.rpc import RPCServer, TCPTransport, envelope, pack, unpack
from repro.rpc.envelope import (
    DEFAULT_TENANT,
    MAX_TENANT_LEN,
    NOTIFY,
    REQUEST,
    RESPONSE,
    parse_error,
    parse_request,
    parse_response,
    peek,
    peek_error,
    raise_remote,
    swap_msgid,
    with_ctx,
)
from repro.rpc.transport import read_frame, write_frame
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

# ---------------------------------------------------------------------------
# References: the frame as a full ``unpack`` sees it, and the splice the
# per-module helpers did before there was an envelope module.
# ---------------------------------------------------------------------------


def ref_message(payload):
    """The decoded frame, or ``None`` when it is not msgpack."""
    try:
        return unpack(payload)
    except FormatError:
        return None


def ref_request(payload):
    """(kind, msgid, method, params, ctx, tenant, deadline) per the frame
    table, or ``None`` for anything ``parse_request`` must flag."""
    m = ref_message(payload)
    if not isinstance(m, list) or not m or type(m[0]) is not int:
        return None
    if m[0] == NOTIFY and len(m) == 3:
        return (NOTIFY, None, m[1], m[2], None, DEFAULT_TENANT, None)
    if m[0] != REQUEST or len(m) not in (4, 5):
        return None
    ctx = m[4] if len(m) == 5 else None
    tenant, deadline = DEFAULT_TENANT, None
    if isinstance(ctx, dict):
        t = ctx.get("tenant")
        if isinstance(t, str) and 0 < len(t) <= MAX_TENANT_LEN:
            tenant = t
        try:
            deadline = float(ctx["deadline"])
        except (KeyError, TypeError, ValueError):
            deadline = None
    return (REQUEST, m[1], m[2], m[3], ctx, tenant, deadline)


def _is_uint(v):
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < 2**64


def ref_peek(payload):
    """(type, msgid) when the frame has the prefix ``peek`` promises."""
    m = ref_message(payload)
    if not isinstance(m, list) or not m or type(m[0]) is not int \
            or m[0] not in (REQUEST, RESPONSE, NOTIFY):
        return None
    if m[0] == NOTIFY:
        return (NOTIFY, None)
    if len(m) < 2 or not _is_uint(m[1]):
        return None
    return (m[0], m[1])


def legacy_splice(payload, key, value):
    """``fairshare.inject_tenant`` / ``admission.inject_deadline`` as they
    stood, but for two deliberate differences: a nil fifth element counts
    as no ctx (as it always has on the serving side), and the frame type
    must be the *int* 0, not ``False`` or ``0.0`` (which ``peek`` never
    accepted either)."""
    try:
        message = unpack(payload)
    except FormatError:
        return payload
    if (
        not isinstance(message, list)
        or len(message) not in (4, 5)
        or message[0] != REQUEST
        or type(message[0]) is not int
    ):
        return payload
    ctx = message[4] if len(message) == 5 and message[4] is not None else {}
    if not isinstance(ctx, dict):
        return payload
    merged = dict(ctx)
    merged[key] = max(0.0, float(value)) if key == "deadline" else value
    return pack([message[0], message[1], message[2], message[3], merged])


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def req(msgid, method="m", params=None, ctx=None):
    frame = [0, msgid, method, params or []]
    if ctx is not None:
        frame.append(ctx)
    return pack(frame)


TRACE = {"trace_id": "t", "span_id": "s"}
FULL_CTX = dict(TRACE, tenant="acme", deadline=1.5)
SHED_LINE = ("ServerOverloadedError: server at capacity (pending queue full: "
             "inflight=1/1, pending=0/0); retry_after=0.05")
LONG_SHED_LINE = ("ServerOverloadedError: tenant '" + "t" * 600 + "' over "
                  "fair-share capacity (pending=16/16); retry_after=0.05")

#: What the five helper suites fed their helpers, by where it came from.
CASES = {
    # test_mux.TestPeekFrame
    "fixint-msgid": pack([0, 7, "m", []]),
    **{f"wide-msgid-{n}": pack([1, n, None, "x"])
       for n in (0, 127, 128, 255, 256, 65535, 65536, 2**32 - 1, 2**32)},
    "notify": pack([2, "m", []]),
    "array16": b"\xdc\x00\x04" + pack(0) + pack(5) + pack("m") + pack([]),
    "array32": b"\xdd\x00\x00\x00\x04" + pack(1) + pack(5) + pack(None) + pack("x"),
    "signed-form-msgid": b"\x94\x01\xd0\x05\xc0" + pack("x"),
    "uint8-frame-type": b"\x94\xcc\x01\x05\xc0" + pack("x"),
    "str16-error": b"\x94\x01\x05\xda\x00\x04nope\xc0",
    "empty": b"",
    "nil": b"\xc0",
    "bare-array-header": b"\x93",
    "str": pack("hello"),
    "type-9": pack([9, 1, "m", []]),
    "4MB-result": pack([1, 42, None, b"\x00" * 4_000_000]),
    # test_fairshare.TestSniffRequest / TestInjectTenant
    "classic": req(3),
    "tenant+deadline": req(4, ctx={"tenant": "gold", "deadline": 1.0}),
    "garbage": b"\xc1garbage",
    "tenant-42": req(5, ctx={"tenant": 42}),
    "msgid--3": req(-3),
    "msgid-True": req(True),
    "params": req(1, "m", [7]),
    "deadline-ctx": req(1, ctx={"deadline": 2.0}),
    # test_admission.TestInjectDeadline / TestSniffOverload
    "ping": pack([0, 7, "ping", []]),
    "trace-ctx": pack([0, 7, "ping", [], TRACE]),
    "notify_me": pack([2, "notify_me", []]),
    "a-response": pack([1, 1, None, "a response"]),
    "map": pack({"not": "a frame"}),
    "not-msgpack": b"\xff\xfe not msgpack at all",
    "shed": pack([1, 9, SHED_LINE, None]),
    "big-result": pack([1, 9, None, {"big": "result"}]),
    "value-error": pack([1, 9, "ValueError: nope", None]),
    "marker-in-result": pack([1, 9, None, "docs about ServerOverloadedError"]),
    "marker-after-1KB": pack([1, 9, None, b"x" * 1024 + b"ServerOverloadedError"]),
    "marker-then-garbage": b"ServerOverloadedError \xff\xfe",
    # this PR's bug: a shed line longer than the old 512-byte scan cap
    "long-shed": pack([1, 7, LONG_SHED_LINE, None]),
    "long-tenant": req(8, ctx={"tenant": "t" * 600}),
    # test_forward.TestClassifyFrame
    "full-ctx": pack([0, 7, "m", [1, 2], FULL_CTX]),
    "notify-params": pack([2, "m", [1]]),
    "two-bytes": b"\xff\xfe",
    # shapes no helper suite had
    "notify-4": pack([2, "add", [1, 2], "extra"]),
    "request-3": pack([0, 1, "add"]),
    "request-6": pack([0, 1, "m", [], {}, "extra"]),
    "ctx-nil": pack([0, 1, "m", [], None]),
    "ctx-int": pack([0, 1, "m", [], 42]),
    "deadline-junk": req(1, ctx={"deadline": "soon"}),
    "error-int": pack([1, 1, 5, None]),
    "traced-reply": pack([1, 1, None, "ok", [{"name": "rpc.dispatch"}]]),
}

scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.floats(allow_nan=False), st.text(max_size=20), st.binary(max_size=20),
)
values = st.recursive(
    scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.text(max_size=8), kids, max_size=4)),
    max_leaves=10,
)
msgids = st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 300), values)
ctx_maps = st.fixed_dictionaries({}, optional={
    "tenant": st.one_of(st.text(max_size=80), values),
    "deadline": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-5, 5), values),
    "trace_id": st.one_of(st.text(max_size=16), st.none()),
    "span_id": st.text(max_size=16),
    "x-future": values,
})
errors = st.one_of(
    st.none(), st.text(max_size=700),
    st.sampled_from(sorted(envelope.TYPED_ERRORS)).map(
        lambda n: f"{n}: busy; retry_after=0.25"),
)
packed_frames = st.one_of(
    st.tuples(st.just(0), msgids, st.text(max_size=12),
              st.lists(values, max_size=3)).map(list),
    st.tuples(st.just(0), msgids, st.text(max_size=12),
              st.lists(values, max_size=3),
              st.one_of(ctx_maps, values)).map(list),
    st.tuples(st.just(1), msgids, errors, values).map(list),
    st.tuples(st.just(1), msgids, errors, values,
              st.lists(values, max_size=2)).map(list),
    st.tuples(st.just(2), st.text(max_size=12),
              st.lists(values, max_size=3)).map(list),
    st.lists(values, max_size=7),   # wrong arity, wrong type tag
    values,                          # not a frame at all
).map(pack)


def _be(n, width):
    return n.to_bytes(width, "big")


@st.composite
def wide_frames(draw):
    """A REQUEST or RESPONSE spelled with wider headers than ``pack``
    picks: ``array16`` / ``array32`` around 4-5 elements, the msgid as
    ``cc``-``cf`` or — non-negative still — as ``d0``-``d3``, the error
    line as ``str8`` / ``str16`` / ``str32``.  All of it decodes."""
    mtype = draw(st.sampled_from([REQUEST, RESPONSE]))
    width = draw(st.sampled_from([1, 2, 4, 8]))
    signed = draw(st.booleans())
    msgid = draw(st.integers(0, 2 ** (8 * width - signed) - 1))
    tag = {1: 0xCC, 2: 0xCD, 4: 0xCE, 8: 0xCF}[width] + (4 if signed else 0)
    body = bytes([mtype, tag]) + _be(msgid, width)
    if mtype == REQUEST:
        body += pack(draw(st.text(max_size=12))) + pack(draw(st.lists(values, max_size=3)))
    else:
        line = draw(st.none() | st.text(max_size=40))
        if line is None:
            body += pack(None)
        else:
            raw = line.encode()
            w = draw(st.sampled_from([1, 2, 4]))
            body += bytes([{1: 0xD9, 2: 0xDA, 4: 0xDB}[w]]) + _be(len(raw), w) + raw
        body += pack(draw(values))
    n = 4
    if draw(st.booleans()):  # ctx / spans
        body += pack(draw(st.one_of(ctx_maps, st.lists(values, max_size=2))))
        n = 5
    head = draw(st.sampled_from([b"\xdc" + _be(n, 2), b"\xdd" + _be(n, 4)]))
    return head + body


frames = st.one_of(packed_frames, wide_frames())


@st.composite
def mangled(draw):
    """A packed frame, truncated or with one byte flipped."""
    payload = draw(frames)
    if not payload or draw(st.booleans()):
        return payload[:draw(st.integers(0, len(payload)))]
    i = draw(st.integers(0, len(payload) - 1))
    return payload[:i] + bytes([payload[i] ^ draw(st.integers(1, 255))]) \
        + payload[i + 1:]


# ---------------------------------------------------------------------------
# The differential checks
# ---------------------------------------------------------------------------


def check_parse_request(payload):
    got = parse_request(payload)  # never raises
    assert got.raw == payload
    want = ref_request(payload)
    if want is None:
        assert got.error is not None
        assert got.kind in (None, NOTIFY)
        return
    assert got.error is None
    # repr: equal values, and a NaN deadline still compares equal
    assert repr((got.kind, got.msgid, got.method, got.params, got.ctx,
                 got.tenant, got.deadline)) == repr(want)


def check_peek(payload):
    m = ref_message(payload)
    try:
        got = peek(payload)
    except FormatError:
        # Whatever decodes to a frame with a non-negative int msgid must
        # be routed, mangled or not and however wide its headers: only a
        # msgid of another *type* (or sign) excuses a refusal.
        assert not ref_peek(payload)
        return
    if m is not None:  # damage past the prefix is not peek's to see
        assert got == ref_peek(payload)


def check_peek_error(payload):
    m = ref_message(payload)
    try:
        got = peek_error(payload)
    except FormatError:
        # Likewise: only an error element that is neither nil nor a str.
        ok = (isinstance(m, list) and len(m) >= 3 and ref_peek(payload)
              and m[0] == RESPONSE and (m[2] is None or isinstance(m[2], str)))
        assert not ok, "refused a well-formed response"
        return
    assert got is None or isinstance(got, str)
    if m is not None:
        assert m[0] == RESPONSE and got == m[2]


def check_with_ctx(payload):
    assert with_ctx(payload, tenant="gold") == \
        legacy_splice(payload, "tenant", "gold")
    for remaining in (1.25, -3.0):
        assert with_ctx(payload, deadline=remaining) == \
            legacy_splice(payload, "deadline", remaining)


def check_swap_msgid(payload):
    try:
        mtype = peek(payload)[0]
    except FormatError:
        mtype = None
    if mtype in (None, NOTIFY):  # no msgid to swap
        with pytest.raises(FormatError):
            swap_msgid(payload, pack(7))
        return
    swapped_type, swapped, token = swap_msgid(payload, pack(7))
    assert swapped_type == mtype
    assert peek(swapped) == (mtype, 7)
    assert swap_msgid(swapped, token) == (mtype, payload, pack(7))
    m = ref_message(payload)
    if m is not None:  # a full decode sees the msgid change and nothing else
        assert repr(unpack(swapped)) == repr([m[0], 7] + m[2:])


CHECKS = [check_parse_request, check_peek, check_peek_error, check_with_ctx,
          check_swap_msgid]


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__[6:])
@pytest.mark.parametrize("name", CASES)
def test_helper_suite_inputs(name, check):
    check(CASES[name])


@given(payload=frames)
@settings(deadline=None)
def test_packed_frames_agree_with_a_full_decode(payload):
    for check in CHECKS:
        check(payload)


@given(payload=mangled())
@settings(deadline=None)
def test_mangled_frames_agree_or_raise_format_error(payload):
    for check in CHECKS:
        check(payload)


@given(payload=st.binary(max_size=48))
@settings(deadline=None)
def test_arbitrary_bytes_raise_nothing_but_format_error(payload):
    for check in CHECKS:
        check(payload)
    try:
        parse_response(payload)
    except (FormatError, RPCError):
        pass


# ---------------------------------------------------------------------------
# What the helper suites asserted beyond agreement
# ---------------------------------------------------------------------------


class TestPrefixReads:
    def test_peek_is_independent_of_payload_size(self):
        t0 = time.perf_counter()
        assert peek(CASES["4MB-result"]) == (1, 42)
        assert time.perf_counter() - t0 < 0.01  # O(1), not O(payload)

    def test_truncated_wide_msgid_is_refused_not_misread(self):
        frame = pack([1, 2**32, None, "x"])
        with pytest.raises(FormatError):
            peek(frame[:5])

    def test_peek_error_reads_a_line_of_any_length(self):
        assert peek_error(CASES["long-shed"]) == LONG_SHED_LINE
        assert parse_error(LONG_SHED_LINE) == (ServerOverloadedError, 0.05)

    def test_peek_error_never_looks_at_the_result(self):
        assert peek_error(CASES["marker-in-result"]) is None
        # A result that is not even msgpack does not matter to the prefix.
        assert peek_error(pack([1, 9, None, None])[:-1] + b"\xc1") is None


class TestCtx:
    def test_tenant_is_capped(self):
        at_cap = parse_request(req(1, ctx={"tenant": "t" * MAX_TENANT_LEN}))
        assert at_cap.tenant == "t" * MAX_TENANT_LEN
        for bad in ("t" * (MAX_TENANT_LEN + 1), "", 42, None, ["gold"]):
            assert parse_request(req(1, ctx={"tenant": bad})).tenant == \
                DEFAULT_TENANT

    def test_splice_keeps_key_order_and_appends(self):
        out = unpack(with_ctx(CASES["trace-ctx"], deadline=0.5, tenant="gold"))
        assert list(out[4]) == ["trace_id", "span_id", "deadline", "tenant"]
        again = unpack(with_ctx(pack(out), deadline=0.25))
        assert list(again[4]) == list(out[4]) and again[4]["deadline"] == 0.25

    def test_trace_ctx_needs_a_trace_id(self):
        assert parse_request(CASES["full-ctx"]).trace_ctx == FULL_CTX
        for ctx in ({"tenant": "gold"}, {"trace_id": None}, 42, None):
            assert parse_request(req(1, ctx=ctx)).trace_ctx is None


class TestErrorLines:
    @pytest.mark.parametrize("cls", [
        ServerOverloadedError, DeadlineExpiredError, IntegrityError,
        CircuitOpenError, RPCTimeoutError, RPCTransportError])
    def test_typed_lines_round_trip(self, cls):
        line = envelope.error_line(cls("because"))
        assert parse_error(line)[0] is cls
        with pytest.raises(cls) as caught:
            raise_remote("work", line)
        assert type(caught.value) is cls and line in str(caught.value)

    def test_everything_else_is_a_remote_error(self):
        for line in ("ValueError: nope", "no such method: 'x'", "",
                     "ServerOverloadedErrorish: close but no",
                     "prefix ServerOverloadedError: not at the start"):
            assert parse_error(line) == (None, None)
            with pytest.raises(RPCRemoteError):
                raise_remote("work", line)

    def test_overloaded_line_carries_the_hint_back(self):
        line = envelope.overloaded_line("tenant 'x' over capacity", 0.125)
        assert line == ("ServerOverloadedError: tenant 'x' over capacity; "
                        "retry_after=0.125")
        assert parse_error(line) == (ServerOverloadedError, 0.125)
        assert parse_error("ServerOverloadedError: busy") == \
            (ServerOverloadedError, None)
        # The hint only means something on an overload line.
        assert parse_error("RPCTimeoutError: x; retry_after=3") == \
            (RPCTimeoutError, None)


# ---------------------------------------------------------------------------
# One decode per hop
# ---------------------------------------------------------------------------


@pytest.fixture
def decodes(monkeypatch):
    """Frame type of every full ``unpack`` the envelope performs."""
    seen = []
    real = envelope.unpack

    def counting(payload, **kwargs):
        message = real(payload, **kwargs)
        seen.append(message[0] if isinstance(message, list) and message else None)
        return message

    monkeypatch.setattr(envelope, "unpack", counting)
    return seen


def _ndp():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    return NDPServer(S3FileSystem(store, "sim"))


def _exchange(listener, frame):
    sock = socket.create_connection((listener.host, listener.port), timeout=10.0)
    try:
        write_frame(sock, frame)
        return read_frame(sock)
    finally:
        sock.close()


def test_serve_decodes_a_request_once(decodes):
    listener = _ndp().serve_tcp()
    try:
        raw = _exchange(listener, req(1, "list_objects", [""], ctx=FULL_CTX))
    finally:
        listener.stop()
    assert decodes == [REQUEST]
    assert unpack(raw)[:3] == [1, 1, None]


def test_serve_edge_decodes_a_request_once_per_hop(decodes):
    upstream = _ndp().serve_tcp()
    edge = EdgeCacheServer(
        [TCPTransport(upstream.host, upstream.port, timeout=10.0)])
    listener = edge.serve_tcp()
    try:
        raw = _exchange(listener, req(1, "list_objects", [""], ctx=FULL_CTX))
        assert decodes == [REQUEST, REQUEST]  # the edge, then the NDP server
        assert unpack(raw)[:3] == [1, 1, None]
        del decodes[:]
        # A method the edge answers itself is decoded by the edge alone.
        _exchange(listener, req(2, "stats"))
        assert decodes == [REQUEST]
    finally:
        edge.close()
        upstream.stop()


def test_a_32MB_reply_is_routed_without_a_decode(decodes):
    blob = b"\x07" * (32 << 20)
    listener = RPCServer({"read_array": lambda: blob}).serve_tcp()
    transport = TCPTransport(listener.host, listener.port, timeout=60.0)
    try:
        raw = transport.request(req(5, "read_array"))
    finally:
        transport.close()
        listener.stop()
    assert decodes == [REQUEST]  # server intake; nothing unpacked the reply
    assert len(raw) > len(blob) and peek(raw) == (RESPONSE, 5)
