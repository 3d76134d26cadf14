"""Hypothesis property tests: MessagePack round trips over the type lattice."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.rpc import ExtType, Timestamp, pack, unpack

from tests.rpc.test_msgpack_corpus import owned

# Scalars msgpack represents exactly.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=80),
    st.binary(max_size=120),
    # Ext code -1 is reserved by the spec for timestamps (decoded as
    # Timestamp, not ExtType), so exclude it from raw ExtType generation.
    st.builds(
        ExtType,
        st.integers(-128, 127).filter(lambda c: c != -1),
        st.binary(max_size=40),
    ),
    st.builds(
        Timestamp,
        st.integers(-(2**63), 2**63 - 1),
        st.integers(0, 999_999_999),
    ),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(
            st.one_of(st.text(max_size=10), st.integers(-1000, 1000),
                      st.binary(max_size=10)),
            children,
            max_size=6,
        ),
    ),
    max_leaves=25,
)

# Every way a caller can hand the decoder a frame: copied or viewed, over
# a read-only or a writable buffer.
decode_modes = st.tuples(st.booleans(), st.sampled_from([bytes, bytearray]))


@given(value=values, mode=decode_modes)
@settings(max_examples=300, deadline=None)
def test_round_trip(value, mode):
    zero_copy, buffer = mode
    assert owned(unpack(buffer(pack(value)), zero_copy=zero_copy)) == value


@given(value=values)
@settings(max_examples=100, deadline=None)
def test_deterministic_encoding(value):
    assert pack(value) == pack(value)


@given(data=st.binary(max_size=64), mode=decode_modes)
@settings(max_examples=200, deadline=None)
def test_decoder_never_crashes_on_garbage(data, mode):
    """Arbitrary bytes either decode or raise FormatError — no other
    exception type may escape."""
    zero_copy, buffer = mode
    try:
        unpack(buffer(data), zero_copy=zero_copy)
    except FormatError:
        pass
