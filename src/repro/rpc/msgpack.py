"""From-scratch MessagePack encoder/decoder.

Implements the complete MessagePack specification
(https://github.com/msgpack/msgpack/blob/master/spec.md):

========================  =========================================
Python type               wire families
========================  =========================================
``None``                  nil
``bool``                  true / false
``int``                   fixint, uint8..uint64, int8..int64
``float``                 float64 (decoder also reads float32)
``str``                   fixstr, str8/16/32
``bytes`` / bytearray     bin8/16/32
``list`` / ``tuple``      fixarray, array16/32
``dict``                  fixmap, map16/32
:class:`ExtType`          fixext1/2/4/8/16, ext8/16/32
========================  =========================================

Encoding always picks the smallest representation, as the spec recommends.
The decoder is strict: truncated input, trailing garbage (in
:func:`unpack`), invalid UTF-8 in str payloads, and unknown first bytes
all raise :class:`~repro.errors.FormatError`.

Large binary payloads (the NDP wire format's array buffers) ride in
bin32, so NumPy buffers round-trip without any per-element cost.
"""

from __future__ import annotations

import functools
import struct
from typing import Any, NamedTuple

from repro.errors import FormatError

__all__ = ["pack", "unpack", "Unpacker", "ExtType", "Timestamp"]


class ExtType(NamedTuple):
    """A MessagePack extension value: an application type code plus bytes."""

    code: int
    data: bytes


class Timestamp(NamedTuple):
    """The msgpack timestamp extension (type -1): seconds + nanoseconds.

    The spec's three encodings are all supported: 32-bit (whole seconds in
    uint32 range), 64-bit (34-bit seconds + 30-bit nanoseconds), and
    96-bit (full int64 seconds + uint32 nanoseconds).
    """

    seconds: int
    nanoseconds: int = 0

    def encode(self) -> bytes:
        if not 0 <= self.nanoseconds < 1_000_000_000:
            raise FormatError(
                f"nanoseconds must be in [0, 1e9), got {self.nanoseconds}"
            )
        if self.nanoseconds == 0 and 0 <= self.seconds <= 0xFFFFFFFF:
            return self.seconds.to_bytes(4, "big")
        if 0 <= self.seconds < (1 << 34):
            packed = (self.nanoseconds << 34) | self.seconds
            return packed.to_bytes(8, "big")
        if not -(1 << 63) <= self.seconds < (1 << 63):
            raise FormatError(f"seconds {self.seconds} out of int64 range")
        return self.nanoseconds.to_bytes(4, "big") + self.seconds.to_bytes(
            8, "big", signed=True
        )

    @classmethod
    def decode(cls, data: bytes) -> "Timestamp":
        if len(data) == 4:
            return cls(int.from_bytes(data, "big"), 0)
        if len(data) == 8:
            packed = int.from_bytes(data, "big")
            return cls(packed & ((1 << 34) - 1), packed >> 34)
        if len(data) == 12:
            return cls(
                int.from_bytes(data[4:], "big", signed=True),
                int.from_bytes(data[:4], "big"),
            )
        raise FormatError(f"timestamp ext payload must be 4/8/12 bytes, got {len(data)}")


#: The spec-reserved extension type code for timestamps.
_TIMESTAMP_EXT = -1


# ---------------------------------------------------------------------------
# The format table
# ---------------------------------------------------------------------------

UINT, SINT, FLOAT, STR, BIN, EXT, ARRAY, MAP = (
    "uint", "int", "float", "str", "bin", "ext", "array", "map")
NIL, FALSE, TRUE = "nil", "false", "true"

#: One row per MessagePack format, ``(first, last, kind, nbytes, fixed)``
#: — the only description of the byte format in ``src/``; the decoder,
#: the encoder and the envelope's prefix reads all go through it.  A
#: first byte in ``first..last`` opens a value of ``kind`` whose number N
#: is ``nbytes`` big-endian bytes after it (two's complement for
#: ``SINT``) or, with no such bytes, ``fixed`` when the row names one and
#: otherwise the first byte's offset into the row.  N is an int's value,
#: the payload length of a str / bin / ext / float, the element count of
#: an array and the pair count of a map.
FORMATS = (
    (0x00, 0x7F, UINT, 0, None),   # positive fixint
    (0x80, 0x8F, MAP, 0, None),    # fixmap
    (0x90, 0x9F, ARRAY, 0, None),  # fixarray
    (0xA0, 0xBF, STR, 0, None),    # fixstr
    (0xC0, 0xC0, NIL, 0, None),
    # 0xC1 is never used
    (0xC2, 0xC2, FALSE, 0, None),
    (0xC3, 0xC3, TRUE, 0, None),
    (0xC4, 0xC4, BIN, 1, None),
    (0xC5, 0xC5, BIN, 2, None),
    (0xC6, 0xC6, BIN, 4, None),
    (0xC7, 0xC7, EXT, 1, None),
    (0xC8, 0xC8, EXT, 2, None),
    (0xC9, 0xC9, EXT, 4, None),
    (0xCA, 0xCA, FLOAT, 0, 4),
    (0xCB, 0xCB, FLOAT, 0, 8),
    (0xCC, 0xCC, UINT, 1, None),
    (0xCD, 0xCD, UINT, 2, None),
    (0xCE, 0xCE, UINT, 4, None),
    (0xCF, 0xCF, UINT, 8, None),
    (0xD0, 0xD0, SINT, 1, None),
    (0xD1, 0xD1, SINT, 2, None),
    (0xD2, 0xD2, SINT, 4, None),
    (0xD3, 0xD3, SINT, 8, None),
    (0xD4, 0xD4, EXT, 0, 1),       # fixext 1 / 2 / 4 / 8 / 16
    (0xD5, 0xD5, EXT, 0, 2),
    (0xD6, 0xD6, EXT, 0, 4),
    (0xD7, 0xD7, EXT, 0, 8),
    (0xD8, 0xD8, EXT, 0, 16),
    (0xD9, 0xD9, STR, 1, None),
    (0xDA, 0xDA, STR, 2, None),
    (0xDB, 0xDB, STR, 4, None),
    (0xDC, 0xDC, ARRAY, 2, None),
    (0xDD, 0xDD, ARRAY, 4, None),
    (0xDE, 0xDE, MAP, 2, None),
    (0xDF, 0xDF, MAP, 4, None),
    (0xE0, 0xFF, SINT, 0, None),   # negative fixint: the byte, as an int8
)


def _expand():
    """``FORMATS`` as the decoder and the encoder read it: ``(kind,
    nbytes, N when the first byte settles it)`` per first byte, and per
    kind the rows as ``(lowest N, highest N, first, nbytes)``, narrowest
    first."""
    by_first = [(None, 0, 0)] * 256
    by_kind = {}
    for first, last, kind, nbytes, fixed in FORMATS:
        if nbytes:
            lo = -(1 << (8 * nbytes - 1)) if kind is SINT else 0
            hi = lo + (1 << (8 * nbytes)) - 1
        elif fixed is not None:
            lo = hi = fixed
        else:
            lo = first - 0x100 if kind is SINT else 0
            hi = lo + last - first
        for byte in range(first, last + 1):
            by_first[byte] = (kind, nbytes, lo + byte - first)
        by_kind.setdefault(kind, []).append((lo, hi, first, nbytes))
    for rows in by_kind.values():
        rows.sort(key=lambda row: row[3])
    return tuple(by_first), by_kind


_BY_FIRST, _BY_KIND = _expand()
_CONSTANTS = {NIL: None, FALSE: False, TRUE: True}
_FLOAT_STRUCT = {4: ">f", 8: ">d"}

# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _head(kind: str, n: int) -> bytes:
    """The narrowest header of ``kind`` whose N can be ``n`` — the spec's
    "smallest representation", read off the decoder's own rows."""
    for lo, hi, first, nbytes in _BY_KIND[kind]:
        if lo <= n <= hi:
            if nbytes:
                return bytes((first,)) + n.to_bytes(nbytes, "big", signed=lo < 0)
            return bytes((first + n - lo,))
    raise FormatError(f"{n} is out of range for every MessagePack {kind} format")


_CONSTANT_HEADS = {value: _head(kind, 0) for kind, value in _CONSTANTS.items()}
_FLOAT64 = _head(FLOAT, 8)
_pack_double = struct.Struct(">d").pack


def _pack_bin(out: bytearray, v) -> None:
    if isinstance(v, memoryview):
        # Zero-copy framing: flatten a contiguous view to a byte view
        # and append it straight into the output buffer — no intermediate
        # ``bytes(v)`` materialization.  Non-contiguous views can't be
        # appended as-is, so they pay one gather copy.
        if v.contiguous:
            if v.format != "B" or v.ndim != 1:
                v = v.cast("B")
        else:
            v = v.tobytes()
    out += _head(BIN, len(v))
    out += v


def _pack_ext(out: bytearray, v: ExtType) -> None:
    if not -128 <= v.code <= 127:
        raise FormatError(f"ext code {v.code} out of int8 range")
    data = bytes(v.data)
    out += _head(EXT, len(data))
    out.append(v.code & 0xFF)
    out += data


def _pack_any(out: bytearray, v: Any) -> None:
    # Tested in the order this wire meets them: map keys first.
    if isinstance(v, str):
        data = v.encode("utf-8")
        out += _head(STR, len(data))
        out += data
    elif v is None or v is True or v is False:  # not ``in``: 1 == True
        out += _CONSTANT_HEADS[v]
    elif isinstance(v, int):
        out += _head(UINT if v >= 0 else SINT, v)
    elif isinstance(v, float):
        out += _FLOAT64 + _pack_double(v)
    elif isinstance(v, dict):
        out += _head(MAP, len(v))
        for key, item in v.items():
            _pack_any(out, key)
            _pack_any(out, item)
    elif isinstance(v, (bytes, bytearray, memoryview)):
        _pack_bin(out, v)
    elif isinstance(v, Timestamp):
        _pack_ext(out, ExtType(_TIMESTAMP_EXT, v.encode()))
    elif isinstance(v, ExtType):
        _pack_ext(out, v)
    elif isinstance(v, (list, tuple)):
        out += _head(ARRAY, len(v))
        for item in v:
            _pack_any(out, item)
    else:
        raise FormatError(
            f"type {type(v).__name__} is not MessagePack-serializable"
        )


def pack(value: Any) -> bytes:
    """Serialize ``value`` to MessagePack bytes."""
    out = bytearray()
    _pack_any(out, value)
    return bytes(out)


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


class Unpacker:
    """Streaming MessagePack decoder over a bytes-like buffer.

    Call :meth:`unpack_one` repeatedly to read consecutive values;
    :attr:`offset` tracks the cursor.

    With ``zero_copy=True`` bin payloads are returned as
    :class:`memoryview` slices into the *input* buffer instead of copied
    ``bytes``: ``np.frombuffer`` over such a slice views the original
    frame with no per-payload copy.  The views keep the input buffer
    alive; everything else (strs, ints, ext payloads, map keys) still
    decodes to ordinary owned objects.  Off by default — bin payloads
    decode to ``bytes``, exactly as before.
    """

    #: Guard against pathological nesting in untrusted input.
    MAX_DEPTH = 256

    def __init__(self, data, zero_copy: bool = False):
        self.zero_copy = bool(zero_copy)
        if self.zero_copy:
            mv = data if isinstance(data, memoryview) else memoryview(data)
            if mv.format != "B" or mv.ndim != 1:
                mv = mv.cast("B")
            self._data = mv
        else:
            self._data = bytes(data)
        self.offset = 0

    # -- low-level reads ------------------------------------------------
    def _take(self, n: int):
        # Slicing bytes copies; slicing the zero-copy memoryview does not.
        start = self.offset
        end = start + n
        if end > len(self._data):
            raise FormatError(
                f"truncated MessagePack data: need {n} bytes at offset "
                f"{start}, have {len(self._data) - start}"
            )
        self.offset = end
        return self._data[start:end]

    def header(self) -> tuple[str, int]:
        """Read the next value's header — ``(kind, N)`` as ``FORMATS``
        defines them — and stop there: an int is then fully read, a
        str / bin / ext / float has its N payload bytes still ahead (an
        ext its type byte first) and an array / map its N elements /
        pairs."""
        first = self._take(1)[0]
        kind, nbytes, n = _BY_FIRST[first]
        if nbytes:
            n = int.from_bytes(self._take(nbytes), "big", signed=kind is SINT)
        elif kind is None:
            raise FormatError(f"invalid MessagePack first byte 0x{first:02x}")
        return kind, n

    # -- value decoding ---------------------------------------------------
    def unpack_one(self, _depth: int = 0) -> Any:
        """Decode and return the next value."""
        if _depth > self.MAX_DEPTH:
            raise FormatError("MessagePack nesting exceeds MAX_DEPTH")
        kind, n = self.header()
        if kind is UINT or kind is SINT:
            return n
        if kind is STR:
            try:
                # str(buffer, encoding) decodes bytes and memoryview alike.
                return str(self._take(n), "utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"invalid UTF-8 in str payload: {exc}") from exc
        if kind is BIN:
            return self._take(n)
        if kind is ARRAY:
            return [self.unpack_one(_depth + 1) for _ in range(n)]
        if kind is MAP:
            return self._map(n, _depth)
        if kind is FLOAT:
            return struct.unpack(_FLOAT_STRUCT[n], self._take(n))[0]
        if kind is EXT:
            return self._ext(n)
        return _CONSTANTS[kind]

    def _ext(self, n: int):
        code = int.from_bytes(self._take(1), "big", signed=True)
        # Ext payloads are tiny and ride in hashable NamedTuples: always
        # own them, even in zero-copy mode.
        data = bytes(self._take(n))
        if code == _TIMESTAMP_EXT:
            return Timestamp.decode(data)
        return ExtType(code, data)

    def _map(self, n: int, depth: int) -> dict:
        out = {}
        for _ in range(n):
            key = self.unpack_one(depth + 1)
            if type(key) is memoryview:
                # Keys are owned too: a view over a writable buffer does
                # not hash, and a bin key must equal the bytes it spells.
                key = bytes(key)
            try:
                out[key] = self.unpack_one(depth + 1)
            except TypeError as exc:
                raise FormatError(f"unhashable map key {key!r}") from exc
        return out

    @property
    def exhausted(self) -> bool:
        return self.offset >= len(self._data)


def unpack(data, zero_copy: bool = False) -> Any:
    """Deserialize exactly one value; trailing bytes are an error.

    ``zero_copy=True`` returns bin payloads as :class:`memoryview` slices
    of ``data`` (see :class:`Unpacker`).
    """
    up = Unpacker(data, zero_copy=zero_copy)
    value = up.unpack_one()
    if not up.exhausted:
        raise FormatError(
            f"{len(data) - up.offset} trailing bytes after MessagePack value"
        )
    return value
