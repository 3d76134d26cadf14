"""A recorded decode / re-encode corpus for the MessagePack codec.

``msgpack_corpus.json`` was recorded at the last commit whose decoder
was a hand-unrolled first-byte ladder, from the seeded generator below:
for each frame, what ``unpack`` returned (as ``repr``) and what ``pack``
made of that value again, or the exception class and message it raised.
The table-driven codec that replaced the ladder must replay it exactly,
in both ``zero_copy`` modes.  It covers every format row at its boundary
lengths (0, 15/16, 31/32, 255/256, 65535/65536) under every header
width that can carry them, every int form, float32, every ext and
``Timestamp`` width, nesting at ``MAX_DEPTH`` and one past it, the
unassigned first byte, and each of those with its last byte cut off and
with one byte flipped.

Long runs are squeezed textually (``<00*65535>`` is ``"00" * 65535``) so
the 64 KiB boundaries cost a line, not a megabyte.

Re-record (``python -m tests.rpc.test_msgpack_corpus``) only when the
wire is *meant* to change: a re-record blesses whatever the codec does.
"""

import json
import pathlib
import random
import re
import struct

from repro.errors import FormatError
from repro.rpc import ExtType, Timestamp, pack, unpack
from repro.rpc.msgpack import Unpacker

CORPUS = pathlib.Path(__file__).with_name("msgpack_corpus.json")
SEED = 23

# ---------------------------------------------------------------------------
# Run-length text: the corpus stores hex and reprs squeezed
# ---------------------------------------------------------------------------


def squeeze(text: str) -> str:
    out = re.sub(r"(.{1,4}?)\1{31,}",
                 lambda m: f"<{m[1]}*{len(m[0]) // len(m[1])}>", text,
                 flags=re.DOTALL)
    assert expand(out) == text, "pick another SEED: the text already reads as squeezed"
    return out


def expand(text: str) -> str:
    return re.sub(r"<(.{1,4}?)\*(\d+)>", lambda m: m[1] * int(m[2]), text,
                  flags=re.DOTALL)


def owned(value):
    """``value`` with every zero-copy bin view as the ``bytes`` it windows
    (map keys are left alone: the decoder owns those itself)."""
    if isinstance(value, memoryview):
        return bytes(value)
    if isinstance(value, list):
        return [owned(v) for v in value]
    if isinstance(value, dict):
        return {k: owned(v) for k, v in value.items()}
    return value


def outcome(data: bytes, zero_copy: bool = False) -> dict:
    """What the codec makes of ``data``, in corpus form."""
    try:
        value = unpack(data, zero_copy=zero_copy)
    except FormatError as exc:
        return {"error": [type(exc).__name__, str(exc)]}
    out = {"value": repr(owned(value))}
    try:
        again = pack(value).hex()
    except FormatError as exc:  # a decoded Timestamp need not be encodable
        again = [type(exc).__name__, str(exc)]
    if again != data.hex():
        out["repack"] = again
    return out


# ---------------------------------------------------------------------------
# The seeded generator (frames are built by hand, not from the table)
# ---------------------------------------------------------------------------

_TEXT = "aZ 9_é☃日\n\x00'\"\\"


def _be(n: int, width: int) -> bytes:
    return n.to_bytes(width, "big")


def _seeded_value(rng: random.Random, depth: int = 0):
    pick = rng.randrange(9 if depth >= 3 else 12)
    if pick == 0:
        return rng.choice((None, True, False))
    if pick == 1:
        return rng.randrange(-40, 140)
    if pick == 2:
        bits = rng.choice((8, 16, 32, 63))
        return rng.randrange(-(1 << bits), 1 << bits)
    if pick == 3:
        return rng.randrange(1 << 64)
    if pick == 4:
        return rng.choice((0.0, -0.0, 1.5, -2.25e300, 5e-324, float("inf"),
                           rng.random(), rng.uniform(-1e9, 1e9)))
    if pick == 5:
        return "".join(rng.choice(_TEXT) for _ in range(rng.choice((0, 1, 5, 31, 32, 40))))
    if pick == 6:
        return rng.randbytes(rng.choice((0, 1, 7, 33)))
    if pick == 7:
        return ExtType(rng.choice((-128, -2, 0, 5, 127)),
                       rng.randbytes(rng.choice((0, 1, 2, 3, 4, 8, 16, 17))))
    if pick == 8:
        return Timestamp(rng.choice((0, 1, 2**32 - 1, 2**32, 2**34 - 1, 2**34,
                                     -1, -(2**63), 2**63 - 1)),
                         rng.choice((0, 0, 1, 999_999_999)))
    if pick in (9, 10):
        return [_seeded_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    keys = rng.sample(["k", "", "ключ", 0, -1, 200, -70000, b"bin", 1.5, None, True],
                      rng.randrange(5))
    return {k: _seeded_value(rng, depth + 1) for k in keys}


def _boundary_frames():
    lengths = (0, 1, 15, 16, 31, 32, 255, 256, 65535, 65536)
    # (fix tag or None, fix capacity, {width: tag}) per length-carrying family
    families = {
        "str": (0xA0, 31, {1: 0xD9, 2: 0xDA, 4: 0xDB}, lambda n: b"s" * n),
        "bin": (None, -1, {1: 0xC4, 2: 0xC5, 4: 0xC6}, lambda n: b"\x00" * n),
        "ext": (None, -1, {1: 0xC7, 2: 0xC8, 4: 0xC9}, lambda n: b"\x05" + b"e" * n),
        "array": (0x90, 15, {2: 0xDC, 4: 0xDD}, lambda n: b"\x00" * n),
        # 16 distinct keys (enough to re-encode as map16), then repeats of 0
        "map": (0x80, 15, {2: 0xDE, 4: 0xDF},
                lambda n: b"".join(bytes((k, 0xC0)) for k in range(min(n, 16)))
                + b"\x00\x00" * (n - min(n, 16))),
    }
    for fix, cap, wide, body in families.values():
        for n in lengths:
            if n <= cap:
                yield bytes((fix | n,)) + body(n)
            for width, tag in wide.items():
                if n < 1 << (8 * width):
                    yield bytes((tag,)) + _be(n, width) + body(n)
                    if n >= 65535:  # the 64 KiB bodies once each, not per width
                        break
    for n, tag in ((1, 0xD4), (2, 0xD5), (4, 0xD6), (8, 0xD7), (16, 0xD8)):
        yield bytes((tag, 0x7F)) + b"x" * n
        yield bytes((tag, 0x80)) + b"x" * n
    yield b"\xc7\x11\x03" + b"x" * 17  # ext8 of 17: one past fixext16


def _scalar_frames():
    yield from (b"\xc0", b"\xc1", b"\xc2", b"\xc3", b"\xc1\x00", b"")
    for v in (0, 1, 0x7F, 0xE0, 0xFF):  # fixints, both signs
        yield bytes((v,))
    for width, utag, stag in ((1, 0xCC, 0xD0), (2, 0xCD, 0xD1),
                              (4, 0xCE, 0xD2), (8, 0xCF, 0xD3)):
        top = 1 << (8 * width)
        for n in (0, 5, 0x7F, 0x80, top // 2 - 1, top // 2, top - 1):
            if n < top:
                yield bytes((utag,)) + _be(n, width)
                yield bytes((stag,)) + _be(n, width)
    for f in (0.0, -0.0, 2.5, float("inf"), float("-inf"), float("nan"), 1e-40, 3.4e38):
        yield b"\xca" + struct.pack(">f", f)
        yield b"\xcb" + struct.pack(">d", f)
    yield b"\xcb" + struct.pack(">d", 0.1)
    # Timestamp: the three widths, through fixext and through ext8, then
    # widths the spec does not define
    for seconds, nanos in ((0, 0), (2**32 - 1, 0), (2**32, 0), (5, 999_999_999),
                           (2**34 - 1, 1), (2**34, 1), (-1, 0), (-(2**63), 7),
                           (2**63 - 1, 999_999_999)):
        body = Timestamp(seconds, nanos).encode()
        yield bytes(({4: 0xD6, 8: 0xD7}.get(len(body), 0xC7),)) \
            + (b"\x0c" if len(body) == 12 else b"") + b"\xff" + body
        yield b"\xc7" + _be(len(body), 1) + b"\xff" + body
    for n in (0, 1, 2, 5, 16):
        yield b"\xc7" + _be(n, 1) + b"\xff" + b"t" * n
    yield b"\xd4\xfft"
    # UTF-8: good multi-byte, then bad, under every str header
    good = "é☃日".encode()
    for head in (bytes((0xA0 | len(good),)), b"\xd9" + _be(len(good), 1),
                 b"\xda" + _be(len(good), 2), b"\xdb" + _be(len(good), 4)):
        yield head + good
        yield head + good[:-1] + b"\xff"
    yield b"\xa2\xff\xfe"
    yield b"\xa1\xc3"
    # map keys: every hashable family, then the unhashable ones
    for key in (b"\x01", b"\xff", b"\xa1k", b"\xc4\x01k", b"\xc0", b"\xc3",
                b"\xcb" + struct.pack(">d", 1.5), b"\xd4\x05x", b"\xd6\xff\x00\x00\x00\x07",
                b"\x90", b"\x91\x01", b"\x80", b"\x81\x01\x02", b"\x91\xc4\x01k"):
        yield b"\x81" + key + b"\x2a"
    yield b"\x82\x01\x02\x01\x03"          # a repeated key: the last one wins
    yield b"\x82\xa1k\x01\xc4\x01k\x02"    # str and bin keys stay distinct
    # nesting at MAX_DEPTH and one past it, arrays and maps
    for depth in (Unpacker.MAX_DEPTH, Unpacker.MAX_DEPTH + 1):
        yield b"\x91" * depth + b"\xc0"
        yield b"\x81\x00" * depth + b"\xc0"
    # trailing bytes after one complete value
    yield from (b"\xc0\xc0", b"\x01\x02", b"\xa1kk", b"\x90\x90", b"\x91\x01\x02")


def frames() -> list[bytes]:
    rng = random.Random(SEED)
    base = list(_scalar_frames()) + list(_boundary_frames())
    base += [pack(_seeded_value(rng)) for _ in range(100)]
    out = list(base)
    for data in base:
        if 0 < len(data) <= 64:
            out.append(data[:-1])
            i = rng.randrange(len(data))
            out.append(data[:i] + bytes((data[i] ^ rng.randrange(1, 256),)) + data[i + 1:])
    return list(dict.fromkeys(out))


def record() -> list[dict]:
    entries = []
    for data in frames():
        entry = outcome(data)
        # A message that quotes a zero-copy view carries its address:
        # nothing two decodes could agree on.
        if "error" in entry and outcome(data, zero_copy=True) != entry:
            continue
        entry = {k: squeeze(v) if isinstance(v, str) else v for k, v in entry.items()}
        entries.append({"hex": squeeze(data.hex()), **entry})
    return entries


# ---------------------------------------------------------------------------
# The replay
# ---------------------------------------------------------------------------


def _load() -> list[tuple[bytes, dict]]:
    entries = json.loads(CORPUS.read_text())
    return [(bytes.fromhex(expand(e.pop("hex"))),
             {k: expand(v) if isinstance(v, str) else v for k, v in e.items()})
            for e in entries]


def test_corpus_opens_on_every_format_row():
    corpus = _load()
    assert len(corpus) >= 500
    valid = {data[0] for data, entry in corpus if "value" in entry}
    assert set(range(0xC0, 0xE0)) - {0xC1} <= valid  # every single-tag row
    assert {0x00, 0x7F, 0x80, 0x8F, 0x90, 0x9F, 0xA0, 0xBF, 0xE0, 0xFF} <= valid
    assert sum("error" in entry for _, entry in corpus) >= 150


def test_corpus_replays_in_both_zero_copy_modes():
    for data, entry in _load():
        for zero_copy in (False, True):
            assert outcome(data, zero_copy) == entry, (data[:24].hex(), zero_copy)


if __name__ == "__main__":  # re-record: python -m tests.rpc.test_msgpack_corpus
    recorded = record()
    CORPUS.write_text(
        "[\n" + ",\n".join(json.dumps(e, ensure_ascii=True) for e in recorded) + "\n]\n")
    print(f"wrote {CORPUS}: {len(recorded)} entries")
