"""Unit tests for the from-scratch LZ4 block codec."""

import numpy as np
import pytest

from repro.compression import LZ4Codec, lz4_compress_block, lz4_decompress_block
from repro.errors import CodecError


class TestBlockRoundTrip:
    CASES = [
        b"",
        b"a",
        b"hello world",
        b"0123456789" * 100,
        b"a" * 13,           # exactly past the all-literal threshold
        b"a" * 12,           # at the threshold: must stay all-literal
        b"abababababababababababab",
        bytes(range(256)) * 8,
        b"\x00" * 100_000,
        b"the quick brown fox jumps over the lazy dog " * 50,
    ]

    @pytest.mark.parametrize("data", CASES, ids=range(len(CASES)))
    def test_round_trip(self, data):
        assert lz4_decompress_block(lz4_compress_block(data)) == data

    def test_random_bytes(self, rng):
        data = bytes(rng.integers(0, 256, 50_000, dtype=np.uint8))
        assert lz4_decompress_block(lz4_compress_block(data)) == data

    def test_low_entropy_random(self, rng):
        data = bytes(rng.integers(0, 3, 50_000, dtype=np.uint8))
        block = lz4_compress_block(data)
        assert lz4_decompress_block(block) == data
        assert len(block) < len(data) * 0.75  # actually compresses

    def test_float_array_payload(self, rng):
        data = np.sin(np.linspace(0, 50, 30_000)).astype(np.float32).tobytes()
        assert lz4_decompress_block(lz4_compress_block(data)) == data

    def test_acceleration_levels(self, rng):
        data = bytes(rng.integers(0, 16, 20_000, dtype=np.uint8))
        for acc in (1, 4, 32):
            assert lz4_decompress_block(lz4_compress_block(data, acceleration=acc)) == data

    def test_bad_acceleration(self):
        with pytest.raises(CodecError):
            lz4_compress_block(b"x" * 100, acceleration=0)

    def test_long_match_lengths(self):
        # Forces the 255-run match-length extension encoding.
        data = b"Q" * 5000 + b"tail!"
        block = lz4_compress_block(data)
        assert lz4_decompress_block(block) == data
        assert len(block) < 60

    def test_long_literal_runs(self, rng):
        # > 15 literals forces the literal-length extension encoding.
        data = bytes(rng.integers(0, 256, 300, dtype=np.uint8))
        assert lz4_decompress_block(lz4_compress_block(data)) == data


class TestReferenceVectors:
    """Handcrafted blocks following the LZ4 block-format spec."""

    def test_literals_only(self):
        # token 0x50: 5 literals, no match (terminating sequence).
        assert lz4_decompress_block(bytes([0x50]) + b"hello") == b"hello"

    def test_simple_match(self):
        # 10 literals "0123456789", match offset 10 length 85 (ext 66),
        # then 5 terminating literals "56789" -> "0123456789" * 10.
        vec = (
            bytes([0xAF])
            + b"0123456789"
            + bytes([0x0A, 0x00])
            + bytes([66])
            + bytes([0x50])
            + b"56789"
        )
        assert lz4_decompress_block(vec) == b"0123456789" * 10

    def test_overlapping_match(self):
        # 1 literal "a", match offset 1 length 8, then 5 literals.
        vec = bytes([0x14]) + b"a" + bytes([0x01, 0x00]) + bytes([0x50]) + b"bcdef"
        assert lz4_decompress_block(vec) == b"a" * 9 + b"bcdef"

    def test_literal_length_extension(self):
        # 15+240=255 literals via extension byte 240.
        payload = bytes(range(250)) + b"extra"
        vec = bytes([0xF0]) + bytes([240]) + payload
        assert lz4_decompress_block(vec) == payload

    def test_empty_block(self):
        assert lz4_decompress_block(b"") == b""


class TestMalformedInput:
    def test_zero_offset(self):
        vec = bytes([0x14]) + b"a" + bytes([0x00, 0x00]) + bytes([0x50]) + b"bcdef"
        with pytest.raises(CodecError, match="zero"):
            lz4_decompress_block(vec)

    def test_offset_before_start(self):
        vec = bytes([0x14]) + b"a" + bytes([0x05, 0x00]) + bytes([0x50]) + b"bcdef"
        with pytest.raises(CodecError, match="before start"):
            lz4_decompress_block(vec)

    def test_truncated_literals(self):
        with pytest.raises(CodecError, match="literal"):
            lz4_decompress_block(bytes([0x50]) + b"hi")

    def test_truncated_offset(self):
        with pytest.raises(CodecError, match="offset"):
            lz4_decompress_block(bytes([0x14]) + b"a" + bytes([0x01]))

    def test_truncated_length_extension(self):
        with pytest.raises(CodecError, match="extension"):
            lz4_decompress_block(bytes([0xF0]))

    def test_max_output_guard(self):
        block = lz4_compress_block(b"a" * 10_000)
        with pytest.raises(CodecError, match="max_output"):
            lz4_decompress_block(block, max_output=100)


class TestFramedCodec:
    def test_round_trip(self, rng):
        codec = LZ4Codec()
        data = bytes(rng.integers(0, 10, 30_000, dtype=np.uint8))
        assert codec.decompress(codec.compress(data)) == data

    def test_frame_declares_size(self):
        codec = LZ4Codec()
        frame = codec.compress(b"x" * 1000)
        # Corrupt the declared size.
        bad = frame[:4] + (5).to_bytes(8, "little") + frame[12:]
        with pytest.raises(CodecError):
            codec.decompress(bad)

    def test_bad_magic(self):
        with pytest.raises(CodecError, match="magic"):
            LZ4Codec().decompress(b"NOPE" + b"\x00" * 20)

    def test_short_frame(self):
        with pytest.raises(CodecError, match="short"):
            LZ4Codec().decompress(b"LZ")

    def test_empty(self):
        codec = LZ4Codec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_bad_acceleration_config(self):
        with pytest.raises(CodecError):
            LZ4Codec(acceleration=0)


def _length_code(length: int) -> tuple[int, bytes]:
    """A token nibble and its 255-run extension bytes for ``length``."""
    if length < 15:
        return length, b""
    runs, last = divmod(length - 15, 255)
    return 15, b"\xff" * runs + bytes([last])


def _overlap_block(prefix: bytes, offset: int, match_len: int, tail: bytes = b"tail!") -> bytes:
    """``prefix`` as literals, one match, then ``tail`` as the closing literals."""
    lit, lit_ext = _length_code(len(prefix))
    ml, ml_ext = _length_code(match_len - 4)
    end, end_ext = _length_code(len(tail))
    return (
        bytes([(lit << 4) | ml]) + lit_ext + prefix
        + offset.to_bytes(2, "little") + ml_ext
        + bytes([end << 4]) + end_ext + tail
    )


def _repeat(prefix: bytes, offset: int, match_len: int) -> bytes:
    """What a byte-at-a-time LZ4 copy produces for an overlapping match."""
    out = bytearray(prefix)
    for _ in range(match_len):
        out.append(out[-offset])
    return bytes(out)


class TestOverlapCopy:
    """Matches whose offset is shorter than their length repeat a period."""

    @pytest.mark.parametrize("offset", range(1, 10))
    def test_hand_built_vectors(self, offset):
        prefix = bytes(range(65, 65 + offset + 2))  # two bytes the match never reads
        for match_len in (4, offset, offset + 1, 3 * offset + 2, 70_000):
            if match_len < 4:
                continue  # not encodable: the format's minimum match is 4
            block = _overlap_block(prefix, offset, match_len)
            expected = _repeat(prefix, offset, match_len) + b"tail!"
            assert lz4_decompress_block(block) == expected
            assert lz4_decompress_block(block, max_output=len(expected)) == expected
            with pytest.raises(CodecError, match="max_output"):
                lz4_decompress_block(block, max_output=len(expected) - 1)

    def test_length_extension_bytes_are_consumed(self):
        # 70 000 - 4 - 15 = 274 full 255-runs + a last byte of 111.
        block = _overlap_block(b"ab", 2, 70_000)
        assert block[3 : 3 + 2 + 275] == b"\x02\x00" + b"\xff" * 274 + bytes([111])
        assert lz4_decompress_block(block) == b"ab" * 35_001 + b"tail!"

    def test_max_output_trips_before_the_copy(self):
        """A 40 MB run declared by a 157 KB block is refused, not built
        (40x ``max_output`` and 5x the peak bound: a copy made before the
        check cannot hide under either)."""
        import tracemalloc

        block = _overlap_block(b"a", 1, 40_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(CodecError, match="max_output"):
                lz4_decompress_block(block, max_output=1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_max_output_trips_before_the_literals(self):
        block = bytes([0xF0, 240]) + bytes(255)
        with pytest.raises(CodecError, match="max_output"):
            lz4_decompress_block(block, max_output=254)
        assert lz4_decompress_block(block, max_output=255) == bytes(255)

    @pytest.mark.parametrize("period", range(1, 10))
    def test_periodic_round_trip(self, period):
        data = (bytes(range(period)) * 50_000)[:442_368]
        block = lz4_compress_block(data)
        assert len(block) < 2_000
        assert lz4_decompress_block(block) == data

    def test_constant_float_block_round_trip(self):
        data = np.zeros(110_592, dtype=np.float32).tobytes()
        codec = LZ4Codec()
        assert codec.decompress(codec.compress(data)) == data
        assert codec.decompress(memoryview(codec.compress(data))) == data

    def test_asteroid_v03_round_trip(self):
        """The benchmark's most compressible array: long constant runs."""
        from repro.datasets.asteroid import AsteroidImpactDataset, AsteroidParams

        dataset = AsteroidImpactDataset(AsteroidParams(dims=(24, 24, 24)))
        for step in (dataset.params.timesteps[0], dataset.params.timesteps[-1]):
            data = dataset.generate(step).point_data.get("v03").values.tobytes()
            block = lz4_compress_block(data)
            assert len(block) < len(data) / 10
            assert lz4_decompress_block(block, max_output=len(data)) == data
