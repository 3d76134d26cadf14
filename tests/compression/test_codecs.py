"""Unit tests for the codec registry, GZip, RLE, and the lossy quantizer."""

import zlib

import numpy as np
import pytest

from repro.compression import (
    Codec,
    GzipCodec,
    QuantizerCodec,
    RLECodec,
    get_codec,
    register_codec,
)
from repro.errors import CodecError


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("raw", "gzip", "lz4", "rle", "quantizer"):
            assert get_codec(name).name == name

    def test_get_unknown(self):
        with pytest.raises(CodecError, match="unknown codec"):
            get_codec("zstd")

    def test_duplicate_rejected(self):
        class Dup(Codec):
            name = "gzip"

            def compress(self, data):
                return data

            def decompress(self, data):
                return data

        with pytest.raises(CodecError, match="already"):
            register_codec(Dup())

    def test_unnamed_rejected(self):
        class NoName(Codec):
            name = ""

            def compress(self, data):
                return data

            def decompress(self, data):
                return data

        with pytest.raises(CodecError, match="no name"):
            register_codec(NoName())

    def test_ratio_helper(self):
        assert get_codec("raw").ratio(b"x" * 100) == pytest.approx(1.0)
        assert get_codec("gzip").ratio(b"\x00" * 10_000) > 50
        assert get_codec("raw").ratio(b"") == 1.0


class TestGzip:
    def test_round_trip(self, rng):
        codec = GzipCodec()
        data = bytes(rng.integers(0, 256, 10_000, dtype=np.uint8))
        assert codec.decompress(codec.compress(data)) == data

    def test_produces_gzip_container(self):
        frame = GzipCodec().compress(b"hello hello hello")
        assert frame[:2] == b"\x1f\x8b"  # gzip magic
        assert zlib.decompress(frame, wbits=31) == b"hello hello hello"

    def test_levels(self):
        data = b"pattern" * 1000
        hi = GzipCodec(level=9).compress(data)
        lo = GzipCodec(level=1).compress(data)
        assert len(hi) <= len(lo)
        assert GzipCodec(level=9).decompress(hi) == data

    def test_bad_level(self):
        with pytest.raises(CodecError):
            GzipCodec(level=0)

    def test_garbage_input(self):
        with pytest.raises(CodecError):
            GzipCodec().decompress(b"not gzip at all")

    def test_empty(self):
        codec = GzipCodec()
        assert codec.decompress(codec.compress(b"")) == b""


class TestRLE:
    def test_round_trip_runs(self):
        codec = RLECodec()
        data = b"a" * 300 + b"b" * 5 + b"c"
        assert codec.decompress(codec.compress(data)) == data

    def test_round_trip_random(self, rng):
        codec = RLECodec()
        data = bytes(rng.integers(0, 256, 5000, dtype=np.uint8))
        assert codec.decompress(codec.compress(data)) == data

    def test_compresses_runs(self):
        codec = RLECodec()
        assert len(codec.compress(b"\x00" * 10_000)) < 100

    def test_long_run_split(self):
        # A run of 255*3+7 bytes must split into 4 chunks.
        codec = RLECodec()
        data = b"z" * (255 * 3 + 7)
        packed = codec.compress(data)
        assert len(packed) == 8
        assert codec.decompress(packed) == data

    def test_empty(self):
        codec = RLECodec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_odd_payload_rejected(self):
        with pytest.raises(CodecError, match="pairs"):
            RLECodec().decompress(b"\x01\x02\x03")

    def test_zero_count_rejected(self):
        with pytest.raises(CodecError, match="zero"):
            RLECodec().decompress(b"\x00\x41")


class TestQuantizer:
    def test_error_bound_respected(self, rng):
        for bound in (1e-2, 1e-4):
            codec = QuantizerCodec(abs_bound=bound)
            x = rng.normal(scale=10.0, size=5000).astype(np.float32)
            y = np.frombuffer(codec.decompress(codec.compress(x.tobytes())), dtype=np.float32)
            # The bound holds in exact arithmetic; storing the
            # reconstruction as float32 adds at most one ulp.
            ulp = np.abs(x).max() * 2.0 ** -23
            assert np.abs(x - y).max() <= bound + ulp

    def test_lossy_flag(self):
        assert not QuantizerCodec().lossless
        assert GzipCodec().lossless

    def test_compresses_smooth_data(self):
        codec = QuantizerCodec(abs_bound=1e-3)
        x = np.sin(np.linspace(0, 20, 50_000)).astype(np.float32)
        frame = codec.compress(x.tobytes())
        assert len(frame) < x.nbytes / 3

    def test_bad_bound(self):
        with pytest.raises(CodecError):
            QuantizerCodec(abs_bound=0.0)
        with pytest.raises(CodecError):
            QuantizerCodec(abs_bound=float("nan"))

    def test_non_float32_payload_rejected(self):
        with pytest.raises(CodecError, match="float32"):
            QuantizerCodec().compress(b"abc")

    def test_nonfinite_rejected(self):
        data = np.array([1.0, np.inf], dtype=np.float32).tobytes()
        with pytest.raises(CodecError, match="non-finite"):
            QuantizerCodec().compress(data)

    def test_bad_magic(self):
        with pytest.raises(CodecError, match="magic"):
            QuantizerCodec().decompress(b"XXXX" + b"\x00" * 30)

    def test_empty(self):
        codec = QuantizerCodec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_large_dynamic_range(self, rng):
        codec = QuantizerCodec(abs_bound=1e-2)
        x = (rng.normal(size=1000) * 10.0 ** rng.integers(-2, 4, 1000).astype(np.float64)).astype(np.float32)
        y = np.frombuffer(codec.decompress(codec.compress(x.tobytes())), dtype=np.float32)
        ulp = np.abs(x).max() * 2.0 ** -23
        assert np.abs(x.astype(np.float64) - y).max() <= 1e-2 + ulp
