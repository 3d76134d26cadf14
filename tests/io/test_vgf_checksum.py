"""VGF end-to-end integrity: per-array CRCs and the header self-check are
part of the format — a file without them is malformed, not unchecked.
"""

import struct

import numpy as np
import pytest

from repro.errors import FormatError, IntegrityError
from repro.io.checksum import DEFAULT_ALGO, available, checksum, verify as verify_bytes
from repro.io.vgf import (
    read_vgf,
    read_vgf_array,
    read_vgf_info,
    verify_vgf,
    write_vgf,
)

from tests.conftest import make_sphere_grid, restamp_vgf


@pytest.fixture(scope="module")
def grid():
    return make_sphere_grid(8)


def _flip(blob: bytes, offset: int, mask: int = 0xFF) -> bytes:
    mutated = bytearray(blob)
    mutated[offset] ^= mask
    return bytes(mutated)


class TestChecksumPrimitive:
    def test_known_algorithms_available(self):
        assert "crc32" in available()
        assert DEFAULT_ALGO in available()

    def test_checksum_detects_any_change(self):
        data = b"the quick brown fox"
        base = checksum(data)
        assert checksum(data) == base  # deterministic
        assert checksum(data[:-1] + b"X") != base

    def test_verify_raises_typed_error_with_context(self):
        with pytest.raises(IntegrityError, match="my block: .*mismatch"):
            verify_bytes(b"data", checksum(b"other"), DEFAULT_ALGO, "my block")

    def test_unknown_algorithm_is_format_error(self):
        with pytest.raises(FormatError, match="unknown checksum"):
            checksum(b"x", algo="md5-not-a-crc")


class TestRoundTrip:
    def test_written_files_carry_and_pass_checksums(self, grid):
        blob = write_vgf(grid, codec="gzip")
        info = read_vgf_info(blob)
        assert all(a.checksum is not None for a in info.arrays)
        assert all(a.checksum_algo == DEFAULT_ALGO for a in info.arrays)
        assert "header_crc" not in info.meta  # self-check keys stay internal
        assert write_vgf(grid, codec="gzip") == blob  # deterministic
        out = read_vgf(blob)
        np.testing.assert_array_equal(
            out.point_data.get("r").values, grid.point_data.get("r").values
        )
        assert verify_vgf(blob) == []

    def test_every_codec_is_checksummed_over_stored_bytes(self, grid):
        for codec in ("raw", "gzip", "lz4"):
            blob = write_vgf(grid, codec=codec)
            assert verify_vgf(blob) == []


class TestCorruptionDetection:
    def test_block_corruption_is_integrity_error(self, grid):
        blob = _flip(write_vgf(grid, codec="gzip"), -10)
        with pytest.raises(IntegrityError, match="mismatch"):
            read_vgf(blob)

    def test_raw_codec_corruption_caught_only_by_checksum(self, grid):
        """With codec="raw" no decompressor would ever notice a flip —
        the CRC is the *only* line of defence against silent wrong data."""
        blob = _flip(write_vgf(grid, codec="raw"), -10)
        with pytest.raises(IntegrityError):
            read_vgf_array(blob, "r")

    def test_header_corruption_fails_the_self_check(self, grid):
        blob = write_vgf(grid)
        # Flip a byte inside the msgpack header region (after magic+len).
        header_off = len(b"VGF1") + struct.calcsize("<I") + 5
        with pytest.raises(FormatError):
            read_vgf_info(_flip(blob, header_off))

    def test_verify_vgf_reports_instead_of_raising(self, grid):
        blob = _flip(write_vgf(grid, codec="gzip"), -10)
        problems = verify_vgf(blob)
        assert problems
        assert any("mismatch" in p for p in problems)

    def test_verify_vgf_on_garbage(self):
        problems = verify_vgf(b"not a vgf file")
        assert problems and "header" in problems[0].lower() or problems


class TestChecksumsAreMandatory:
    """A header or array entry without its checksum is malformed."""

    def test_header_without_its_checksum_is_a_format_error(self, grid):
        blob = restamp_vgf(write_vgf(grid), lambda h: h.pop("header_crc"))
        with pytest.raises(FormatError, match="no 'header_crc'"):
            read_vgf_info(blob)
        assert verify_vgf(blob)

    def test_array_without_its_checksum_is_a_format_error(self, grid):
        blob = restamp_vgf(write_vgf(grid), lambda h: h["arrays"][0].pop("crc"))
        with pytest.raises(FormatError, match="malformed VGF header: 'crc'"):
            read_vgf(blob)
        assert verify_vgf(blob)
