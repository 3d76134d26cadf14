"""Unit tests for the VGF container format."""

import io

import numpy as np
import pytest

from repro.errors import FormatError
from repro.grid import DataArray, UniformGrid
from repro.io import read_vgf, read_vgf_array, read_vgf_info, write_vgf
from repro.io.vgf import StoredBlock, read_vgf_block


def make_grid():
    grid = UniformGrid((6, 5, 4), origin=(1, 2, 3), spacing=(0.5, 0.25, 2.0))
    n = grid.num_points
    grid.point_data.add(DataArray("v02", np.linspace(0, 1, n, dtype=np.float32)))
    grid.point_data.add(DataArray("rho", np.full(n, 2.5)))
    grid.point_data.add(DataArray("ids", np.arange(n, dtype=np.int32)))
    grid.cell_data.add(DataArray("mat", np.zeros(grid.num_cells, dtype=np.float32)))
    return grid


class TestRoundTrip:
    @pytest.mark.parametrize("codec", ["raw", "gzip", "lz4", "rle"])
    def test_full_round_trip(self, codec):
        grid = make_grid()
        blob = write_vgf(grid, codec=codec)
        back = read_vgf(blob)
        assert back == grid

    def test_per_array_codecs(self):
        grid = make_grid()
        blob = write_vgf(grid, codec={"v02": "gzip", "rho": "lz4"})
        info = read_vgf_info(blob)
        assert info.array("v02").codec == "gzip"
        assert info.array("rho").codec == "lz4"
        assert info.array("ids").codec == "raw"  # fallback
        assert read_vgf(blob) == grid

    def test_meta_preserved(self):
        blob = write_vgf(make_grid(), meta={"timestep": 24095, "sim": "xrage"})
        info = read_vgf_info(blob)
        assert info.meta == {"timestep": 24095, "sim": "xrage"}

    def test_dtype_preserved(self):
        back = read_vgf(write_vgf(make_grid()))
        assert back.point_data.get("v02").dtype == np.float32
        assert back.point_data.get("rho").dtype == np.float64
        assert back.point_data.get("ids").dtype == np.int32

    def test_structure_preserved(self):
        back = read_vgf(write_vgf(make_grid()))
        assert back.dims == (6, 5, 4)
        assert back.origin == (1, 2, 3)
        assert back.spacing == (0.5, 0.25, 2.0)

    def test_cell_data_association(self):
        back = read_vgf(write_vgf(make_grid()))
        assert "mat" in back.cell_data
        assert "mat" not in back.point_data

    def test_empty_grid(self):
        grid = UniformGrid((2, 2, 2))
        assert read_vgf(write_vgf(grid)).num_points == 8

    def test_file_like_source(self):
        blob = write_vgf(make_grid())
        assert read_vgf(io.BytesIO(blob)) == make_grid()


class TestArraySelection:
    def test_selected_arrays_only(self):
        blob = write_vgf(make_grid())
        back = read_vgf(blob, ["v02"])
        assert back.point_data.names() == ["v02"]
        assert len(back.cell_data) == 0

    def test_selection_reads_only_needed_bytes(self):
        """Array selection must not touch unselected arrays' blocks."""
        grid = make_grid()
        blob = write_vgf(grid)
        info = read_vgf_info(blob)

        reads = []

        class SpyFile(io.BytesIO):
            def read(self, n=-1):
                reads.append((self.tell(), n))
                return super().read(n)

        fh = SpyFile(blob)
        read_vgf(fh, ["v02"])
        v02 = info.array("v02")
        total_block_bytes = sum(
            n for off, n in reads if off >= info.data_start and n > 0
        )
        assert total_block_bytes == v02.stored_bytes

    def test_missing_array_selection(self):
        blob = write_vgf(make_grid())
        with pytest.raises(FormatError, match="nope"):
            read_vgf(blob, ["nope"])

    def test_read_single_array(self):
        blob = write_vgf(make_grid(), codec="gzip")
        arr, entry = read_vgf_array(blob, "rho")
        assert arr == make_grid().point_data.get("rho")
        assert entry.codec == "gzip"
        assert entry.raw_bytes == arr.nbytes
        # The library reader hands the caller an array it owns; the
        # server's one decode keeps a read-only view over the payload.
        assert arr.values.flags.writeable
        info = read_vgf_info(blob)
        stored, entry = read_vgf_block(blob, "rho", info)
        view = StoredBlock(info, entry, stored).grid().point_data.get("rho")
        assert view == arr
        assert not view.values.flags.writeable


class TestHeaderInfo:
    def test_info_fields(self):
        blob = write_vgf(make_grid(), codec="lz4")
        info = read_vgf_info(blob)
        assert info.array_names() == ["v02", "rho", "ids", "mat"]
        v02 = info.array("v02")
        assert v02.raw_bytes == 120 * 4
        assert v02.stored_bytes > 0
        assert info.data_start > 8

    def test_offsets_contiguous(self):
        blob = write_vgf(make_grid())
        info = read_vgf_info(blob)
        offset = 0
        for entry in info.arrays:
            assert entry.offset == offset
            offset += entry.stored_bytes
        assert info.data_start + offset == len(blob)


class TestMalformed:
    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            read_vgf_info(b"NOT A VGF FILE AT ALL")

    def test_truncated_header(self):
        blob = write_vgf(make_grid())
        with pytest.raises(FormatError, match="truncated"):
            read_vgf_info(blob[:20])

    def test_truncated_block(self):
        grid = make_grid()
        blob = write_vgf(grid)
        with pytest.raises(FormatError):
            read_vgf(blob[:-50])

    def test_header_not_msgpack(self):
        bad = b"VGF1" + (4).to_bytes(4, "little") + b"\xc1\xc1\xc1\xc1"
        with pytest.raises(FormatError):
            read_vgf_info(bad)

    def test_size_mismatch_detected(self):
        grid = UniformGrid((2, 2, 2))
        grid.point_data.add(DataArray("f", np.zeros(8, dtype=np.float32)))
        blob = bytearray(write_vgf(grid, codec="gzip"))
        # Corrupt one byte inside the compressed block.
        blob[-3] ^= 0xFF
        with pytest.raises(FormatError):
            read_vgf(bytes(blob))
