"""VGF reads and writes through a store mount, and PPM output."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.io import read_vgf, write_vgf
from repro.io.ppm import encode_ppm, write_ppm
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid


@pytest.fixture
def fs():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("b")
    fs = S3FileSystem(store, "b")
    fs.write_object("grid.vgf", write_vgf(make_sphere_grid(8), codec="lz4"))
    return fs


class TestGridReader:
    def test_reads_from_mount(self, fs):
        with fs.open("grid.vgf") as fh:
            assert read_vgf(fh) == make_sphere_grid(8)

    def test_array_selection(self, fs):
        with fs.open("grid.vgf") as fh:
            assert read_vgf(fh, ["r"]).point_data.names() == ["r"]

    def test_bytes_opener(self):
        blob = write_vgf(make_sphere_grid(6))
        assert read_vgf(blob).num_points == 216

    def test_missing_array(self, fs):
        with fs.open("grid.vgf") as fh, pytest.raises(FormatError):
            read_vgf(fh, ["zzz"])


class TestGridWriter:
    def test_write_through_pipeline(self, fs):
        grid = make_sphere_grid(6)
        fs.write_object("out.vgf", write_vgf(grid, codec="gzip"))
        with fs.open("out.vgf") as fh:
            assert read_vgf(fh) == grid

    def test_round_trip_reader_writer(self, fs):
        """read -> write -> read reproduces the grid bit-exactly."""
        with fs.open("grid.vgf") as fh:
            fs.write_object("copy.vgf", write_vgf(read_vgf(fh), codec="raw"))
        with fs.open("copy.vgf") as fh:
            assert read_vgf(fh) == make_sphere_grid(8)


class TestPPM:
    def test_rgb_header(self):
        img = np.zeros((4, 6, 3), dtype=np.uint8)
        data = encode_ppm(img)
        assert data.startswith(b"P6\n6 4\n255\n")
        assert len(data) == len(b"P6\n6 4\n255\n") + 4 * 6 * 3

    def test_gray_header(self):
        img = np.zeros((4, 6), dtype=np.uint8)
        assert encode_ppm(img).startswith(b"P5\n6 4\n255\n")

    def test_float_scaling(self):
        img = np.array([[[1.5, 0.5, -1.0]]])
        data = encode_ppm(img)
        assert data[-3:] == bytes([255, 128, 0])

    def test_bad_shapes(self):
        with pytest.raises(FormatError):
            encode_ppm(np.zeros((2, 2, 4), dtype=np.uint8))
        with pytest.raises(FormatError):
            encode_ppm(np.zeros(5, dtype=np.uint8))

    def test_bad_dtype(self):
        with pytest.raises(FormatError):
            encode_ppm(np.zeros((2, 2), dtype=np.int32))

    def test_write_ppm(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        write_ppm(path, np.full((2, 2, 3), 0.5))
        with open(path, "rb") as fh:
            assert fh.read(2) == b"P6"
