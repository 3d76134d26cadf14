"""Unit tests for selection wire encodings."""

import numpy as np
import pytest

from repro.core import decode_selection, encode_selection, wire_size
from repro.core.prefilter import prefilter_contour
from repro.errors import FormatError
from repro.grid import PointSelection
from repro.rpc import pack, unpack

from tests.conftest import make_sphere_grid


def make_sel(ids, n=1000, dims=(10, 10, 10)):
    ids = np.asarray(sorted(ids), dtype=np.int64)
    values = (ids * 0.5).astype(np.float32)
    return PointSelection(dims, (0, 0, 0), (1, 1, 1), "f", ids, values)


class TestRoundTrips:
    @pytest.mark.parametrize("method", ["ids", "bitmap", "auto"])
    def test_round_trip(self, method):
        sel = make_sel([0, 7, 8, 500, 999])
        assert decode_selection(encode_selection(sel, method)) == sel

    @pytest.mark.parametrize("method", ["ids", "bitmap", "auto"])
    def test_empty_selection(self, method):
        sel = make_sel([])
        assert decode_selection(encode_selection(sel, method)) == sel

    @pytest.mark.parametrize("method", ["ids", "bitmap"])
    def test_full_selection(self, method):
        sel = make_sel(range(1000))
        assert decode_selection(encode_selection(sel, method)) == sel

    def test_real_prefilter_output(self):
        grid = make_sphere_grid(14)
        sel = prefilter_contour(grid, "r", [4.0])
        for method in ("ids", "bitmap", "auto"):
            assert decode_selection(encode_selection(sel, method)) == sel

    def test_msgpack_transportable(self):
        """Encodings must survive the RPC serialization layer."""
        grid = make_sphere_grid(12)
        sel = prefilter_contour(grid, "r", [3.0])
        encoded = encode_selection(sel)
        assert decode_selection(unpack(pack(encoded))) == sel

    def test_float64_values(self):
        ids = np.array([1, 5], dtype=np.int64)
        sel = PointSelection(
            (10, 10, 10), (0, 0, 0), (1, 1, 1), "f", ids,
            np.array([1.5, 2.5], dtype=np.float64),
        )
        out = decode_selection(encode_selection(sel))
        assert out.values.dtype == np.float64
        assert out == sel


class TestIdDeltaWidths:
    def test_narrow_deltas_use_uint8(self):
        sel = make_sel(range(0, 500, 2))  # deltas of 2
        enc = encode_selection(sel, "ids")
        assert enc["id_width"] == 1

    def test_wide_deltas_use_wider_ints(self):
        sel = make_sel([0, 999], dims=(10, 10, 10))
        enc = encode_selection(sel, "ids")
        assert enc["id_width"] == 2

    def test_huge_grid_deltas(self):
        dims = (500, 500, 500)
        ids = np.array([0, 500 * 500 * 499], dtype=np.int64)
        sel = PointSelection(dims, (0, 0, 0), (1, 1, 1), "f", ids,
                             np.zeros(2, dtype=np.float32))
        enc = encode_selection(sel, "ids")
        assert enc["id_width"] == 4
        assert decode_selection(enc) == sel


class TestAuto:
    def test_auto_prefers_ids_when_sparse(self):
        sel = make_sel([3, 500])
        assert encode_selection(sel, "auto")["method"] == "ids"

    def test_auto_prefers_bitmap_when_dense(self):
        sel = make_sel(range(0, 1000, 2))
        enc = encode_selection(sel, "auto")
        # 500 points: ids cost >= 500 B deltas + values; bitmap is 125 B + values.
        assert enc["method"] == "bitmap"

    def test_auto_never_larger_than_either(self):
        for ids in ([1, 2, 3], range(0, 1000, 3), range(200)):
            sel = make_sel(ids)
            auto = wire_size(encode_selection(sel, "auto"))
            assert auto <= wire_size(encode_selection(sel, "ids"))
            assert auto <= wire_size(encode_selection(sel, "bitmap"))


class TestAutoSharesCompressedValues:
    """``auto`` compresses the values buffer once; replies must not notice."""

    @staticmethod
    def _selection(winner):
        if winner == "bitmap":
            return make_sel(range(0, 1000, 2))
        # Sparse and scattered: the deltas stay smaller than the bitmap
        # even after the bitmap's zero runs are compressed away.
        ids = np.random.default_rng(5).choice(64_000, size=60, replace=False)
        return make_sel(ids.tolist(), dims=(40, 40, 40))

    @pytest.mark.parametrize("payload_codec", ["raw", "lz4", "gzip"])
    @pytest.mark.parametrize("winner", ["ids", "bitmap"])
    def test_byte_equal_to_two_full_compressions(self, winner, payload_codec):
        from repro.core.encoding import attach_checksum

        sel = self._selection(winner)
        # The reference: compress each candidate whole, keep the smaller.
        a = encode_selection(sel, "ids", payload_codec=payload_codec)
        b = encode_selection(sel, "bitmap", payload_codec=payload_codec)
        expected = a if wire_size(a) <= wire_size(b) else b
        assert expected["method"] == winner
        auto = encode_selection(sel, "auto", payload_codec=payload_codec)
        assert list(auto) == list(expected)  # key order is wire order
        assert pack(auto) == pack(expected)
        assert pack(attach_checksum(auto)) == pack(attach_checksum(expected))
        assert decode_selection(unpack(pack(attach_checksum(auto)))) == sel

    def test_values_compressed_once(self, monkeypatch):
        from repro.compression import get_codec
        from repro.core import encoding

        real = get_codec("lz4")
        calls = []

        class Counting:
            def compress(self, data):
                calls.append(len(data))
                return real.compress(data)

        monkeypatch.setattr(encoding, "get_codec", lambda name: Counting())
        sel = make_sel(range(0, 1000, 2))
        encode_selection(sel, "auto", payload_codec="lz4")
        # values, id deltas, bitmap — not values twice.
        assert sorted(calls) == sorted([sel.values.nbytes, sel.count - 1, 125])


class TestPayloadCodec:
    @pytest.mark.parametrize("payload_codec", ["raw", "lz4", "gzip"])
    @pytest.mark.parametrize("method", ["ids", "bitmap", "auto"])
    def test_round_trip_compressed_payload(self, method, payload_codec):
        grid = make_sphere_grid(12)
        sel = prefilter_contour(grid, "r", [4.0])
        enc = encode_selection(sel, method, payload_codec=payload_codec)
        assert decode_selection(enc) == sel

    def test_compression_shrinks_wire(self):
        grid = make_sphere_grid(16)
        sel = prefilter_contour(grid, "r", [5.0])
        raw = wire_size(encode_selection(sel, "auto"))
        lz4 = wire_size(encode_selection(sel, "auto", payload_codec="lz4"))
        assert lz4 < raw

    def test_codec_recorded(self):
        sel = make_sel([1, 5])
        enc = encode_selection(sel, "ids", payload_codec="lz4")
        assert enc["payload_codec"] == "lz4"
        assert "payload_codec" not in encode_selection(sel, "ids")

    def test_msgpack_transportable_compressed(self):
        grid = make_sphere_grid(12)
        sel = prefilter_contour(grid, "r", [3.0])
        enc = encode_selection(sel, payload_codec="gzip")
        assert decode_selection(unpack(pack(enc))) == sel

    def test_corrupt_compressed_payload(self):
        sel = make_sel(range(100))
        enc = encode_selection(sel, "ids", payload_codec="gzip")
        enc["values"] = b"not gzip"
        from repro.errors import CodecError
        with pytest.raises(CodecError):
            decode_selection(enc)


class TestWireSize:
    def test_counts_payload_bytes(self):
        sel = make_sel(range(100))
        enc = encode_selection(sel, "ids")
        assert wire_size(enc) >= len(enc["values"]) + len(enc["id_deltas"])

    def test_sparse_much_smaller_than_dense(self):
        grid = make_sphere_grid(20)
        sel = prefilter_contour(grid, "r", [5.0])
        raw_bytes = grid.point_data.get("r").nbytes
        assert wire_size(encode_selection(sel)) < raw_bytes / 4


class TestMalformed:
    def test_unknown_method(self):
        sel = make_sel([1])
        with pytest.raises(FormatError):
            encode_selection(sel, "blocks3000")
        enc = encode_selection(sel)
        enc["method"] = "bogus"
        with pytest.raises(FormatError, match="method"):
            decode_selection(enc)

    def test_missing_field(self):
        enc = encode_selection(make_sel([1]))
        del enc["dims"]
        with pytest.raises(FormatError):
            decode_selection(enc)

    def test_count_mismatch(self):
        enc = encode_selection(make_sel([1, 2]))
        enc["count"] = 5
        with pytest.raises(FormatError):
            decode_selection(enc)

    def test_bitmap_popcount_mismatch(self):
        enc = encode_selection(make_sel([1, 2]), "bitmap")
        enc["count"] = 1
        with pytest.raises(FormatError):
            decode_selection(enc)

    def test_bad_width(self):
        enc = encode_selection(make_sel([1, 2]), "ids")
        enc["id_width"] = 3
        with pytest.raises(FormatError, match="width"):
            decode_selection(enc)

    def test_out_of_range_ids_rejected(self):
        enc = encode_selection(make_sel([1, 2]), "ids")
        enc["id_first"] = 10**9
        with pytest.raises(FormatError, match="invalid"):
            decode_selection(enc)


class TestReplyChecksum:
    """The pre-filter reply stamp: attach, verify, tamper, compat."""

    def _encoded(self):
        from repro.core.encoding import attach_checksum

        sel = make_sel([0, 7, 8, 500, 999])
        return attach_checksum(encode_selection(sel, "ids"))

    def test_stamped_reply_round_trips(self):
        sel = make_sel([0, 7, 8, 500, 999])
        from repro.core.encoding import attach_checksum

        assert decode_selection(attach_checksum(encode_selection(sel, "ids"))) == sel

    def test_stamp_fields_present(self):
        from repro.io.checksum import DEFAULT_ALGO

        encoded = self._encoded()
        assert isinstance(encoded["crc"], int)
        assert encoded["crc_algo"] == DEFAULT_ALGO

    def test_tampered_payload_detected(self):
        from repro.errors import IntegrityError

        encoded = self._encoded()
        payload = bytearray(encoded["id_deltas"])
        payload[0] ^= 0x01
        encoded["id_deltas"] = bytes(payload)
        with pytest.raises(IntegrityError, match="encoded selection reply"):
            decode_selection(encoded)

    def test_tampered_metadata_detected(self):
        from repro.errors import IntegrityError

        encoded = self._encoded()
        encoded["count"] = encoded["count"] + 1
        with pytest.raises(IntegrityError):
            decode_selection(encoded)

    def test_tampered_stamp_itself_detected(self):
        from repro.errors import IntegrityError

        encoded = self._encoded()
        encoded["crc"] ^= 0xDEADBEEF
        with pytest.raises(IntegrityError):
            decode_selection(encoded)

    def test_unstamped_replies_still_decode(self):
        """Wire compat: replies from checksum-free servers verify nothing."""
        sel = make_sel([1, 2, 3])
        encoded = encode_selection(sel, "ids")
        assert "crc" not in encoded
        assert decode_selection(encoded) == sel

    def test_stamp_survives_msgpack_round_trip(self):
        """The digest is key-order independent: a reply that crossed the
        wire (dict order potentially changed) must still verify."""
        encoded = self._encoded()
        shuffled = dict(sorted(encoded.items(), reverse=True))
        assert decode_selection(unpack(pack(shuffled))) is not None

    def test_restamping_replaces_the_old_stamp(self):
        from repro.core.encoding import attach_checksum

        encoded = self._encoded()
        again = attach_checksum(dict(encoded))
        assert again["crc"] == encoded["crc"]
