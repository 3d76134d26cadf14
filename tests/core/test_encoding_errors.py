"""The selection-decode error channel: corrupt encodings must fail loudly.

Every malformed wire shape a selection reply can take — truncated or
oversized bitmaps, set padding bits, misaligned or short delta payloads,
malformed axes — must surface as :class:`~repro.errors.FormatError`,
never as a silently different geometry.  Each corruption is asserted
twice: decoding the dict locally, and decoding it after a real TCP RPC
round trip (the reply is deliberately *unstamped*, so the decoder's own
validation — not the checksum — is what catches it, matching what an
old or checksum-disabled peer would experience).
"""

import numpy as np
import pytest

from repro.core.encoding import _pack_ids, decode_selection, encode_selection
from repro.errors import FormatError, SelectionError
from repro.grid import PointSelection
from repro.rpc import RPCClient, RPCServer

DIMS = (5, 5, 5)  # 125 points: not a multiple of 8, so the bitmap has pad bits


def make_sel(with_axes: bool = False) -> PointSelection:
    ids = np.array([0, 3, 17, 42, 101, 124], dtype=np.int64)
    values = (ids * 0.25).astype(np.float32)
    axes = None
    if with_axes:
        axes = tuple(np.linspace(0.0, 1.0, d) for d in DIMS)
    return PointSelection(DIMS, (0, 0, 0), (1, 1, 1), "f", ids, values,
                          axes=axes)


def make_ids_sel() -> PointSelection:
    # Deltas of 300/600 force a 2-byte delta width, so a one-byte chop
    # genuinely misaligns the payload (1-byte deltas can't misalign).
    ids = np.array([0, 300, 900], dtype=np.int64)
    values = (ids * 0.25).astype(np.float32)
    return PointSelection((10, 10, 10), (0, 0, 0), (1, 1, 1), "f", ids, values)


def _corrupt(encoded: dict, kind: str) -> dict:
    """Apply one named wire-level corruption to an encoded selection."""
    out = {
        k: bytes(v) if isinstance(v, (bytes, bytearray, memoryview)) else v
        for k, v in encoded.items()
    }
    if kind == "bitmap_truncated":
        out["bitmap"] = out["bitmap"][:-1]
    elif kind == "bitmap_oversized":
        out["bitmap"] = out["bitmap"] + b"\x00"
    elif kind == "bitmap_padding_bit":
        # Point 127 of a 125-point grid: a bit past the last real point.
        body, last = out["bitmap"][:-1], out["bitmap"][-1]
        out["bitmap"] = body + bytes([last | 0x01])
    elif kind == "ids_misaligned":
        out["id_deltas"] = out["id_deltas"] + b"\x01"
    elif kind == "ids_short":
        width = int(out["id_width"])
        out["id_deltas"] = out["id_deltas"][: -width or None]
    elif kind == "values_misaligned":
        out["values"] = out["values"][:-1]
    elif kind == "axes_misaligned":
        out["axes"] = [bytes(out["axes"][0])[:-3]] + [
            bytes(a) for a in out["axes"][1:]
        ]
    elif kind == "axes_wrong_length":
        out["axes"] = [bytes(out["axes"][0]) + np.float64(9.0).tobytes()] + [
            bytes(a) for a in out["axes"][1:]
        ]
    else:
        raise AssertionError(f"unknown corruption {kind!r}")
    return out


BITMAP_KINDS = ("bitmap_truncated", "bitmap_oversized", "bitmap_padding_bit")
IDS_KINDS = ("ids_misaligned", "ids_short", "values_misaligned")
AXES_KINDS = ("axes_misaligned", "axes_wrong_length")


def _encoded_for(kind: str) -> dict:
    if kind in BITMAP_KINDS:
        return encode_selection(make_sel(), method="bitmap")
    if kind in AXES_KINDS:
        return encode_selection(make_sel(with_axes=True), method="ids")
    return encode_selection(make_ids_sel(), method="ids")


ALL_KINDS = BITMAP_KINDS + IDS_KINDS + AXES_KINDS


class TestLocalDecode:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_corruption_raises_format_error(self, kind):
        with pytest.raises(FormatError):
            decode_selection(_corrupt(_encoded_for(kind), kind))

    def test_control_decodes_clean(self):
        # The uncorrupted twin of every case above decodes fine.
        for with_axes in (False, True):
            sel = make_sel(with_axes=with_axes)
            for method in ("ids", "bitmap"):
                assert np.array_equal(
                    decode_selection(encode_selection(sel, method=method)).ids,
                    sel.ids,
                )

    def test_bitmap_popcount_mismatch(self):
        # Flipping a clear bit *inside* the grid changes the popcount,
        # which must disagree with the declared count.
        enc = {
            k: bytes(v) if isinstance(v, (bytes, bytearray, memoryview)) else v
            for k, v in encode_selection(make_sel(), method="bitmap").items()
        }
        body = bytearray(enc["bitmap"])
        body[1] |= 0x40  # point 9, not selected by make_sel
        enc["bitmap"] = bytes(body)
        with pytest.raises(FormatError, match="set bits"):
            decode_selection(enc)

    def test_pack_ids_rejects_non_monotonic(self):
        # Unsorted/duplicate ids would wrap to huge unsigned deltas and
        # decode as plausible garbage; the encoder must refuse instead.
        for bad in ([5, 3], [2, 2], [7, 1, 9]):
            with pytest.raises(SelectionError, match="strictly increasing"):
                _pack_ids(np.asarray(bad, dtype=np.int64))


class TestAcrossRPC:
    """The same corruptions produced server-side and decoded client-side,
    over a real TCP socket — the error channel survives the wire."""

    @pytest.fixture(scope="class")
    def tcp_client(self):
        def reply(kind: str) -> dict:
            if kind == "clean":
                return encode_selection(make_sel(), method="ids")
            return _corrupt(_encoded_for(kind), kind)

        srv = RPCServer({"reply": reply})
        listener = srv.serve_tcp()
        cli = RPCClient.connect_tcp(listener.host, listener.port)
        yield cli
        cli.close()
        listener.stop()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_corruption_raises_format_error(self, tcp_client, kind):
        encoded = tcp_client.call("reply", kind)
        with pytest.raises(FormatError):
            decode_selection(encoded)

    def test_clean_reply_round_trips(self, tcp_client):
        sel = decode_selection(tcp_client.call("reply", "clean"))
        assert np.array_equal(sel.ids, make_sel().ids)
