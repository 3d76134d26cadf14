"""Wire encodings for point selections.

What actually crosses the network in an NDP run is an encoded
:class:`~repro.grid.selection.PointSelection`.  Its size — relative to the
full (possibly compressed) array — is the whole ballgame, so the encoding
deserves care and an ablation (benchmark ``test_abl_encoding``).  Three
schemes:

* ``"ids"`` — delta-coded sorted point ids (packed to the narrowest
  integer width that fits the largest delta) + raw values.  Wins at low
  selectivity, which the paper shows is the common case.
* ``"bitmap"`` — a bit-packed presence mask over all grid points + raw
  values.  Fixed ~0.125 bits/point overhead; wins at high selectivity.
* ``"auto"`` — whichever of the two is smaller for this selection.

Independently of the method, the bulk payload fields (values and ids or
bitmap) can be compressed with any registered codec (requests default
to :data:`~repro.core.filter_splits.DEFAULT_WIRE_CODEC`, gzip): selection
values cluster around the contour values and delta-coded ids are tiny
integers, so the paper's Fig. 9 observation that compression and NDP
compose extends to the selection wire format itself — typically a
further 2-4x (see the ``test_abl_encoding`` benchmark).  The paper ships
LZ4, native and cheap in VTK; here LZ4 is pure Python and zlib encodes
the same reply about ten times faster and smaller, so gzip is what a
server sends unless asked.  The simulated testbed still prices the
paper's codec (:data:`~repro.storage.netsim.NATIVE_WIRE_CODEC`).

Every encoding is a flat dict of msgpack-friendly values (strs, ints,
bytes), so it rides the RPC layer without auxiliary framing.

Integrity: every reply a server or edge sends is stamped by
:func:`attach_checksum` with a digest over its canonical serialization
(every field except the stamp itself).  :func:`verify_reply` is the one
check of a stamp, made by :func:`decode_selection` before it trusts any
field and by the edge before it caches a reply; a mismatch raises
:class:`~repro.errors.IntegrityError`.
"""

from __future__ import annotations

import numpy as np

from repro.compression import get_codec
from repro.errors import FormatError, IntegrityError, SelectionError
from repro.grid.selection import PointSelection
from repro.io.checksum import DEFAULT_ALGO, checksum
from repro.io.checksum import verify as verify_bytes
from repro.rpc.msgpack import pack

__all__ = [
    "encode_selection",
    "decode_selection",
    "attach_checksum",
    "verify_reply",
    "finish_reply",
    "wire_size",
    "ids_wire_bytes_per_point",
    "ENCODINGS",
]

ENCODINGS = ("auto", "ids", "bitmap")

_WIDTH_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def ids_wire_bytes_per_point(value_dtype="<f4", id_delta_width: int = 4) -> float:
    """Wire bytes per selected point under the ``ids`` encoding.

    One selected point costs its value (``value_dtype`` itemsize) plus
    one delta-coded id at ``id_delta_width`` bytes.  The defaults —
    float32 values, the conservative 4-byte delta width — reproduce the
    cost-model constant the planner historically hard-coded (8.0), but
    now anchored to this module's actual layout: change the wire format
    and the planner's estimate moves with it.
    """
    if id_delta_width not in _WIDTH_DTYPES:
        raise SelectionError(
            f"id delta width must be one of {sorted(_WIDTH_DTYPES)}, "
            f"got {id_delta_width}"
        )
    return float(np.dtype(value_dtype).itemsize + id_delta_width)


def _wire_view(arr: np.ndarray) -> memoryview:
    """Zero-copy bytes-like view of a contiguous array.

    The view keeps the array alive, so the payload rides through the
    msgpack encoder (which appends buffers directly) without ever
    materializing an intermediate ``bytes`` copy.
    """
    return memoryview(np.ascontiguousarray(arr)).cast("B")


def _pack_ids(ids: np.ndarray) -> tuple:
    """Delta-encode sorted ids; returns (payload view, width, first_id)."""
    if ids.size == 0:
        return b"", 1, 0
    deltas = np.diff(ids)
    # Unsorted or duplicated ids would wrap negative deltas on the
    # unsigned astype below and come out as a *plausible* corrupt
    # encoding — refuse loudly instead.
    if deltas.size and int(deltas.min()) <= 0:
        raise SelectionError(
            "ids must be strictly increasing to delta-encode; "
            "got a non-positive delta"
        )
    first = int(ids[0])
    peak = int(deltas.max()) if deltas.size else 0
    width = 8
    for w in (1, 2, 4, 8):
        if peak < (1 << (8 * w)):
            width = w
            break
    return _wire_view(deltas.astype(_WIDTH_DTYPES[width])), width, first


def _unpack_ids(payload, width: int, first: int, count: int) -> np.ndarray:
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if width not in _WIDTH_DTYPES:
        raise FormatError(f"bad id delta width {width}")
    try:
        deltas = np.frombuffer(payload, dtype=_WIDTH_DTYPES[width])
    except ValueError as exc:
        # e.g. "buffer size must be a multiple of element size": a
        # misaligned payload is a wire-format violation, and the RPC
        # error contract promises FormatError for those.
        raise FormatError(
            f"id payload of {len(payload)} bytes is not a whole number of "
            f"{width}-byte deltas: {exc}"
        ) from exc
    if deltas.size != count - 1:
        raise FormatError(
            f"id payload holds {deltas.size} deltas; expected {count - 1}"
        )
    ids = np.empty(count, dtype=np.int64)
    ids[0] = first
    ids[1:] = first + np.cumsum(deltas.astype(np.int64))
    return ids


#: Encoding fields holding bulk payload (candidates for payload_codec).
_PAYLOAD_FIELDS = ("values", "id_deltas", "bitmap")


def _compress_payload(encoded: dict, payload_codec: str) -> dict:
    if payload_codec == "raw":
        return encoded
    codec = get_codec(payload_codec)
    out = dict(encoded, payload_codec=payload_codec)
    for field in _PAYLOAD_FIELDS:
        if field in out:
            out[field] = codec.compress(out[field])
    return out


def encode_selection(
    sel: PointSelection, method: str = "auto", payload_codec: str = "raw"
) -> dict:
    """Encode a selection for the wire.

    Returns a msgpack-serializable dict; :func:`wire_size` reports the
    size benchmarks should charge to the network.  ``payload_codec``
    compresses the bulk fields with a registered codec.
    """
    if method not in ENCODINGS:
        raise FormatError(f"unknown encoding {method!r}; use one of {ENCODINGS}")
    base = {
        "dims": list(sel.dims),
        "origin": list(sel.origin),
        "spacing": list(sel.spacing),
        "array": sel.array_name,
        "dtype": sel.values.dtype.str,
        "count": int(sel.count),
        # Zero-copy: payload fields are buffer views of the selection's
        # arrays (the msgpack encoder appends them without intermediate
        # bytes objects), so treat the selection as frozen once encoded.
        "values": _wire_view(sel.values),
    }
    if sel.axes is not None:
        # Rectilinear structure: three small float64 coordinate arrays.
        base["axes"] = [_wire_view(a) for a in sel.axes]

    id_payload, width, first = _pack_ids(sel.ids)
    ids_enc = dict(base, method="ids", id_deltas=id_payload, id_width=width, id_first=first)

    if method == "ids":
        return _compress_payload(ids_enc, payload_codec)

    mask = np.zeros(sel.total_points, dtype=bool)
    mask[sel.ids] = True
    bitmap_enc = dict(base, method="bitmap", bitmap=_wire_view(np.packbits(mask)))

    if method == "bitmap":
        return _compress_payload(bitmap_enc, payload_codec)
    a = _compress_payload(ids_enc, payload_codec)
    # Both candidates carry the same values buffer, most of the bytes:
    # the bitmap one takes it, already compressed, from the ids one.
    b = dict(bitmap_enc, values=a["values"])
    if payload_codec != "raw":
        b["bitmap"] = get_codec(payload_codec).compress(b["bitmap"])
        b["payload_codec"] = payload_codec
    return a if wire_size(a) <= wire_size(b) else b


# Keys excluded from the digest: the stamp itself, plus the live shard-map
# version token.  ``map_version`` is advisory routing metadata stamped
# *after* the cached reply body (a server must be able to advertise a new
# map on a cache hit without recomputing the digest), and the manifest the
# token points at is independently signed — so excluding it costs no
# integrity coverage.
_CHECKSUM_KEYS = frozenset({"crc", "crc_algo", "map_version"})


def _digest_bytes(encoded: dict) -> bytes:
    """Canonical bytes of an encoding for checksumming.

    Key-sorted ``[key, value]`` pairs through the deterministic msgpack
    encoder: insertion order, which differs between encode paths, never
    affects the digest — only content does.
    """
    return pack(
        [[key, encoded[key]] for key in sorted(encoded) if key not in _CHECKSUM_KEYS]
    )


def attach_checksum(encoded: dict, algo: str = DEFAULT_ALGO) -> dict:
    """Return a copy of ``encoded`` stamped with an integrity checksum.

    Applied to the final wire dict (after payload compression), so the
    digest covers exactly the bytes that cross the link.
    """
    out = dict(encoded)
    out.pop("crc", None)
    out.pop("crc_algo", None)
    out["crc"] = checksum(_digest_bytes(out), algo)
    out["crc_algo"] = algo
    return out


def verify_reply(encoded: dict) -> None:
    """The one reply check: ``encoded``'s stamp against its content, or
    :class:`~repro.errors.IntegrityError` (an unstamped reply fails too)."""
    if not isinstance(encoded, dict) or "crc" not in encoded:
        raise IntegrityError("encoded selection reply carries no checksum")
    verify_bytes(_digest_bytes(encoded), encoded["crc"],
                 encoded.get("crc_algo", DEFAULT_ALGO),
                 "encoded selection reply")


def finish_reply(
    selection: PointSelection,
    block_stats: dict,
    encoding: str,
    wire_codec: str,
    testbed=None,
) -> dict:
    """The tail every pre-filter reply shares: encode, stats, stamp.

    ``block_stats`` describes what was read to produce ``selection``
    (``stored_bytes``, ``raw_bytes``, ``codec``, in that order — see
    :meth:`~repro.io.vgf.ArrayInfo.stats`).  The NDP server and the
    edge tier both finish here, which is what keeps a reply computed at
    the edge byte-equal — key order and CRC included — to the one the
    storage site would have sent.  A ``testbed`` is charged the wire
    compression on its simulated clock.
    """
    encoded = encode_selection(selection, method=encoding, payload_codec=wire_codec)
    if testbed is not None and wire_codec != "raw":
        testbed.charge_compress(wire_codec, selection.payload_nbytes)
    encoded["stats"] = {
        **block_stats,
        "selected_points": int(selection.count),
        "total_points": int(selection.total_points),
        "wire_bytes": wire_size(encoded),
    }
    # Stamp covers everything that crosses the wire (stats too); the
    # client verifies at decode before trusting a byte.
    return attach_checksum(encoded)


def decode_selection(encoded: dict) -> PointSelection:
    """Rebuild a :class:`PointSelection` from :func:`encode_selection` output.

    A reply stamped by :func:`attach_checksum` is verified
    (:func:`verify_reply`) before any field is trusted; mismatch raises
    :class:`~repro.errors.IntegrityError`.
    """
    if "crc" in encoded:
        verify_reply(encoded)
    payload_codec = encoded.get("payload_codec", "raw")
    if payload_codec != "raw":
        codec = get_codec(payload_codec)
        encoded = dict(encoded)
        for field in _PAYLOAD_FIELDS:
            if field in encoded:
                encoded[field] = codec.decompress(encoded[field])
    try:
        method = encoded["method"]
        dims = tuple(int(v) for v in encoded["dims"])
        origin = tuple(float(v) for v in encoded["origin"])
        spacing = tuple(float(v) for v in encoded["spacing"])
        array = encoded["array"]
        dtype = np.dtype(encoded["dtype"])
        count = int(encoded["count"])
        values = np.frombuffer(encoded["values"], dtype=dtype)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed selection encoding: {exc}") from exc
    if values.size != count:
        raise FormatError(f"{values.size} values for {count} declared points")

    if method == "ids":
        ids = _unpack_ids(
            encoded["id_deltas"], int(encoded["id_width"]), int(encoded["id_first"]), count
        )
    elif method == "bitmap":
        total = dims[0] * dims[1] * dims[2]
        packed = np.frombuffer(encoded["bitmap"], dtype=np.uint8)
        expected = (total + 7) // 8
        # np.unpackbits(..., count=total) would zero-pad a truncated
        # bitmap and silently ignore bits past ``total`` in an oversized
        # one — exactly the shapes a corrupted unstamped reply takes.
        # Validate the byte length and the padding bits explicitly.
        if packed.size != expected:
            raise FormatError(
                f"bitmap holds {packed.size} bytes; {expected} required "
                f"for {total} grid points"
            )
        if total % 8 and packed.size:
            pad = np.unpackbits(packed[-1:])[total % 8 :]
            if pad.any():
                raise FormatError(
                    "bitmap has set bits past the grid's last point"
                )
        bits = np.unpackbits(packed, count=total)
        ids = np.nonzero(bits)[0].astype(np.int64)
        if ids.size != count:
            raise FormatError(
                f"bitmap has {ids.size} set bits; header declares {count}"
            )
    else:
        raise FormatError(f"unknown selection encoding method {method!r}")
    axes = None
    if "axes" in encoded:
        try:
            axes = tuple(
                np.frombuffer(blob, dtype=np.float64) for blob in encoded["axes"]
            )
        except (TypeError, ValueError) as exc:
            raise FormatError(f"malformed axes payload: {exc}") from exc
    if payload_codec == "raw":
        # The values view aliases the caller's reply buffer: copy so the
        # selection does not pin a whole RPC frame.  Decompressed payloads
        # are already exclusively ours — np.frombuffer above was the only
        # copy-free step left, so no second copy happens.
        values = values.copy()
    try:
        return PointSelection(dims, origin, spacing, array, ids, values,
                              axes=axes)
    except SelectionError as exc:
        raise FormatError(f"decoded selection is invalid: {exc}") from exc


_BUFFER_TYPES = (bytes, bytearray, memoryview)


def wire_size(encoded: dict) -> int:
    """Bytes this encoding puts on the wire (payload fields + small header)."""
    size = 0
    for key, value in encoded.items():
        if isinstance(value, _BUFFER_TYPES):
            size += len(value)
        elif isinstance(value, list) and value and isinstance(value[0], _BUFFER_TYPES):
            size += sum(len(v) for v in value)
        else:
            size += 16  # header-ish field: generous flat estimate
        size += len(key)
    return size
