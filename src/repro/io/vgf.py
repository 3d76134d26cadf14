"""VGF: a binary uniform-grid container with per-array compressed blocks.

Layout::

    b"VGF1"                       magic, 4 bytes
    uint32 LE                     header length H
    H bytes                       MessagePack header (see below)
    data section                  concatenated array blocks

Header map::

    {
      "dims":    [nx, ny, nz],
      "origin":  [x, y, z],
      "spacing": [sx, sy, sz],
      "meta":    {...},                       # free-form user metadata
      "arrays":  [ {"name": str, "dtype": str, "components": int,
                    "association": "point"|"cell", "codec": str,
                    "offset": int,            # into the data section
                    "stored_bytes": int,      # compressed block size
                    "raw_bytes": int,         # decompressed payload size
                    "crc": int,               # checksum of the stored block
                    "crc_algo": str},         # engine that produced it
                   ... ],
      "header_crc": int                       # self-check, see below
    }

Reading an array needs only the header plus one ranged read of its block —
which is what makes array selection genuinely cheap through the s3fs
layer: unselected arrays' bytes never leave the store.

Integrity: each array block carries a checksum over its *stored*
(compressed) bytes — computed before anything crosses a link, verified on
every read — and the header protects itself with ``header_crc``, a
checksum over the canonical MessagePack encoding of the header map minus
that one key (our encoder is deterministic and round-trips its own
output byte-for-byte, so the reader re-packs and compares).  A bit-flip
anywhere in a checksummed file therefore surfaces as
:class:`~repro.errors.IntegrityError` / :class:`~repro.errors.FormatError`,
never as silently-wrong geometry.  Both keys are optional: files written
before checksums existed (or with ``checksums=False``) still load.
"""

from __future__ import annotations

import io as _io
import struct
from dataclasses import dataclass

import numpy as np

from repro.compression import get_codec
from repro.errors import CodecError, FormatError, IntegrityError
from repro.grid.array import DataArray
from repro.grid.rectilinear import RectilinearGrid
from repro.grid.uniform import UniformGrid
from repro.io.checksum import DEFAULT_ALGO, checksum
from repro.io.checksum import verify as verify_bytes
from repro.rpc.msgpack import pack, unpack

__all__ = [
    "write_vgf",
    "read_vgf",
    "read_vgf_info",
    "read_vgf_array",
    "read_vgf_block",
    "StoredBlock",
    "array_collection",
    "verify_vgf",
    "VGFInfo",
    "ArrayInfo",
]

_MAGIC = b"VGF1"
_LEN = struct.Struct("<I")


@dataclass(frozen=True)
class ArrayInfo:
    """Descriptor of one stored array block."""

    name: str
    dtype: str
    components: int
    association: str
    codec: str
    offset: int
    stored_bytes: int
    raw_bytes: int
    checksum: int | None = None  # over the *stored* (compressed) block
    checksum_algo: str | None = None

    def stats(self) -> dict:
        """The block facts every reply's ``stats`` leads with."""
        return {
            "stored_bytes": self.stored_bytes,
            "raw_bytes": self.raw_bytes,
            "codec": self.codec,
        }


@dataclass(frozen=True)
class VGFInfo:
    """Decoded VGF header: grid structure plus array descriptors."""

    dims: tuple[int, int, int]
    origin: tuple[float, float, float]
    spacing: tuple[float, float, float]
    meta: dict
    arrays: tuple[ArrayInfo, ...]
    data_start: int  # absolute file offset of the data section
    axes: tuple | None = None  # rectilinear per-axis coordinates

    def make_grid(self):
        """An empty grid of the stored structure (uniform or rectilinear)."""
        if self.axes is not None:
            return RectilinearGrid(*self.axes)
        return UniformGrid(self.dims, self.origin, self.spacing)

    def array(self, name: str) -> ArrayInfo:
        for info in self.arrays:
            if info.name == name:
                return info
        raise FormatError(
            f"no array {name!r} in file; available: {[a.name for a in self.arrays]}"
        )

    def array_names(self) -> list[str]:
        return [a.name for a in self.arrays]


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def write_vgf(
    grid,
    codec: str | dict[str, str] = "raw",
    meta: dict | None = None,
    checksums: bool = True,
) -> bytes:
    """Serialize a grid to VGF bytes.

    Parameters
    ----------
    grid:
        The :class:`UniformGrid` or :class:`RectilinearGrid` to store
        (point and cell arrays included).
    codec:
        A codec name applied to every array, or a ``{array_name: codec}``
        dict (unlisted arrays fall back to ``"raw"``).
    meta:
        Free-form metadata stored in the header (e.g. timestep number).
    checksums:
        Write per-array block checksums plus the header self-check
        (default).  ``False`` reproduces the pre-checksum format
        byte-for-byte — kept for wire/file compatibility tests.
    """

    def codec_for(name: str) -> str:
        if isinstance(codec, str):
            return codec
        return codec.get(name, "raw")

    blocks: list[bytes] = []
    array_entries: list[dict] = []
    offset = 0
    for association, collection in (("point", grid.point_data), ("cell", grid.cell_data)):
        for arr in collection:
            cname = codec_for(arr.name)
            payload = np.ascontiguousarray(arr.values).tobytes()
            stored = get_codec(cname).compress(payload)
            blocks.append(stored)
            entry = {
                "name": arr.name,
                "dtype": arr.values.dtype.str,
                "components": arr.components,
                "association": association,
                "codec": cname,
                "offset": offset,
                "stored_bytes": len(stored),
                "raw_bytes": len(payload),
            }
            if checksums:
                entry["crc"] = checksum(stored)
                entry["crc_algo"] = DEFAULT_ALGO
            array_entries.append(entry)
            offset += len(stored)

    header_map = {
        "dims": list(grid.dims),
        "meta": meta or {},
        "arrays": array_entries,
    }
    if isinstance(grid, RectilinearGrid):
        header_map["origin"] = [0.0, 0.0, 0.0]
        header_map["spacing"] = [1.0, 1.0, 1.0]
        header_map["axes"] = [
            np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in grid.axes
        ]
    else:
        header_map["origin"] = list(grid.origin)
        header_map["spacing"] = list(grid.spacing)
    if checksums:
        # Self-check over the header minus the "header_crc" key: pack,
        # digest, append last.  The reader pops that key, re-packs the rest
        # (our encoder is deterministic) and compares.
        header_map["header_crc_algo"] = DEFAULT_ALGO
        header_map["header_crc"] = checksum(pack(header_map))
    header = pack(header_map)
    return _MAGIC + _LEN.pack(len(header)) + header + b"".join(blocks)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def _open(source) -> _io.IOBase:
    """Accept bytes or a seekable binary file-like object."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        return _io.BytesIO(bytes(source))
    return source


def read_vgf_info(source) -> VGFInfo:
    """Read and decode the header only (one small read + header read)."""
    fh = _open(source)
    fh.seek(0)
    prefix = fh.read(len(_MAGIC) + _LEN.size)
    if len(prefix) < len(_MAGIC) + _LEN.size or prefix[: len(_MAGIC)] != _MAGIC:
        raise FormatError("not a VGF file (bad magic)")
    (hlen,) = _LEN.unpack(prefix[len(_MAGIC) :])
    header_bytes = fh.read(hlen)
    if len(header_bytes) != hlen:
        raise FormatError("truncated VGF header")
    try:
        # zero_copy: axes blobs decode as views over header_bytes, so
        # np.frombuffer below never duplicates the coordinate arrays.
        header = unpack(header_bytes, zero_copy=True)
    except FormatError as exc:
        raise FormatError(f"undecodable VGF header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("malformed VGF header: not a map")
    if "header_crc" in header:
        # Re-pack everything except the trailing self-check key (dict order
        # is preserved by unpack, and pack round-trips deterministically).
        stated = header.pop("header_crc")
        algo = header.get("header_crc_algo", DEFAULT_ALGO)
        verify_bytes(pack(header), stated, algo, "VGF header")
    try:
        arrays = tuple(
            ArrayInfo(
                name=e["name"],
                dtype=e["dtype"],
                components=int(e["components"]),
                association=e["association"],
                codec=e["codec"],
                offset=int(e["offset"]),
                stored_bytes=int(e["stored_bytes"]),
                raw_bytes=int(e["raw_bytes"]),
                checksum=int(e["crc"]) if "crc" in e else None,
                checksum_algo=e.get("crc_algo"),
            )
            for e in header["arrays"]
        )
        axes = None
        if "axes" in header:
            axes = tuple(
                np.frombuffer(blob, dtype=np.float64) for blob in header["axes"]
            )
        info = VGFInfo(
            dims=tuple(int(v) for v in header["dims"]),
            origin=tuple(float(v) for v in header["origin"]),
            spacing=tuple(float(v) for v in header["spacing"]),
            meta=header["meta"],
            arrays=arrays,
            data_start=len(_MAGIC) + _LEN.size + hlen,
            axes=axes,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed VGF header: {exc}") from exc
    return info


def read_vgf_block(
    source, name: str, info: VGFInfo | None = None, verify: bool = True
) -> tuple[bytes, ArrayInfo]:
    """Read one array's *stored* (still-compressed) block, not decoded.

    The single ranged read behind :func:`read_vgf_array` and the NDP
    server's :class:`StoredBlock`.  Checksum verification over the stored
    bytes happens here, so every consumer gets the same integrity
    guarantee.
    """
    fh = _open(source)
    if info is None:
        info = read_vgf_info(fh)
    entry = info.array(name)
    fh.seek(info.data_start + entry.offset)
    stored = fh.read(entry.stored_bytes)
    if len(stored) != entry.stored_bytes:
        raise FormatError(f"truncated block for array {name!r}")
    if verify and entry.checksum is not None:
        verify_bytes(
            stored,
            entry.checksum,
            entry.checksum_algo or DEFAULT_ALGO,
            f"array {name!r} block",
        )
    return stored, entry


#: the :class:`ArrayInfo` fields a ``read_block`` reply carries, in order
_WIRE_FIELDS = ("name", "dtype", "components", "association", "codec",
                "stored_bytes", "raw_bytes")


@dataclass(frozen=True)
class StoredBlock:
    """One array's stored (still-compressed) block plus what decodes it.

    What a server ships for ``read_block`` and what every scan starts
    from (:meth:`grid`), so a block read near the store and one pulled
    across the WAN by the edge tier decode through the same code.
    """

    info: VGFInfo
    entry: ArrayInfo
    stored: bytes

    def to_wire(self, version) -> dict:
        """The ``read_block`` reply: header fields, the decode recipe, the
        stored bytes and the store ``version`` token they were read under."""
        entry, info = self.entry, self.info
        out = {
            "dims": list(info.dims),
            "origin": list(info.origin),
            "spacing": list(info.spacing),
            "array": {name: getattr(entry, name) for name in _WIRE_FIELDS},
            "stored": self.stored,
            "version": list(version) if isinstance(version, tuple) else version,
        }
        if info.axes is not None:
            out["axes"] = [
                np.ascontiguousarray(axis, dtype=np.float64).tobytes()
                for axis in info.axes
            ]
        return out

    @classmethod
    def from_wire(cls, reply: dict) -> "StoredBlock":
        """Inverse of :meth:`to_wire` (the version token is not kept)."""
        entry = ArrayInfo(offset=0, **reply["array"])
        axes = None
        if reply.get("axes"):
            axes = tuple(np.frombuffer(bytes(blob), dtype=np.float64)
                         for blob in reply["axes"])
        info = VGFInfo(
            tuple(reply["dims"]), tuple(reply["origin"]),
            tuple(reply["spacing"]), {}, (entry,), 0, axes,
        )
        return cls(info, entry, bytes(reply["stored"]))

    def grid(self):
        """A grid of the stored structure holding just this array, decoded
        once; its values are a read-only view over the decoded bytes."""
        grid = self.info.make_grid()
        array_collection(grid, self.entry).add(
            _decode(self.stored, self.entry))
        return grid


def _decode(stored, entry: ArrayInfo) -> DataArray:
    """``entry``'s block decoded as a zero-copy view; a corrupt block or a
    size other than the header's is a :class:`FormatError`."""
    try:
        payload = get_codec(entry.codec).decompress(stored)
    except CodecError as exc:
        raise FormatError(
            f"array {entry.name!r}: corrupt {entry.codec} block: {exc}"
        ) from exc
    if len(payload) != entry.raw_bytes:
        raise FormatError(
            f"array {entry.name!r}: decoded {len(payload)} bytes, header says "
            f"{entry.raw_bytes}"
        )
    values = np.frombuffer(payload, dtype=np.dtype(entry.dtype))
    return DataArray(entry.name, values, components=entry.components)


def array_collection(grid, entry: ArrayInfo):
    """The attribute collection of ``grid`` that ``entry``'s association names."""
    return grid.cell_data if entry.association == "cell" else grid.point_data


def read_vgf_array(
    source, name: str, info: VGFInfo | None = None, verify: bool = True,
) -> tuple[DataArray, ArrayInfo]:
    """Read one array block (a single ranged read) and decode it into a
    writable array the caller owns.

    When the header carries a checksum for the block and ``verify`` is
    true (default), the stored bytes are verified before decompression;
    a mismatch raises :class:`~repro.errors.IntegrityError`.  Files
    written without checksums skip verification.
    """
    stored, entry = read_vgf_block(source, name, info, verify=verify)
    arr = _decode(stored, entry)
    return DataArray(arr.name, arr.values.copy(), arr.components), entry


def read_vgf(source, array_names: list[str] | None = None, verify: bool = True):
    """Read a grid, optionally restricted to selected arrays.

    ``array_names=None`` loads everything; otherwise only the named arrays
    are fetched and decoded — the format's array-selection fast path.
    Returns a :class:`UniformGrid` or :class:`RectilinearGrid` according
    to the stored structure.
    """
    fh = _open(source)
    info = read_vgf_info(fh)
    grid = info.make_grid()
    wanted = info.array_names() if array_names is None else list(array_names)
    for name in wanted:
        arr, entry = read_vgf_array(fh, name, info, verify=verify)
        array_collection(grid, entry).add(arr)
    return grid


def verify_vgf(source) -> list[str]:
    """Audit a VGF file; return a list of problems (empty ⇒ healthy).

    Checks the magic/header structure, the header self-check, and every
    array block's checksum.  Arrays stored without checksums are reported
    as unverifiable rather than passed silently, so ``repro verify`` is
    honest about coverage.  Never raises for corruption — corruption is
    the *finding* here, not an error.
    """
    problems: list[str] = []
    try:
        info = read_vgf_info(source)
    except FormatError as exc:
        return [f"header: {exc}"]
    for entry in info.arrays:
        if entry.checksum is None:
            problems.append(
                f"array {entry.name!r}: no stored checksum (written before "
                "checksums existed) — unverifiable"
            )
            continue
        try:
            read_vgf_array(source, entry.name, info)
        except FormatError as exc:  # IntegrityError included
            problems.append(str(exc))
    return problems
