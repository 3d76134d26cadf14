"""LZ4 codec: frames the raw block format with a size header.

The raw block format does not record the decompressed size, so (like the
LZ4 frame format, simplified) we prepend a small header:

``b"LZ4B" | uint64 LE decompressed size | block bytes``

This mirrors how VTK stores per-block compressed sizes in its appended
data sections.
"""

from __future__ import annotations

import struct

from repro.compression.base import Codec, register_codec
from repro.compression.lz4 import lz4_compress_block, lz4_decompress_block
from repro.errors import CodecError

__all__ = ["LZ4Codec"]

_MAGIC = b"LZ4B"
_HEADER = struct.Struct("<4sQ")


class LZ4Codec(Codec):
    """LZ4 block compression with a minimal size-carrying frame."""

    name = "lz4"

    def __init__(self, acceleration: int = 1):
        if acceleration < 1:
            raise CodecError(f"acceleration must be >= 1, got {acceleration}")
        self.acceleration = acceleration

    def compress(self, data: bytes) -> bytes:
        data = bytes(data)
        block = lz4_compress_block(data, acceleration=self.acceleration)
        return _HEADER.pack(_MAGIC, len(data)) + block

    def decompress(self, data: bytes) -> bytes:
        data = memoryview(data).cast("B")  # the block decoder makes the one copy
        if len(data) < _HEADER.size:
            raise CodecError("LZ4 frame too short for header")
        magic, size = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise CodecError(f"bad LZ4 frame magic {magic!r}")
        out = lz4_decompress_block(data[_HEADER.size :], max_output=size)
        if len(out) != size:
            raise CodecError(
                f"LZ4 frame declared {size} bytes but decoded {len(out)}"
            )
        return out


register_codec(LZ4Codec())
