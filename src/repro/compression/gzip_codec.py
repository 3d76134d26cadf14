"""GZip codec over stdlib zlib.

zlib with ``wbits=31`` produces/consumes the gzip container format, i.e.
this is byte-compatible with what VTK's GZip-compressed data files hold.
"""

from __future__ import annotations

import zlib

from repro.compression.base import Codec, register_codec
from repro.errors import CodecError

__all__ = ["GzipCodec"]

_GZIP_WBITS = 31  # gzip container


class GzipCodec(Codec):
    """Deflate compression in the gzip container.

    Parameters
    ----------
    level:
        zlib compression level 1..9; the default 6 matches VTK's default.
    """

    name = "gzip"

    def __init__(self, level: int = 6):
        if not 1 <= level <= 9:
            raise CodecError(f"gzip level must be 1..9, got {level}")
        self.level = level

    def compress(self, data: bytes) -> bytes:
        # zlib consumes any contiguous buffer: no bytes() copy needed.
        co = zlib.compressobj(self.level, zlib.DEFLATED, _GZIP_WBITS)
        return co.compress(data) + co.flush()

    def decompress(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data, wbits=_GZIP_WBITS)
        except zlib.error as exc:
            raise CodecError(f"gzip decompression failed: {exc}") from exc


register_codec(GzipCodec())
