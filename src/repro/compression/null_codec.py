"""The identity codec: the paper's "RAW" configuration."""

from __future__ import annotations

from repro.compression.base import Codec, register_codec

__all__ = ["NullCodec"]


class NullCodec(Codec):
    """Pass-through codec; lets RAW share the codec-configured code paths."""

    name = "raw"

    def compress(self, data: bytes) -> bytes:
        # bytes(b) returns b itself for bytes input: no copy on the
        # already-materialized path, one copy to freeze mutable buffers.
        return bytes(data)

    def decompress(self, data: bytes) -> bytes:
        return bytes(data)


register_codec(NullCodec())
