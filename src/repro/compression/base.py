"""Codec interface and registry.

A codec maps ``bytes -> bytes`` in both directions.  Codecs register under
a short name (``"raw"``, ``"gzip"``, ``"lz4"``, ...) so file formats and
RPC payloads can record which codec produced a block.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import CodecError

__all__ = ["Codec", "register_codec", "get_codec"]


class Codec(ABC):
    """Abstract byte-stream codec.

    Attributes
    ----------
    name:
        Registry name; also stored in file/wire headers.
    lossless:
        False for codecs (like the quantizer) that only bound, rather than
        eliminate, reconstruction error.
    """

    name: str = ""
    lossless: bool = True

    @abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress ``data``; must accept empty input."""

    @abstractmethod
    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress`; raise :class:`CodecError` on bad input."""

    def ratio(self, data: bytes) -> float:
        """Compression ratio achieved on ``data`` (original / compressed)."""
        if not data:
            return 1.0
        compressed = self.compress(data)
        return len(data) / max(len(compressed), 1)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: dict[str, Codec] = {}


def register_codec(codec: Codec, replace: bool = False) -> Codec:
    """Register a codec instance under its ``name``."""
    if not codec.name:
        raise CodecError("codec has no name")
    if codec.name in _REGISTRY and not replace:
        raise CodecError(f"codec {codec.name!r} already registered")
    _REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    """Look up a registered codec by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
