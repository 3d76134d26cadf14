"""Compression substrate: the codecs the paper evaluates, plus extensions.

The paper evaluates GZip and LZ4 because "they are natively supported by
the VTK library" (Sec. VIII).  This package provides both — GZip via
stdlib zlib (which *is* the gzip algorithm) and LZ4 as a from-scratch,
bitstream-compatible block-format implementation — behind a uniform
:class:`~repro.compression.base.Codec` interface with a name registry, so
readers/writers and the NDP server can be configured with a codec string
exactly like VTK data files are.

Extensions beyond the paper's evaluation:

* :class:`~repro.compression.rle.RLECodec` — byte run-length coding, used
  by the encoding ablation;
* :class:`~repro.compression.lossy.QuantizerCodec` — an error-bounded
  lossy float codec in the spirit of the paper's "future work" discussion
  of SZ/ZFP-style compressors.
"""

from repro.compression.base import Codec, get_codec, register_codec
from repro.compression.gzip_codec import GzipCodec
from repro.compression.lossy import QuantizerCodec
from repro.compression.lz4 import lz4_compress_block, lz4_decompress_block
from repro.compression.lz4_codec import LZ4Codec
from repro.compression.null_codec import NullCodec
from repro.compression.rle import RLECodec
from repro.compression.shuffle import ShuffleCodec

__all__ = [
    "Codec",
    "get_codec",
    "register_codec",
    "NullCodec",
    "GzipCodec",
    "LZ4Codec",
    "RLECodec",
    "ShuffleCodec",
    "QuantizerCodec",
    "lz4_compress_block",
    "lz4_decompress_block",
]
