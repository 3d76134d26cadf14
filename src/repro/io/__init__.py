"""File formats: the VGF grid format, timestep catalogs, image output.

VGF ("Visualization Grid Format") is this library's stand-in for VTK data
files: a binary container holding a uniform grid's structure plus named
data arrays, each independently compressed with a registered codec.  Its
two properties the paper's evaluation depends on:

* **array selection** — each array is a separately addressable block, so a
  :func:`read_vgf` fetches only the arrays a pipeline asks for (paper Sec. I);
* **per-array compression** — blocks are stored through any registered
  codec (``raw``/``gzip``/``lz4``/...), matching VTK's native GZip/LZ4
  support (paper Sec. IV).
"""

from repro.io.catalog import CatalogEntry, TimestepCatalog
from repro.io.checksum import DEFAULT_ALGO, checksum
from repro.io.ppm import write_ppm
from repro.io.vgf import (
    VGFInfo,
    read_vgf,
    read_vgf_array,
    read_vgf_info,
    verify_vgf,
    write_vgf,
)

__all__ = [
    "write_vgf",
    "read_vgf",
    "read_vgf_info",
    "read_vgf_array",
    "verify_vgf",
    "checksum",
    "DEFAULT_ALGO",
    "VGFInfo",
    "write_ppm",
    "TimestepCatalog",
    "CatalogEntry",
]
