"""In-situ precomputed selections: pay the pre-filter at write time.

The paper positions NDP against in-situ analysis (PreDatA, SENSEI, ...),
which "perform[s] these tasks during simulation, bypassing the need for
data storage" (Sec. VIII).  This module is the hybrid between the two:
run the pre-filter **once, at simulation-output time**, and store the
encoded selection *next to* the array.  An analysis client then fetches
the tiny selection object directly — no storage-side array read, no
decompression, no scan — turning the NDP load into a pure
selection-sized transfer.

The trade, quantified by ``benchmarks/test_ext_precomputed.py``: the
contour values must be known when the data is written (the common case
for movie rendering and threshold-style monitoring), and each (array,
values, mode) combination costs one small stored object.

Selections are stored under a deterministic sibling key::

    <data key>.sel/<array>/<mode>/v<v1>_<v2>...

so both the writer and any reader can derive it without a catalog.
"""

from __future__ import annotations

from repro.core.encoding import (attach_checksum, decode_selection,
                                 encode_selection, wire_size)
from repro.core.filter_splits import DEFAULT_WIRE_CODEC
from repro.core.postfilter import postfilter_contour
from repro.core.prefilter import prefilter_contour
from repro.errors import NoSuchObjectError
from repro.filters.contour import normalize_values
from repro.grid.polydata import PolyData
from repro.io.vgf import read_vgf
from repro.rpc.msgpack import pack, unpack

__all__ = [
    "selection_key",
    "precompute_selections",
    "load_precomputed_selection",
    "ndp_contour_precomputed",
]


def selection_key(key: str, array: str, values, mode: str = "cell-closure") -> str:
    """The store key of a precomputed selection for these parameters."""
    vals = normalize_values(values)
    sig = "_".join(f"{v:g}" for v in vals)
    return f"{key}.sel/{array}/{mode}/v{sig}"


def precompute_selections(
    fs,
    key: str,
    arrays: list[str],
    values,
    mode: str = "cell-closure",
    wire_codec: str = DEFAULT_WIRE_CODEC,
) -> list[tuple[str, int]]:
    """Pre-filter stored data and persist the encoded selections.

    Run this where the data lives (the simulation node or the storage
    node) right after the timestep is written.  Selections are stored
    stamped, as replies on the wire are.

    Returns ``[(selection_key, stored_bytes), ...]``.
    """
    with fs.open(key) as fh:
        grid = read_vgf(fh, list(arrays))
    written = []
    for array in arrays:
        selection = prefilter_contour(grid, array, values, mode=mode)
        blob = pack(attach_checksum(
            encode_selection(selection, payload_codec=wire_codec)))
        sel_key = selection_key(key, array, values, mode)
        fs.write_object(sel_key, blob)
        written.append((sel_key, len(blob)))
    return written


def load_precomputed_selection(fs, key: str, array: str, values,
                               mode: str = "cell-closure"):
    """Read a precomputed selection back from the store.

    Raises
    ------
    NoSuchObjectError
        If :func:`precompute_selections` was never run for these
        parameters.
    """
    sel_key = selection_key(key, array, values, mode)
    blob = fs.read_object(sel_key)
    return decode_selection(unpack(blob))


def ndp_contour_precomputed(
    fs, key: str, array: str, values, mode: str = "cell-closure"
) -> tuple[PolyData, dict]:
    """Contour from a precomputed selection; falls back to nothing.

    ``fs`` may be any mount of the store — including a *remote* one: the
    whole point is that only the selection object crosses it.

    Returns ``(polydata, stats)``; raises
    :class:`~repro.errors.NoSuchObjectError` when no precomputed selection
    exists (callers fall back to the on-demand NDP path).
    """
    sel_key = selection_key(key, array, values, mode)
    blob = fs.read_object(sel_key)
    encoded = unpack(blob)
    selection = decode_selection(encoded)
    stats = {
        "stored_bytes": len(blob),
        "raw_bytes": selection.total_points * selection.values.dtype.itemsize,
        "selected_points": int(selection.count),
        "total_points": int(selection.total_points),
        "wire_bytes": wire_size(encoded),
        "precomputed": True,
    }
    return postfilter_contour(selection, values), stats
