"""Hot-path microbenchmark: the storage-side critical chain at MB/s.

Extension benchmark (not a paper artifact): measures each phase of the
NDP server's critical path — ranged block **read**, **decompress**,
interesting-**scan**, selection-**encode** — as a throughput in MB/s,
next to a ``np.copyto`` memcpy bound measured on the same machine.  The
bound is what "hardware speed" means here: a phase running at a
meaningful fraction of memcpy has no software fat left to trim.

Two implementations of the whole chain run against the same stored
block:

* *fused* — the current hot path, as the NDP server runs it:
  :func:`read_vgf_block` (no decode), one zero-copy decode through
  :meth:`StoredBlock.grid`, :func:`prefilter_contour` (single-pass
  multi-value scan) and the zero-copy :func:`encode_selection`.
* *legacy* — a frozen copy of the pre-optimization pipeline: full
  decode + ``frombuffer().copy()`` materialize, one neighbour-diff pass
  **per contour value**, and a ``tobytes()``-copying encode.  Embedded
  here (not imported) so the baseline cannot drift as the library
  improves.

Both must produce byte-identical selections; the fused chain must beat
legacy by >= 2x on the RAW-codec chain at the default size.  Per-phase
MB/s land in ``BENCH_results.json`` via ``bench_record``.

Size defaults to a 128^3 float32 array (8 MiB raw); set
``REPRO_HOTPATH_DIM`` to scale.
"""

import io
import os
import time

import numpy as np
import pytest

from repro.compression import get_codec
from repro.core.encoding import decode_selection, encode_selection
from repro.core.prefilter import prefilter_contour
from repro.grid.array import DataArray
from repro.grid.selection import PointSelection
from repro.grid.uniform import UniformGrid
from repro.io.vgf import (
    StoredBlock,
    read_vgf_array,
    read_vgf_block,
    read_vgf_info,
    write_vgf,
)
from repro.rpc.msgpack import pack

DIM = int(os.environ.get("REPRO_HOTPATH_DIM", "128"))
VALUES = (-0.8, -0.3, 0.0, 0.4, 0.9)
MODE = "cell-closure"
_MB = 1e6


def _best_of(fn, repeats: int = 3):
    """(best wall seconds, last result) over ``repeats`` runs."""
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


# ---------------------------------------------------------------------------
# Frozen legacy pipeline (pre-optimization, embedded so it cannot drift)
# ---------------------------------------------------------------------------


def _legacy_cell_closure_point_mask(f: np.ndarray, vals) -> np.ndarray:
    from repro.core.interesting import cell_mask_to_point_mask

    f = f.astype(np.float64, copy=False)
    lo = hi = f
    for axis in range(3):
        if f.shape[axis] > 1:
            a, b = [slice(None)] * 3, [slice(None)] * 3
            a[axis], b[axis] = slice(None, -1), slice(1, None)
            lo = np.minimum(lo[tuple(a)], lo[tuple(b)])
            hi = np.maximum(hi[tuple(a)], hi[tuple(b)])
    active = np.zeros(lo.shape, dtype=bool)
    for v in vals:
        active |= (hi >= v) & (lo < v)
    return cell_mask_to_point_mask(active, f.shape)


def _legacy_materialize(blob: bytes, array: str):
    """Full decode into a writable grid (the old ``_read_array``)."""
    fh = io.BytesIO(blob)
    info = read_vgf_info(fh)
    entry = info.array(array)
    fh.seek(info.data_start + entry.offset)
    stored = fh.read(entry.stored_bytes)
    payload = get_codec(entry.codec).decompress(stored)
    values = np.frombuffer(payload, dtype=np.dtype(entry.dtype)).copy()
    grid = info.make_grid()
    grid.point_data.add(DataArray(entry.name, values))
    return grid, entry


def _legacy_scan(grid, array: str, vals) -> PointSelection:
    """One neighbour-diff pass per value (the seed's scan)."""
    field = grid.scalar_field(array)
    mask = _legacy_cell_closure_point_mask(field, vals)
    ids = np.nonzero(mask.reshape(-1))[0].astype(np.int64)
    return PointSelection.from_grid(grid, array, ids)


_WIDTH_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _legacy_encode(sel: PointSelection) -> dict:
    """The seed's copying ``"ids"`` encode: ``tobytes()`` per payload,
    same field layout as the current zero-copy one (so the wire dicts of
    both chains can be compared byte-for-byte after packing)."""
    if sel.ids.size == 0:
        id_payload, width, first = b"", 1, 0
    else:
        deltas = np.diff(sel.ids)
        first = int(sel.ids[0])
        peak = int(deltas.max()) if deltas.size else 0
        width = 8
        for w in (1, 2, 4, 8):
            if peak < (1 << (8 * w)):
                width = w
                break
        id_payload = deltas.astype(_WIDTH_DTYPES[width]).tobytes()
    return {
        "dims": list(sel.dims),
        "origin": list(sel.origin),
        "spacing": list(sel.spacing),
        "array": sel.array_name,
        "dtype": sel.values.dtype.str,
        "count": int(sel.count),
        "values": np.ascontiguousarray(sel.values).tobytes(),
        "method": "ids",
        "id_deltas": id_payload,
        "id_width": width,
        "id_first": first,
    }


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset():
    """One wavy field stored as VGF under raw and gzip."""
    n = DIM
    rng = np.random.default_rng(42)
    z, y, x = np.meshgrid(
        np.linspace(0, 4 * np.pi, n),
        np.linspace(0, 4 * np.pi, n),
        np.linspace(0, 4 * np.pi, n),
        indexing="ij",
    )
    f = (np.sin(x) * np.cos(2 * y) + 0.5 * np.sin(3 * z)).astype(np.float32)
    f += rng.normal(scale=0.05, size=f.shape).astype(np.float32)
    grid = UniformGrid((n, n, n), (0, 0, 0), (1, 1, 1))
    grid.point_data.add(DataArray("s", f.reshape(-1)))
    return {
        codec: write_vgf(grid, codec=codec) for codec in ("raw", "gzip")
    }


def _fused_chain(blob: bytes, array: str):
    fh = io.BytesIO(blob)
    info = read_vgf_info(fh)
    stored, entry = read_vgf_block(fh, array, info)
    grid = StoredBlock(info, entry, stored).grid()
    sel = prefilter_contour(grid, array, VALUES, mode=MODE)
    return encode_selection(sel, method="ids", payload_codec="raw")


def _legacy_chain(blob: bytes, array: str):
    grid, _ = _legacy_materialize(blob, array)
    return _legacy_encode(_legacy_scan(grid, array, VALUES))


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------


def test_hotpath_phases_and_speedup(dataset, bench_record):
    raw_bytes = DIM**3 * 4
    table: dict[str, float] = {}

    # The machine's own ceiling: one big aligned copy.
    src = np.zeros(raw_bytes, dtype=np.uint8)
    dst = np.empty_like(src)
    t, _ = _best_of(lambda: np.copyto(dst, src), repeats=5)
    table["memcpy_MBps"] = raw_bytes / t / _MB

    for codec_name, blob in dataset.items():
        fh = io.BytesIO(blob)
        info = read_vgf_info(fh)
        entry = info.array("s")

        t, (stored, _) = _best_of(lambda: read_vgf_block(io.BytesIO(blob), "s"))
        table[f"{codec_name}_read_MBps"] = entry.stored_bytes / t / _MB

        block = StoredBlock(info, entry, stored)
        t, grid = _best_of(block.grid)
        table[f"{codec_name}_decompress_MBps"] = raw_bytes / t / _MB

        t, sel = _best_of(lambda: prefilter_contour(grid, "s", VALUES, mode=MODE))
        table[f"{codec_name}_scan_MBps"] = raw_bytes / t / _MB

        t, _ = _best_of(
            lambda: encode_selection(sel, method="ids", payload_codec="raw")
        )
        table[f"{codec_name}_encode_MBps"] = sel.payload_nbytes / t / _MB

        # Interleave the two chains so load drift on the host hits both
        # equally instead of skewing the ratio.
        t_fused = t_legacy = float("inf")
        fused = legacy = None
        for _ in range(5):
            t0 = time.perf_counter()
            fused = _fused_chain(blob, "s")
            t1 = time.perf_counter()
            legacy = _legacy_chain(blob, "s")
            t2 = time.perf_counter()
            t_fused = min(t_fused, t1 - t0)
            t_legacy = min(t_legacy, t2 - t1)
        table[f"{codec_name}_chain_fused_MBps"] = raw_bytes / t_fused / _MB
        table[f"{codec_name}_chain_legacy_MBps"] = raw_bytes / t_legacy / _MB
        table[f"{codec_name}_chain_speedup"] = t_legacy / t_fused

        # Geometry invariant: both chains ship identical bytes.
        a, b = decode_selection(fused), decode_selection(legacy)
        assert np.array_equal(a.ids, b.ids)
        assert a.values.tobytes() == b.values.tobytes()
        assert pack(dict(fused)) == pack(dict(legacy))

    bench_record(dim=DIM, raw_bytes=raw_bytes, **table)

    print(f"\nhot path at {DIM}^3 (float32, {len(VALUES)} contour values)")
    print(f"  memcpy bound          {table['memcpy_MBps']:10.0f} MB/s")
    for codec_name in dataset:
        for phase in ("read", "decompress", "scan", "encode"):
            print(
                f"  {codec_name:5s} {phase:12s}     "
                f"{table[f'{codec_name}_{phase}_MBps']:10.0f} MB/s"
            )
        print(
            f"  {codec_name:5s} chain fused/legacy "
            f"{table[f'{codec_name}_chain_fused_MBps']:7.0f} / "
            f"{table[f'{codec_name}_chain_legacy_MBps']:.0f} MB/s "
            f"({table[f'{codec_name}_chain_speedup']:.2f}x)"
        )

    # The tentpole target: >= 2x wall-clock on the storage-side critical
    # path where software overhead dominates (RAW: no codec work to hide
    # behind).  gzip is decompress-bound, so only the weaker bound holds.
    assert table["raw_chain_speedup"] >= 2.0, table
    assert table["gzip_chain_speedup"] >= 1.0, table


def test_hotpath_fused_matches_materializing_reader(dataset):
    """The fused chain's zero-copy decode agrees with today's library
    reader too (not just the frozen legacy), which hands back its own
    writable copy of the array."""
    blob = dataset["gzip"]
    fh = io.BytesIO(blob)
    info = read_vgf_info(fh)
    arr, entry = read_vgf_array(fh, "s", info)
    grid = info.make_grid()
    grid.point_data.add(arr)
    ref = prefilter_contour(grid, "s", VALUES, mode=MODE)
    stored, _ = read_vgf_block(io.BytesIO(blob), "s")
    got = prefilter_contour(
        StoredBlock(info, entry, stored).grid(), "s", VALUES, mode=MODE)
    assert got == ref
