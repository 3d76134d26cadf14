"""Seam-exact stitching of per-block pre-filter selections.

The key observation that makes the sharded pipeline **bit-identical** to
the monolithic one: stitching happens at the *selection* level, before
any geometry exists.  Concatenating per-block contour geometry could
never match the single-server output byte-for-byte — marching
tetrahedra emits triangles in (tetrahedron, case, cell) order, not cell
order — so instead each shard returns its block's sparse
:class:`~repro.grid.selection.PointSelection`, the stitcher translates
block-local point ids into the global lattice and unions them, and the
client runs the stock post-filter **once** on the stitched selection.

Why the union equals the monolithic selection exactly (cell-closure
mode): cells partition across blocks, and a block carries its cells'
full closure (the seam ghost layer), so every cell is classified by
exactly one block against the *same* corner values and the *same*
world-coordinate ROI mask as in the monolithic scan.  Per-cell closures
translate to the same global points; their union over all blocks is the
monolithic closure.  Seam-plane points selected by both neighbours are
the deterministic ghost-ownership case: values are identical on both
sides, and :meth:`~repro.grid.selection.PointSelection.union` keeps the
first occurrence — blocks are folded in ascending block-index order, so
the lower-indexed block owns every seam point it selected.

``edge`` mode stitches exactly only without an ROI (:func:`stitch_exact`):
a seam point is selected when an interesting edge on *either* side meets
an ROI cell on *either* side, but each block sees only its own side.

Identical selection + identical post-filter = identical bytes out.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SelectionError
from repro.grid.selection import PointSelection

__all__ = ["rebase_block_selection", "stitch_selections", "empty_selection",
           "stitch_exact"]


def stitch_exact(args: dict) -> bool:
    """Whether the union of per-block selections for the contour row's
    bound ``args`` is the monolithic selection."""
    return args["mode"] != "edge" or args["roi"] is None


def rebase_block_selection(selection: PointSelection, spec, dims, origin,
                           spacing, axes=None) -> PointSelection:
    """Translate one block's selection into the global lattice.

    ``spec`` is the :class:`~repro.cluster.partition.BlockSpec` the
    selection came from; ``dims``/``origin``/``spacing``/``axes``
    describe the global grid.
    """
    if tuple(selection.dims) != tuple(spec.dims):
        raise SelectionError(
            f"selection dims {selection.dims} do not match block "
            f"{spec.index} dims {spec.dims}"
        )
    return selection.rebase(dims, spec.lo, origin=origin, spacing=spacing,
                            axes=axes)


def empty_selection(dims, origin, spacing, array_name: str, value_dtype,
                    axes=None) -> PointSelection:
    """A zero-point selection with the global structure.

    The post-filter of an empty selection yields empty geometry with the
    same array layout as the monolithic path, so an ROI that intersects
    no block still returns bit-identical output.
    """
    return PointSelection(
        dims, origin, spacing, array_name,
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.dtype(value_dtype)),
        axes=axes,
    )


def stitch_selections(block_selections, dims, origin, spacing, array_name: str,
                      value_dtype, axes=None) -> PointSelection:
    """Union per-block selections into one global-structure selection.

    ``block_selections`` is an iterable of ``(spec, selection)`` pairs;
    order does not matter — blocks are folded in ascending block index so
    seam deduplication is deterministic regardless of gather order.

    Each block index may appear at most once.  With replicated serving a
    block has several eligible sources, and a gather bug that lets two
    replicas both deliver the same block would silently survive the
    union (identical selections) right up until the day the copies
    disagree — so duplication is rejected loudly here instead.
    """
    pairs = sorted(block_selections, key=lambda pair: pair[0].index)
    for prev, cur in zip(pairs, pairs[1:]):
        if prev[0].index == cur[0].index:
            raise SelectionError(
                f"block {cur[0].index} delivered more than once to the "
                f"stitcher (replica gather must pick exactly one source "
                f"per block)"
            )
    stitched = empty_selection(dims, origin, spacing, array_name, value_dtype,
                               axes=axes)
    for spec, selection in pairs:
        rebased = rebase_block_selection(selection, spec, dims, origin,
                                         spacing, axes=axes)
        stitched = stitched.union(rebased)
    return stitched
