"""Axis-aligned block partitioning of structured grids.

The scale-out story (paper Sec. VII; SkimROOT's many-data-server fan-out)
starts here: a uniform or rectilinear grid is cut into ``A x B x C``
axis-aligned blocks along *cell* boundaries.  Neighbouring blocks share
exactly one lattice plane of points — the **ghost layer** — so every
block carries the full cell closure of the cells it owns:

* **cells partition**: each grid cell belongs to exactly one block (the
  block whose per-axis cell range contains it), so no cell is classified
  or emitted twice;
* **seam points replicate**: the shared boundary plane of points appears
  in both neighbours (with identical values), which is what lets each
  shard run the storage-side pre-filter on its block alone and still
  produce the complete closure of its own active cells.

:func:`partition_grid` computes the block layout, :func:`extract_block`
materializes one block as a standalone grid (with shifted origin or
sliced axes, so world coordinates are preserved), and
:func:`block_bounds` gives a block's world-space extent for ROI
intersection tests.  :mod:`repro.cluster.stitch` is the inverse: it maps
block-local selections back into the global lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GridError
from repro.grid.bounds import Bounds
from repro.grid.rectilinear import RectilinearGrid
from repro.grid.uniform import UniformGrid

__all__ = ["BlockSpec", "partition_grid", "extract_block", "block_bounds",
           "lattice_roi", "axis_cuts"]


@dataclass(frozen=True)
class BlockSpec:
    """One block of a partitioned grid.

    ``lo``/``hi`` are **inclusive** per-axis point indices into the
    global lattice; the block's own cells are ``[lo, hi - 1]`` per
    non-degenerate axis, and its ``hi`` plane along each interior seam is
    the ghost layer shared with the next block.
    """

    index: int
    ijk: tuple[int, int, int]  # block coordinates within the A x B x C layout
    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    @property
    def dims(self) -> tuple[int, int, int]:
        """Points per axis of the block grid."""
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def num_points(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "ijk": list(self.ijk),
            "lo": list(self.lo),
            "hi": list(self.hi),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BlockSpec":
        return cls(
            int(d["index"]),
            tuple(int(v) for v in d["ijk"]),
            tuple(int(v) for v in d["lo"]),
            tuple(int(v) for v in d["hi"]),
        )


def axis_cuts(n_points: int, n_blocks: int) -> list[int]:
    """Boundary point indices ``p_0 < ... < p_B`` splitting one axis.

    Block ``k`` covers points ``[p_k, p_{k+1}]`` inclusive (so adjacent
    blocks share the plane at ``p_{k+1}``) and owns cells
    ``[p_k, p_{k+1} - 1]``.  Cuts are spread as evenly as the cell count
    allows.  A degenerate axis (one point, as in 2-D grids) only admits a
    single block.
    """
    if n_blocks < 1:
        raise GridError(f"block count must be >= 1, got {n_blocks}")
    if n_points == 1:
        if n_blocks != 1:
            raise GridError(
                f"axis with a single point cannot be split into {n_blocks} blocks"
            )
        return [0, 0]
    cells = n_points - 1
    if n_blocks > cells:
        raise GridError(
            f"cannot split {cells} cell(s) into {n_blocks} blocks "
            f"(each block needs at least one cell per axis)"
        )
    return [round(k * cells / n_blocks) for k in range(n_blocks + 1)]


def partition_grid(dims, blocks) -> list[BlockSpec]:
    """Split a grid's point lattice into ``A x B x C`` blocks.

    Returns the blocks in x-fastest order (matching flat point-id
    order), each with inclusive global point extents.
    """
    dims = tuple(int(d) for d in dims)
    blocks = tuple(int(b) for b in blocks)
    if len(dims) != 3 or len(blocks) != 3:
        raise GridError("dims and blocks must each have 3 entries")
    cuts = [axis_cuts(d, b) for d, b in zip(dims, blocks)]
    specs = []
    index = 0
    for bk in range(blocks[2]):
        for bj in range(blocks[1]):
            for bi in range(blocks[0]):
                b_ijk = (bi, bj, bk)
                lo = tuple(cuts[a][b_ijk[a]] for a in range(3))
                hi = tuple(
                    max(cuts[a][b_ijk[a] + 1], cuts[a][b_ijk[a]])
                    for a in range(3)
                )
                specs.append(BlockSpec(index, b_ijk, lo, hi))
                index += 1
    return specs


def block_bounds(spec: BlockSpec, origin, spacing, axes=None) -> Bounds:
    """World-space extent of a block (for ROI intersection tests).

    ``axes`` (three coordinate arrays) describes a rectilinear parent;
    otherwise ``origin``/``spacing`` describe a uniform one.
    """
    if axes is not None:
        lo = [float(np.asarray(axes[a])[spec.lo[a]]) for a in range(3)]
        hi = [float(np.asarray(axes[a])[spec.hi[a]]) for a in range(3)]
    else:
        lo = [origin[a] + spec.lo[a] * spacing[a] for a in range(3)]
        hi = [origin[a] + spec.hi[a] * spacing[a] for a in range(3)]
    return Bounds(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])


def lattice_roi(roi: Bounds, dims, origin, spacing) -> Bounds:
    """``roi`` with each face moved half a spacing off the uniform lattice.

    A block's coordinates start at ``origin + lo * spacing``, an ulp off
    the whole grid's, so a face on a lattice plane may keep the plane in
    one and drop it in the other.  The returned box holds exactly the
    points ``roi`` holds in the whole grid, in the grid and every block.
    """
    grid, box = UniformGrid(dims, origin, spacing), roi.as_tuple()
    faces = []
    for axis in range(3):
        coords = grid.axis_coords(axis)
        lo, hi = box[2 * axis:2 * axis + 2]
        first = int(np.searchsorted(coords, lo, side="left"))
        last = int(np.searchsorted(coords, hi, side="right")) - 1
        faces += [origin[axis] + (first - 0.5) * spacing[axis],
                  origin[axis] + (last + 0.5) * spacing[axis]]
    return Bounds(*faces)


def extract_block(grid, spec: BlockSpec):
    """Materialize one block as a standalone grid.

    The block keeps its world placement: a uniform parent yields a
    uniform block with a shifted origin, a rectilinear parent yields a
    rectilinear block with sliced axes.  Point arrays are sliced and
    copied; cell arrays are not carried (the NDP pipeline operates on
    point data).
    """
    if any(
        spec.lo[a] < 0 or spec.hi[a] > grid.dims[a] - 1 for a in range(3)
    ):
        raise GridError(
            f"block extents {spec.lo}..{spec.hi} exceed grid dims {grid.dims}"
        )
    axes = getattr(grid, "axes", None)
    if axes is not None:
        sub = RectilinearGrid(
            *(np.asarray(axes[a])[spec.lo[a]: spec.hi[a] + 1] for a in range(3))
        )
    else:
        origin = tuple(
            grid.origin[a] + spec.lo[a] * grid.spacing[a] for a in range(3)
        )
        sub = UniformGrid(spec.dims, origin, grid.spacing)
    from repro.grid.array import DataArray  # local import: avoid cycle

    nx, ny, nz = grid.dims
    (li, lj, lk), (hi_, hj, hk) = spec.lo, spec.hi
    for arr in grid.point_data:
        field = arr.values.reshape(nz, ny, nx, arr.components)
        sliced = field[lk: hk + 1, lj: hj + 1, li: hi_ + 1, :]
        sub.point_data.add(
            DataArray(arr.name, np.ascontiguousarray(sliced).reshape(-1),
                      components=arr.components)
        )
    return sub
