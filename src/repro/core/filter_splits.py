"""Split filters: one table of pre/post pairs, bound from either wire shape.

The paper's prototype splits only the contour filter and its conclusion
flags generalization as future work ("our current experiments were
limited to a single filter type").  :data:`SPLIT_FILTERS` holds one
:class:`SplitFilter` record per kind; the NDP server's endpoints and
batch route, the edge tier's reply cache and local compute, the client
calls and the prefetcher are all lookups into it, so a further split
filter is one more row.  Besides the contour pair
(:mod:`~repro.core.prefilter` / :mod:`~repro.core.postfilter`) two
selective filters split onto the same
:class:`~repro.grid.selection.PointSelection` hand-off; their kernels
live here:

* **threshold** — the pre-filter ships exactly the in-range points; the
  post-filter materializes them as vertex geometry.  Selectivity equals
  the range's volume fraction.
* **axis-aligned slice** — the pre-filter ships the one or two lattice
  planes bracketing the slice coordinate (a 2/N fraction of the grid);
  the post-filter interpolates the plane exactly as the stock filter
  does.

Both reconstructions are bit-exact against their stock filters, with the
same argument shape as the contour split: the selection carries true
values for every point the downstream kernel will read.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.postfilter import postfilter_contour
from repro.core.prefilter import prefilter_contour
from repro.errors import FilterError, ReproError, RPCError
from repro.filters.contour import normalize_values
from repro.filters.slice import slice_grid, slice_plane_indices
from repro.filters.threshold import threshold_point_ids
from repro.grid.array import DataArray
from repro.grid.bounds import Bounds
from repro.grid.cells import point_count
from repro.grid.polydata import CellArray, PolyData
from repro.grid.selection import PointSelection
from repro.grid.uniform import UniformGrid

__all__ = [
    "DEFAULT_WIRE_CODEC",
    "SPLIT_FILTERS",
    "SplitFilter",
    "bind_request",
    "wire_request",
    "require_point_scalar",
    "prefilter_threshold",
    "postfilter_threshold",
    "prefilter_slice",
    "postfilter_slice",
]


# ---------------------------------------------------------------------------
# Threshold
# ---------------------------------------------------------------------------


def prefilter_threshold(
    grid: UniformGrid, array_name: str, lower: float, upper: float
) -> PointSelection:
    """Storage-side half of :class:`~repro.filters.threshold.ThresholdPoints`."""
    ids = threshold_point_ids(grid, array_name, lower, upper)
    return PointSelection.from_grid(grid, array_name, ids)


def postfilter_threshold(selection: PointSelection) -> PolyData:
    """Client-side half: materialize the selected points as vertices.

    Identical to running the stock threshold filter on the full grid: the
    selection *is* the filter's result set, so no recomputation is needed
    — thresholding is the ideal offload case.
    """
    if selection.axes is not None:
        from repro.grid.rectilinear import RectilinearGrid

        grid = RectilinearGrid(*selection.axes)
    else:
        grid = UniformGrid(selection.dims, selection.origin, selection.spacing)
    points = grid.point_ids_to_coords(selection.ids)
    out = PolyData(points)
    out.verts = CellArray.from_uniform(
        np.arange(selection.count, dtype=np.int64).reshape(-1, 1)
    )
    out.point_data.add(DataArray(selection.array_name, selection.values.copy()))
    return out


# ---------------------------------------------------------------------------
# Axis-aligned slice
# ---------------------------------------------------------------------------


def prefilter_slice(
    grid: UniformGrid, array_name: str, axis: int, coordinate: float
) -> PointSelection:
    """Storage-side half of :class:`~repro.filters.slice.SliceFilter`.

    Ships the lattice plane(s) bracketing ``coordinate`` — everything the
    client-side interpolation will read.
    """
    i0, i1, _t = slice_plane_indices(grid, axis, coordinate)
    nx, ny, _nz = grid.dims
    strides = (1, nx, nx * ny)
    stride = strides[axis]
    n_plane = point_count(grid.dims) // grid.dims[axis]
    # Flat ids of every point on plane index i along `axis`: enumerate the
    # other two axes in id order.
    all_ids = np.arange(point_count(grid.dims), dtype=np.int64)
    axis_index = (all_ids // stride) % grid.dims[axis]
    ids = all_ids[(axis_index == i0) | (axis_index == i1)]
    if ids.size not in (n_plane, 2 * n_plane):
        raise FilterError("internal error: plane extraction miscounted")
    return PointSelection.from_grid(grid, array_name, ids)


def postfilter_slice(
    selection: PointSelection, axis: int, coordinate: float
) -> PolyData:
    """Client-side half: interpolate the slice from the shipped planes.

    Bit-exact against :func:`~repro.filters.slice.slice_grid` on the full
    grid: the interpolation reads only the bracketing planes, which the
    selection carries with true values.
    """
    grid, mask = selection.to_grid(fill=np.nan)
    i0, i1, _t = slice_plane_indices(grid, axis, coordinate)
    # Guard: the planes the kernel will read must be fully present.
    nx, ny, _nz = grid.dims
    stride = (1, nx, nx * ny)[axis]
    axis_index = (np.arange(mask.size) // stride) % grid.dims[axis]
    needed = (axis_index == i0) | (axis_index == i1)
    if not mask[needed].all():
        raise FilterError(
            "selection does not contain the planes required for this slice"
        )
    return slice_grid(grid, axis, coordinate, [selection.array_name])


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


def _roi(value) -> Bounds | None:
    """A :class:`Bounds` or 6-sequence as a :class:`Bounds` of floats."""
    if value is None:
        return None
    if isinstance(value, Bounds):
        value = value.as_tuple()
    return Bounds(*map(float, value))


#: the reply codec every client asks for unless told otherwise: zlib
#: encodes a reply about ten times faster than the pure-Python LZ4, and
#: smaller (the simulated testbed prices ``netsim.NATIVE_WIRE_CODEC``)
DEFAULT_WIRE_CODEC = "gzip"

_ENCODING = ("encoding", str, "auto")
_WIRE_CODEC = ("wire_codec", str, DEFAULT_WIRE_CODEC)


@dataclass(frozen=True)
class SplitFilter:
    """One split filter: its wire shape and its two kernels.

    ``params`` are the ordered wire parameters after ``(key, array)`` as
    ``(name, coerce, default)`` triples (no default = required).
    ``pre(grid, array, args)`` is the storage-side kernel and
    ``post(selection, args)`` the client-side one; both read the
    canonical argument dict :meth:`bind` returns.
    """

    kind: str
    params: tuple
    pre: Callable
    post: Callable

    @property
    def method(self) -> str:
        """The RPC method name serving this filter."""
        return f"prefilter_{self.kind}"

    def bind(self, given, where: str | None = None) -> dict:
        """Canonical arguments from a positional list or a field map:
        coerced, defaults filled, in ``params`` order, so two requests
        meaning the same thing bind to equal dicts.  Raises
        :class:`~repro.errors.RPCError` naming ``where`` (default: the
        method) and the offending field.
        """
        where = where or self.method
        if not isinstance(given, dict):
            if len(given) > len(self.params):
                raise RPCError(
                    f"{where}: takes at most {len(self.params)} parameters "
                    f"after (key, array), got {len(given)}")
            given = {p[0]: v for p, v in zip(self.params, given)}
        args = {}
        for name, coerce, *default in self.params:
            if name in given:
                try:
                    args[name] = coerce(given[name])
                except (TypeError, ValueError, ReproError) as exc:
                    raise RPCError(f"{where}: field {name!r}: {exc}") from exc
            elif default:
                args[name] = default[0]
            else:
                raise RPCError(f"{where}: missing field {name!r}")
        return args

    def wire(self, args: dict) -> list:
        """Bound arguments as the positional wire list (``bind`` inverts
        it); a trailing unset ``roi`` is left off, as clients always have."""
        out = [v.as_tuple() if isinstance(v, Bounds) else v
               for v in args.values()]
        while out and out[-1] is None:
            out.pop()
        return out

    def request_key(self, key: str, array: str, args: dict) -> tuple:
        """The hashable identity of one request, for reply caches."""
        return (self.kind, key, array, *args.values())


SPLIT_FILTERS = {
    op.kind: op for op in (
        SplitFilter(
            "contour",
            (("values", normalize_values), ("mode", str, "cell-closure"),
             _ENCODING, _WIRE_CODEC, ("roi", _roi, None)),
            pre=lambda grid, array, a: prefilter_contour(
                grid, array, a["values"], mode=a["mode"], roi=a["roi"]),
            post=lambda sel, a: postfilter_contour(
                sel, a["values"], roi=a["roi"]),
        ),
        SplitFilter(
            "threshold",
            (("lower", float), ("upper", float), _ENCODING, _WIRE_CODEC),
            pre=lambda grid, array, a: prefilter_threshold(
                grid, array, a["lower"], a["upper"]),
            post=lambda sel, a: postfilter_threshold(sel),
        ),
        SplitFilter(
            "slice",
            (("axis", operator.index), ("coordinate", float), _ENCODING,
             _WIRE_CODEC),
            pre=lambda grid, array, a: prefilter_slice(
                grid, array, a["axis"], a["coordinate"]),
            post=lambda sel, a: postfilter_slice(
                sel, a["axis"], a["coordinate"]),
        ),
    )
}


def bind_request(request, index: int) -> tuple:
    """``(op, array, args)`` for entry ``index`` of a batch-shaped list:
    a map with a ``kind``, an ``array`` and that kind's fields.  Anything
    else raises ``RPCError("batch request <index>: …")`` — on the server
    before any entry runs, client-side before a round trip.
    """
    where = f"batch request {index}"
    if not isinstance(request, dict):
        raise RPCError(
            f"{where}: expected a map, got {type(request).__name__}")
    kind = request.get("kind")
    op = SPLIT_FILTERS.get(kind) if isinstance(kind, str) else None
    if op is None:
        raise RPCError(
            f"{where}: unknown kind {kind!r}; use one of {sorted(SPLIT_FILTERS)}")
    if not isinstance(request.get("array"), str):
        raise RPCError(f"{where}: field 'array' must name an array")
    return op, request["array"], op.bind(request, where)


def wire_request(op: SplitFilter, array: str, args: dict) -> dict:
    """The batch entry :func:`bind_request` reads back as ``(op, array, args)``."""
    names = (name for name, *_ in op.params)
    return {"kind": op.kind, "array": array, **dict(zip(names, op.wire(args)))}


def require_point_scalar(entry) -> None:
    """Reject a stored array (``entry``: its
    :class:`~repro.io.vgf.ArrayInfo`) that is not one scalar per point."""
    if entry.association != "point" or entry.components != 1:
        raise FilterError(
            f"array {entry.name!r} is {entry.association}-associated with "
            f"{entry.components} component(s); split filters need a "
            "point-associated scalar array")
