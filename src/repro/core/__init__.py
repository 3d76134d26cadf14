"""The paper's contribution: contour pipelines split for near-data processing.

The pieces map one-to-one onto the paper's Sec. V/VI design:

* :mod:`~repro.core.interesting` — vectorized detection of *interesting
  edges* (lattice edges whose endpoints straddle a contour value) and of
  the points/cells they touch (paper Sec. II-B),
* :mod:`~repro.core.prefilter` — the storage-side pre-filter: full array
  in, sparse :class:`~repro.grid.selection.PointSelection` out,
* :mod:`~repro.core.encoding` — compact wire encodings for selections,
* :mod:`~repro.core.postfilter` — the client-side post-filter: selection
  in, contour geometry out, bit-identical to contouring the full array,
* :mod:`~repro.core.split` — splits a stock contour filter into its
  storage-side and client-side halves (paper Fig. 10),
* :mod:`~repro.core.ndp_server` / :mod:`~repro.core.ndp_client` — the two
  halves wired over the RPC layer,
* :mod:`~repro.core.planner` — an offload planner extension that chooses
  baseline vs NDP from cost estimates.
"""

from repro.core.encoding import decode_selection, encode_selection, wire_size
from repro.core.interesting import (
    active_cell_mask,
    cell_closure_point_mask,
    interesting_point_mask,
)
from repro.core.filter_splits import (
    postfilter_slice,
    postfilter_threshold,
    prefilter_slice,
    prefilter_threshold,
)
from repro.core.ndp_client import (
    FallbackPolicy,
    ndp_contour,
    ndp_slice,
    ndp_threshold,
)
from repro.core.ndp_server import NDPServer
from repro.core.planner import OffloadDecision, OffloadPlanner
from repro.core.prefetch import NDPPrefetcher
from repro.core.postfilter import ContourPostFilter, postfilter_contour
from repro.core.prefilter import ContourPreFilter, prefilter_contour, selection_rate
from repro.core.split import split_contour_filter

__all__ = [
    "interesting_point_mask",
    "active_cell_mask",
    "cell_closure_point_mask",
    "prefilter_contour",
    "selection_rate",
    "ContourPreFilter",
    "postfilter_contour",
    "ContourPostFilter",
    "encode_selection",
    "decode_selection",
    "wire_size",
    "split_contour_filter",
    "NDPServer",
    "FallbackPolicy",
    "ndp_contour",
    "ndp_threshold",
    "ndp_slice",
    "prefilter_threshold",
    "postfilter_threshold",
    "prefilter_slice",
    "postfilter_slice",
    "NDPPrefetcher",
    "OffloadPlanner",
    "OffloadDecision",
]
