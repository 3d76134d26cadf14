"""Pipeline splitting: one contour filter becomes a pre-/post-filter pair.

The paper "envision[s] dividing a pipeline filter into a pre-filter
component and a post-filter component" (Sec. V, Fig. 10): the pre-filter
joins the source in a partial pipeline on the storage side, the
post-filter joins the sink on the client side.
:func:`split_contour_filter` derives a configured
(:class:`~repro.core.prefilter.ContourPreFilter`,
:class:`~repro.core.postfilter.ContourPostFilter`) pair from a stock
:class:`~repro.filters.contour.ContourFilter`.
"""

from __future__ import annotations

from repro.core.postfilter import ContourPostFilter
from repro.core.prefilter import ContourPreFilter
from repro.errors import PipelineError
from repro.filters.contour import ContourFilter

__all__ = ["split_contour_filter"]


def split_contour_filter(
    contour: ContourFilter, mode: str = "cell-closure"
) -> tuple[ContourPreFilter, ContourPostFilter]:
    """Split a configured contour filter into its NDP halves.

    The pre-filter inherits the array name and values; the post-filter
    inherits the values.  Composing them over any transport reproduces the
    original filter's output exactly (cell-closure mode).
    """
    if contour.array_name is None:
        raise PipelineError("cannot split a ContourFilter with no array name")
    if not contour.values:
        raise PipelineError("cannot split a ContourFilter with no contour values")
    pre = ContourPreFilter(contour.array_name, contour.values, mode=mode)
    post = ContourPostFilter(contour.values)
    return pre, post
