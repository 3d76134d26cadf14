"""The client side of NDP (paper Fig. 10, right half / Fig. 11a).

:func:`ndp_contour` replaces the reader in the client's pipeline: instead
of pulling whole arrays through a remote mount, it asks the storage-side
:class:`~repro.core.ndp_server.NDPServer` to run the pre-filter, decodes
the :class:`~repro.grid.selection.PointSelection` and finishes the contour
locally; :func:`ndp_threshold` and :func:`ndp_slice` do the same for the
other split filters.

:func:`request_selection` is the one request path every client shares —
this module's calls and the cluster client's per-block calls: it sends a :data:`~repro.core.filter_splits.SPLIT_FILTERS` row's bound
arguments, decodes the selection and re-reads a corrupt reply once.

:class:`FallbackPolicy` is the graceful-degradation half of the fault
story: when the NDP hop is unreachable (transport errors survive the
resilient transport's retries, or its circuit breaker is open), the client
falls back to the paper's *baseline* placement — a full-array read through
its own s3fs mount, contoured locally.  The pre/post-filter invariant
guarantees the geometry is identical either way; only the cost differs,
and that difference is surfaced through the policy's
:class:`~repro.obs.metrics.Tally`.
"""

from __future__ import annotations

from repro.core.encoding import decode_selection
from repro.core.filter_splits import DEFAULT_WIRE_CODEC, SPLIT_FILTERS
from repro.errors import FAILOVER_ERRORS, IntegrityError
from repro.filters.contour import contour_grid
from repro.grid.polydata import PolyData
from repro.grid.selection import PointSelection
from repro.obs.metrics import Tally
from repro.rpc.client import RPCClient

__all__ = [
    "FallbackPolicy",
    "ndp_contour",
    "ndp_threshold",
    "ndp_slice",
    "request_selection",
]


def request_selection(call, op, key: str, array_name: str, args: dict,
                      on_retry=None) -> tuple[PointSelection, dict]:
    """One split-filter request: ``(selection, encoded reply)``.

    ``call(method, *params)`` sends ``op.method`` with ``op.wire(args)``.
    A checksum mismatch (:class:`~repro.errors.IntegrityError`, found at
    decode or reported by the server's at-rest verification) is re-read
    exactly once, after ``on_retry(exc)`` is told; a second one raises.
    """
    params = op.wire(args)
    try:
        encoded = call(op.method, key, array_name, *params)
        return decode_selection(encoded), encoded
    except IntegrityError as exc:
        # Corruption is often transient (a flipped bit in flight).  The
        # server never caches errors and keys its caches by store version,
        # so the re-read reaches honest bytes: a clean cached reply, or a
        # fresh read.
        if on_retry is not None:
            on_retry(exc)
        encoded = call(op.method, key, array_name, *params)
        return decode_selection(encoded), encoded


class FallbackPolicy:
    """Degrade an NDP call to the baseline full-array read when the hop fails.

    Parameters
    ----------
    fs:
        The client-side mount (a :class:`~repro.storage.s3fs.S3FileSystem`
        whose ``link``, if any, models the client<->storage network): the
        baseline placement of paper Fig. 11b.  Must see the same bucket the
        NDP server serves.
    triggers:
        Exception classes that justify falling back.  Defaults to transport
        failures (including timeouts), an open circuit breaker, and
        integrity failures (a corrupted NDP reply or storage-side read —
        after the one re-read :func:`ndp_contour` performs — degrades to
        the baseline read, which verifies its own checksums, so a
        corrupted storage node yields a loud error or correct geometry,
        never wrong geometry).  Remote handler errors (``RPCRemoteError``)
        are *not* in the default set: they are deterministic — the
        baseline read would hit the same problem — so falling back would
        only mask them.
    stats:
        Optional shared :class:`~repro.obs.metrics.Tally` (typically the
        one the resilient transport records into); gains ``fallbacks`` /
        ``ndp_successes`` / ``fallback_bytes``.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; a degrade records an
        ``ndp.fallback`` event on the current span and times the baseline
        read in a ``fallback.read`` child span.
    """

    def __init__(
        self,
        fs,
        triggers: tuple[type[BaseException], ...] = FAILOVER_ERRORS,
        stats: Tally | None = None,
        tracer=None,
    ):
        from repro.obs.trace import NULL_TRACER

        self.fs = fs
        self.triggers = tuple(triggers)
        self.stats = stats if stats is not None else Tally()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: human-readable reason for the most recent baseline fallback
        self.last_fallback_reason: str | None = None

    def should_fallback(self, exc: BaseException) -> bool:
        return isinstance(exc, self.triggers)

    # ------------------------------------------------------------------
    def record_ndp_success(self) -> None:
        self.stats.record("ndp_successes")

    @property
    def fallback_rate(self) -> float:
        """Fraction of completed NDP requests served by the baseline path."""
        fallbacks = self.stats.get("fallbacks")
        done = fallbacks + self.stats.get("ndp_successes")
        return fallbacks / done if done else 0.0

    def contour(
        self, key: str, array_name: str, values, roi=None, reason: BaseException | None = None
    ) -> tuple[PolyData, dict]:
        """Baseline contour: full array through ``fs``, filtered locally.

        Returns ``(polydata, stats)`` shaped like the NDP reply's stats so
        callers can stay path-agnostic; ``stats["path"]`` says which way
        the data came.
        """
        from repro.io.vgf import read_vgf_array, read_vgf_info

        self.tracer.add_event(
            "ndp.fallback",
            reason=f"{type(reason).__name__}: {reason}" if reason else "requested",
        )
        with self.tracer.span("fallback.read", key=key, array=array_name):
            with self.fs.open(key) as fh:
                info = read_vgf_info(fh)
                entry = info.array(array_name)
                arr, _ = read_vgf_array(fh, array_name, info)
        grid = info.make_grid()
        grid.point_data.add(arr)
        with self.tracer.span("fallback.contour"):
            polydata = contour_grid(grid, array_name, values, roi=roi)
        self.stats.record("fallbacks")
        self.stats.record("fallback_bytes", entry.stored_bytes)
        self.last_fallback_reason = (
            f"{type(reason).__name__}: {reason}" if reason is not None else None
        )
        stats = {
            "path": "fallback",
            **entry.stats(),
            # The whole stored block crossed the client's mount: with no
            # pre-filter there is no reduction to report.
            "wire_bytes": entry.stored_bytes,
            "fallback_reason": self.last_fallback_reason,
        }
        return polydata, stats


def _offload(client: RPCClient, kind: str, key: str, array_name: str,
             fields: dict, fallback=None) -> tuple[PolyData, dict | None]:
    """One offloaded split filter: bind, request, post-filter."""
    op = SPLIT_FILTERS[kind]
    args = op.bind(fields)

    def retried(exc):
        client.tracer.add_event(
            "integrity.retry", cause=f"{type(exc).__name__}: {exc}")
        if fallback is not None:
            fallback.stats.record("integrity_retries")

    selection, encoded = request_selection(
        client.call, op, key, array_name, args, retried)
    with client.tracer.span("postfilter"):
        polydata = op.post(selection, args)
    return polydata, encoded.get("stats")


def ndp_threshold(
    client: RPCClient,
    key: str,
    array_name: str,
    lower: float,
    upper: float,
    wire_codec: str = DEFAULT_WIRE_CODEC,
) -> tuple[PolyData, dict | None]:
    """Offloaded threshold filter: vertices for every in-range point."""
    return _offload(client, "threshold", key, array_name,
                    {"lower": lower, "upper": upper, "wire_codec": wire_codec})


def ndp_slice(
    client: RPCClient,
    key: str,
    array_name: str,
    axis: int,
    coordinate: float,
    wire_codec: str = DEFAULT_WIRE_CODEC,
) -> tuple[PolyData, dict | None]:
    """Offloaded axis-aligned slice: interpolated plane geometry."""
    return _offload(client, "slice", key, array_name,
                    {"axis": axis, "coordinate": coordinate,
                     "wire_codec": wire_codec})


def ndp_contour(
    client: RPCClient,
    key: str,
    array_name: str,
    values,
    mode: str = "cell-closure",
    encoding: str = "auto",
    wire_codec: str = DEFAULT_WIRE_CODEC,
    roi=None,
    fallback: FallbackPolicy | None = None,
) -> tuple[PolyData, dict | None]:
    """One-call NDP contour: offload the pre-filter, finish locally.

    Returns ``(polydata, stats)`` where ``stats`` is the server's phase
    report (stored/raw/wire bytes, selection counts).  ``roi`` is an
    optional :class:`~repro.grid.bounds.Bounds` region of interest,
    applied identically on both sides.

    With a :class:`FallbackPolicy`, transport-level failures (after
    whatever retrying the client's transport performs) degrade to the
    baseline full-array read instead of raising; the returned geometry is
    identical either way and ``stats["path"]`` records which path served
    the request.  A checksum mismatch (:class:`~repro.errors.IntegrityError`,
    detected at decode or reported by the server's at-rest verification)
    triggers exactly one re-read before the fallback applies — corrupted
    data can delay a contour but never silently change it.

    With a traced client (see :class:`~repro.rpc.client.RPCClient`) the
    whole operation runs inside an ``ndp.contour`` span: the RPC hop,
    the server's remote subtree, the local post-filter, and any fallback
    all nest under it — the complete end-to-end request tree.
    """
    with client.tracer.span("ndp.contour", key=key, array=array_name):
        try:
            polydata, stats = _offload(client, "contour", key, array_name, {
                "values": values, "mode": mode, "encoding": encoding,
                "wire_codec": wire_codec, "roi": roi,
            }, fallback)
        except Exception as exc:
            if fallback is None or not fallback.should_fallback(exc):
                raise
            return fallback.contour(key, array_name, values, roi=roi, reason=exc)
        if stats is not None:
            stats.setdefault("path", "ndp")
        if fallback is not None:
            fallback.record_ndp_success()
        return polydata, stats
