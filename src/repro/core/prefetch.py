"""Pipelined NDP requests for movie workloads.

The paper's Sec. VI experiment "proceeds sequentially, reading data from
the first timestep, generating a contour, and then moving on" — the
client idles while the storage node pre-filters, and vice versa.
:class:`NDPPrefetcher` overlaps them: it keeps up to ``depth`` offload
requests in flight on a worker thread while the caller post-filters and
renders the current frame, hiding storage-side latency behind client-side
compute.  Results are yielded strictly in request order.

Works with any request the batch endpoint understands (contour /
threshold / slice), one object key per request::

    requests = [
        {"key": f"ts{t:05d}.vgf", "kind": "contour",
         "array": "v02", "values": [0.1]}
        for t in timesteps
    ]
    for key, polydata, stats in NDPPrefetcher(client, requests):
        render(polydata)
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterator

from repro.core.encoding import decode_selection
from repro.core.filter_splits import bind_request
from repro.errors import ReproError
from repro.grid.polydata import PolyData

__all__ = ["NDPPrefetcher"]


class NDPPrefetcher:
    """Iterate offloaded filter results with lookahead.

    Parameters
    ----------
    client:
        An :class:`~repro.rpc.client.RPCClient` connected to an NDP server.
    requests:
        Request dicts; each needs a ``key`` plus the fields its ``kind``
        requires (see :meth:`~repro.core.ndp_server.NDPServer.prefilter_batch`).
    depth:
        Number of requests kept in flight ahead of the consumer (>= 1).
    """

    def __init__(self, client, requests: list[dict], depth: int = 2):
        if depth < 1:
            raise ReproError(f"prefetch depth must be >= 1, got {depth}")
        self._client = client
        #: ``(key, op, array, args)`` per request, bound up front so a
        #: malformed one fails here and not mid-movie.
        self._requests = []
        for i, req in enumerate(requests):
            if not isinstance(req, dict) or "key" not in req:
                raise ReproError(f"request missing 'key': {req!r}")
            self._requests.append((req["key"], *bind_request(req, i)))
        self._depth = depth
        # Live iterations' (pool, in_flight) state, so close() can reap
        # futures the consumer abandoned (early break, loop-body raise).
        self._active: list[tuple[ThreadPoolExecutor, list]] = []

    # ------------------------------------------------------------------
    def _issue(self, req: tuple):
        key, op, array, args = req
        return self._client.call(op.method, key, array, *op.wire(args))

    def __iter__(self) -> Iterator[tuple[str, PolyData, dict | None]]:
        """Yield ``(key, polydata, stats)`` in request order.

        Abandoning the iterator early — ``break``, an exception in the
        consumer's loop body, or dropping the generator — does not leak
        the lookahead: pending futures are cancelled and the worker is
        shut down without waiting on requests nobody will consume.
        """
        if not self._requests:
            return
        pool = ThreadPoolExecutor(max_workers=1)
        in_flight: list[tuple[tuple, Future]] = []
        state = (pool, in_flight)
        self._active.append(state)
        try:
            pending = iter(self._requests)
            # Prime the window.
            for req in self._requests[: self._depth]:
                next(pending)
                in_flight.append((req, pool.submit(self._issue, req)))
            while in_flight:
                req, future = in_flight.pop(0)
                encoded = future.result()  # propagate remote errors
                # Refill before the (potentially slow) local post-filter so
                # the server works while we do.
                try:
                    nxt = next(pending)
                except StopIteration:
                    nxt = None
                if nxt is not None:
                    in_flight.append((nxt, pool.submit(self._issue, nxt)))
                key, op, _array, args = req
                polydata = op.post(decode_selection(encoded), args)
                yield key, polydata, encoded.get("stats")
        finally:
            self._reap(state)

    # ------------------------------------------------------------------
    def _reap(self, state) -> None:
        pool, in_flight = state
        for _req, future in in_flight:
            future.cancel()
        in_flight.clear()
        # cancel_futures also drops anything queued but not yet running;
        # wait=False so an in-progress RPC cannot block the consumer's
        # exception from propagating.
        pool.shutdown(wait=False, cancel_futures=True)
        if state in self._active:
            self._active.remove(state)

    def close(self) -> None:
        """Cancel and reap any in-flight lookahead from live iterations."""
        for state in list(self._active):
            self._reap(state)

    def __enter__(self) -> "NDPPrefetcher":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
