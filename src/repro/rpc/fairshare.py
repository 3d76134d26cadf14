"""The one admission gate: per-tenant weighted fair queuing between the
TCP listener and dispatch.

A single flooding tenant must not starve everyone else out of the
storage-side server.  :class:`FairScheduler` sits between the event-loop
listener (:class:`~repro.rpc.mux.AsyncServerTransport`) and
:meth:`~repro.rpc.server.RPCServer.handle`:

* every frame is decoded once, here at intake
  (:func:`~repro.rpc.envelope.parse_request`), and classified by the
  tenant its ctx names (absent means the ``"default"`` tenant, so classic
  clients keep working byte-identically); the dispatcher receives the
  decoded :class:`~repro.rpc.envelope.Request`,
* each tenant gets its own FIFO queue; workers dequeue by **weighted
  virtual time** (start-time fair queuing: pick the eligible tenant with
  the smallest ``served / weight``), so a tenant with weight 3 gets 3x
  the service of a weight-1 tenant under contention, and *every* backlogged
  tenant advances — no starvation by construction,
* per-tenant ``max_tenant_pending`` / ``max_tenant_inflight`` caps bound
  one tenant's footprint; beyond its pending cap a tenant's requests are
  shed **immediately** with a ``ServerOverloadedError`` reply carrying a
  ``retry_after`` hint, without ever touching a worker — the flooding
  tenant pays for its own flood while the trickle tenant's queue stays
  empty and unshed,
* a request's ``deadline`` is charged for its time in the queue: the
  dispatcher receives what is left of it.

This is the only place a request is admitted, queued or shed: ``workers``
is the concurrency bound and ``max_tenant_pending`` the queue bound.
There is deliberately no global pending cap — it would shed a trickle
tenant because a flood filled the queue.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Callable

from repro.obs.flightrec import NULL_RECORDER
from repro.rpc import envelope

__all__ = ["FairScheduler", "MAX_TENANTS"]

#: Bound on tenants nobody configured a weight for: their names come off
#: the wire, and the picker and ``info()`` walk the whole table.
MAX_TENANTS = 1024


class _Tenant:
    __slots__ = ("name", "weight", "queue", "inflight", "vtime",
                 "served", "shed", "enqueued", "slo_shed")

    def __init__(self, name: str, weight: float, vtime: float):
        self.name = name
        self.weight = weight
        self.queue: collections.deque = collections.deque()
        self.inflight = 0
        self.vtime = vtime
        self.served = 0
        self.shed = 0
        self.enqueued = 0
        self.slo_shed = 0


class FairScheduler:
    """Weighted fair queue + worker pool feeding a frame dispatcher.

    Parameters
    ----------
    dispatcher:
        ``Request -> bytes | None`` (normally ``RPCServer.handle``).
    workers:
        Worker-thread count — the global dispatch concurrency.
    weights:
        ``{tenant: weight}``; unnamed tenants get ``default_weight``.
        Weights are relative service shares under contention.
    max_tenant_inflight:
        Per-tenant cap on concurrently *dispatching* requests; ``0``
        means no cap.  A tenant at its cap is simply skipped by the
        pickers until a slot frees — queued, not shed.
    max_tenant_pending:
        Per-tenant cap on *queued* requests; beyond it new arrivals are
        shed immediately with a ``retry_after`` reply.  ``0`` = unbounded.
    retry_after:
        Hint (seconds) carried by shed replies.
    recorder:
        Optional :class:`~repro.obs.flightrec.FlightRecorder`; every
        fair-queue shed records a ``tenant.shed`` event.
    slo:
        Optional :class:`~repro.obs.slo.SLOEngine` consulted (with
        ``slo_shed=True``) before queueing a request.
    slo_shed:
        When true, a tenant that is *burning its error budget* loses its
        queueing rights: while it has any backlog, new arrivals are shed
        immediately.  Healthy tenants queue as before — under overload
        the budget-burner sheds first.
    """

    def __init__(
        self,
        dispatcher: Callable[[envelope.Request], bytes | None],
        workers: int = 8,
        weights: dict[str, float] | None = None,
        default_weight: float = 1.0,
        max_tenant_inflight: int = 0,
        max_tenant_pending: int = 0,
        retry_after: float = 0.05,
        recorder=None,
        slo=None,
        slo_shed: bool = False,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._dispatcher = dispatcher
        self.workers = int(workers)
        self._weights = dict(weights or {})
        self._default_weight = float(default_weight)
        self.max_tenant_inflight = int(max_tenant_inflight)
        self.max_tenant_pending = int(max_tenant_pending)
        self.retry_after = float(retry_after)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.slo = slo
        self.slo_shed = bool(slo_shed)
        self._cond = threading.Condition()
        self._tenants: dict[str, _Tenant] = {}
        self._vclock = 0.0
        self._total_pending = 0
        self._total_inflight = 0
        self._peak_inflight = 0
        self._sheds = 0
        self._slo_sheds = 0
        self._served = 0
        self._stopping = False
        self._finish_queue = True
        self._threads: list[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "FairScheduler":
        with self._cond:
            if self._threads:
                return self
            self._stopping = False
            self._threads = [
                threading.Thread(
                    target=self._worker, daemon=True, name=f"fair-worker-{i}"
                )
                for i in range(self.workers)
            ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self, timeout: float = 2.0, finish: bool = True) -> bool:
        """Stop workers; ``finish=True`` drains queued work first."""
        with self._cond:
            self._stopping = True
            self._finish_queue = finish
            self._cond.notify_all()
            threads = list(self._threads)
        deadline = time.monotonic() + timeout
        clean = True
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            clean = clean and not thread.is_alive()
        with self._cond:
            self._threads = []
        return clean

    def quiescent(self) -> bool:
        """True when nothing is queued or dispatching (drain condition)."""
        with self._cond:
            return self._total_pending == 0 and self._total_inflight == 0

    # -- intake ----------------------------------------------------------
    def submit(self, payload: bytes, respond: Callable[[bytes | None], None]) -> None:
        """Queue one frame; ``respond`` is called exactly once with the
        response payload (or ``None`` for notifications), possibly on a
        worker thread, possibly immediately for shed requests."""
        req = envelope.parse_request(payload)
        sheddable = req.kind == envelope.REQUEST
        # Burn state is read outside the scheduler lock: the SLO engine
        # has its own locking and never calls back into the scheduler.
        burning = (
            self.slo_shed
            and self.slo is not None
            and sheddable
            and self.slo.burning(req.tenant)
        )
        shed_detail = None
        slo_decided = False
        with self._cond:
            tenant = self._tenant_locked(req.tenant)
            backlog = len(tenant.queue)
            if sheddable and 0 < self.max_tenant_pending <= backlog:
                shed_detail = (
                    f"tenant {tenant.name!r} over fair-share capacity "
                    f"(pending={backlog}/{self.max_tenant_pending})"
                )
            elif burning and backlog > 0:
                # SLO-aware shedding: a budget-burning tenant keeps its
                # in-flight and queued work but may not grow its backlog.
                slo_decided = True
                tenant.slo_shed += 1
                self._slo_sheds += 1
                shed_detail = (
                    f"tenant {tenant.name!r} is burning its error budget "
                    f"(backlog={backlog})"
                )
            if shed_detail is None:
                tenant.queue.append((req, respond, time.monotonic()))
                tenant.enqueued += 1
                self._total_pending += 1
                self._cond.notify()
            else:
                tenant.shed += 1
                self._sheds += 1
        if shed_detail is not None:
            shed_error = envelope.overloaded_line(shed_detail, self.retry_after)
            if self.recorder:
                self.recorder.record(
                    "tenant.shed", tenant=req.tenant, msgid=req.msgid,
                    slo=slo_decided, error=shed_error,
                )
            if self.slo is not None:
                if slo_decided:
                    self.slo.record_slo_shed(req.tenant)
                self.slo.observe(req.tenant, 0.0, error=True)
            respond(envelope.response(req.msgid, shed_error))

    def _tenant_locked(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is not None:
            return tenant
        if len(self._tenants) >= MAX_TENANTS and name not in self._weights:
            # Full: forget every idle tenant nobody configured — one sweep
            # makes room for the next MAX_TENANTS names.  If every slot is
            # busy, newcomers share the default tenant's queue.
            self._tenants = {
                n: t for n, t in self._tenants.items()
                if t.queue or t.inflight or n in self._weights
            }
            if len(self._tenants) >= MAX_TENANTS:
                name = envelope.DEFAULT_TENANT
                if name in self._tenants:
                    return self._tenants[name]
        # Joining tenants start at the current virtual clock so a
        # newcomer competes fairly instead of replaying history.
        tenant = _Tenant(
            name, float(self._weights.get(name, self._default_weight)),
            self._vclock,
        )
        self._tenants[name] = tenant
        return tenant

    # -- service ---------------------------------------------------------
    def _pick_locked(self) -> _Tenant | None:
        best = None
        for tenant in self._tenants.values():
            if not tenant.queue:
                continue
            if (
                self.max_tenant_inflight > 0
                and tenant.inflight >= self.max_tenant_inflight
            ):
                continue
            if best is None or tenant.vtime < best.vtime:
                best = tenant
        return best

    def _worker(self) -> None:
        while True:
            with self._cond:
                tenant = self._pick_locked()
                while tenant is None:
                    if self._stopping:
                        return
                    self._cond.wait(timeout=0.2)
                    tenant = self._pick_locked()
                if self._stopping and not self._finish_queue:
                    return
                req, respond, queued_at = tenant.queue.popleft()
                self._total_pending -= 1
                tenant.inflight += 1
                self._total_inflight += 1
                self._peak_inflight = max(self._peak_inflight,
                                          self._total_inflight)
                start = max(tenant.vtime, self._vclock)
                self._vclock = start
                tenant.vtime = start + 1.0 / tenant.weight
            if req.deadline is not None:
                # The budget is a duration from intake: charge the wait.
                waited = time.monotonic() - queued_at
                req = req._replace(deadline=max(0.0, req.deadline - waited))
            try:
                reply = self._dispatcher(req)
            except Exception as exc:  # the dispatcher's contract is "never raise"
                reply = (
                    envelope.response(req.msgid, envelope.error_line(exc))
                    if req.kind == envelope.REQUEST else None
                )
            finally:
                with self._cond:
                    tenant.inflight -= 1
                    self._total_inflight -= 1
                    tenant.served += 1
                    self._served += 1
                    self._cond.notify()
            try:
                respond(reply)
            except Exception:
                pass  # a dead connection must not take down the worker

    # -- stats -----------------------------------------------------------
    @property
    def pending(self) -> int:
        with self._cond:
            return self._total_pending

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._total_inflight

    def admission_info(self) -> dict:
        """The gate's counts in the shape of ``stats``' ``admission`` block
        (the server adds ``expired``, which only dispatch sees)."""
        with self._cond:
            return {
                "max_inflight": self.workers,
                "max_pending": self.max_tenant_pending,
                "inflight": self._total_inflight,
                "pending": self._total_pending,
                "admitted": self._served + self._total_inflight,
                "shed": self._sheds,
                "peak_inflight": self._peak_inflight,
            }

    def info(self) -> dict:
        """Snapshot for the registry and ``health``."""
        with self._cond:
            return {
                "workers": self.workers,
                "pending": self._total_pending,
                "inflight": self._total_inflight,
                "served": self._served,
                "shed": self._sheds,
                "slo_shed": self._slo_sheds,
                "slo_aware": self.slo_shed,
                "max_tenant_inflight": self.max_tenant_inflight,
                "max_tenant_pending": self.max_tenant_pending,
                "tenants": {
                    name: {
                        "weight": t.weight,
                        "pending": len(t.queue),
                        "inflight": t.inflight,
                        "served": t.served,
                        "shed": t.shed,
                        "slo_shed": t.slo_shed,
                    }
                    for name, t in self._tenants.items()
                },
            }
