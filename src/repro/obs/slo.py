"""Per-tenant SLOs: rolling latency sketches, error budgets, burn rates.

A million-user front door is not run on averages; it is run on
*objectives* — "99% of requests finish under 250 ms" — and on how fast
each tenant is spending the error budget that objective implies.  This
module provides:

* :class:`RollingSketch` — a log-bucket latency sketch over a rolling
  time window, built from the same exponential bucket boundaries as
  :class:`~repro.obs.metrics.Histogram` so storage stays O(buckets) and
  sketches **merge across shards** by summing counts (identical bounds
  by construction).  The window is a ring of fixed-duration slices;
  expired slices are zeroed lazily, so neither observe nor quantile ever
  scans history.
* :class:`SLO` — one objective: a latency threshold, a target fraction,
  and the error budget that falls out (``1 - objective``).  A request is
  *bad* when it errors or exceeds the threshold; the **burn rate** is
  ``bad_fraction / budget``: 1.0 spends the budget exactly on schedule,
  10 spends it ten times too fast.
* :class:`SLOEngine` — per-tenant tracking with **multi-window burn
  evaluation** (the SRE alerting pattern: act only when both a fast and
  a slow window burn, so one blip doesn't page and a real regression
  can't hide between samples).  :meth:`SLOEngine.burning` is the hook
  the fair scheduler consults when SLO-aware shedding is enabled:
  tenants torching their budget shed first under overload.

Everything is msgpack-safe through :meth:`SLOEngine.snapshot`, so burn
state rides the existing ``stats``/``health`` endpoints and the
Prometheus exporter unchanged.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError
from repro.obs.metrics import bucket_quantile, exponential_buckets

__all__ = ["RollingSketch", "SLO", "SLOEngine", "DEFAULT_SLO"]


class RollingSketch:
    """Log-bucket latency quantiles over a rolling window.

    The window is split into ``slices`` equal sub-windows; each holds a
    bucket-count row.  Observations land in the current slice; queries
    merge every non-expired slice.  Advancing is lazy and O(slices).
    """

    def __init__(self, window: float = 60.0, slices: int = 6,
                 buckets: tuple[float, ...] | None = None,
                 clock: Callable[[], float] = time.monotonic):
        if window <= 0 or slices < 1:
            raise ReproError(
                f"invalid sketch spec window={window} slices={slices}"
            )
        self.buckets = (
            tuple(buckets) if buckets is not None
            else exponential_buckets(1e-4, 4.0, 10)
        )
        self.window = float(window)
        self.slices = int(slices)
        self._slice_dur = self.window / self.slices
        self._clock = clock
        self._lock = threading.Lock()
        # One row per slice; trailing column is the +Inf bucket.
        self._rows = [[0] * (len(self.buckets) + 1) for _ in range(slices)]
        self._row_epoch = [-1] * slices  # which slice-index each row holds
        self._count = [0] * slices
        self._sum = [0.0] * slices

    def _row_for_now_locked(self) -> int:
        epoch = int(self._clock() / self._slice_dur)
        idx = epoch % self.slices
        if self._row_epoch[idx] != epoch:
            self._rows[idx] = [0] * (len(self.buckets) + 1)
            self._count[idx] = 0
            self._sum[idx] = 0.0
            self._row_epoch[idx] = epoch
        return idx

    def observe(self, value: float) -> None:
        bucket = bisect_left(self.buckets, value)
        with self._lock:
            idx = self._row_for_now_locked()
            self._rows[idx][bucket] += 1
            self._count[idx] += 1
            self._sum[idx] += value

    def _live_rows_locked(self) -> list[int]:
        now_epoch = int(self._clock() / self._slice_dur)
        return [
            i for i in range(self.slices)
            if self._row_epoch[i] >= 0
            and now_epoch - self._row_epoch[i] < self.slices
        ]

    def merged(self) -> dict:
        """Window totals: bucket counts, count, sum (msgpack-safe)."""
        with self._lock:
            live = self._live_rows_locked()
            counts = [0] * (len(self.buckets) + 1)
            total, acc = 0, 0.0
            for i in live:
                row = self._rows[i]
                for j, c in enumerate(row):
                    counts[j] += c
                total += self._count[i]
                acc += self._sum[i]
        return {
            "buckets": list(self.buckets),
            "counts": counts,
            "count": total,
            "sum": acc,
        }

    def quantile(self, q: float, merged: dict | None = None) -> float:
        """Bucket-resolution quantile over the current window."""
        data = merged if merged is not None else self.merged()
        return bucket_quantile(self.buckets, data["counts"], q)

    @staticmethod
    def merge_dicts(dicts: list[dict]) -> dict:
        """Sum ``merged()`` dicts from peer shards (identical bounds)."""
        out: dict | None = None
        for d in dicts:
            if not d or not d.get("buckets"):
                continue
            if out is None:
                out = {
                    "buckets": list(d["buckets"]),
                    "counts": list(d["counts"]),
                    "count": int(d["count"]),
                    "sum": float(d["sum"]),
                }
                continue
            if list(d["buckets"]) != out["buckets"]:
                continue  # foreign bounds cannot be merged losslessly
            out["counts"] = [a + b for a, b in zip(out["counts"], d["counts"])]
            out["count"] += int(d["count"])
            out["sum"] += float(d["sum"])
        return out or {"buckets": [], "counts": [], "count": 0, "sum": 0.0}


@dataclass(frozen=True)
class SLO:
    """One objective: latency threshold + target fraction.

    ``objective=0.99, latency=0.25`` reads "99% of requests answer in
    under 250 ms"; the error budget is the remaining 1%.  A request is
    bad when it errors *or* overruns the threshold — shed replies count
    as bad too (the client asked and was refused).
    """

    latency: float = 0.25
    objective: float = 0.99

    def __post_init__(self):
        if not 0.0 < self.objective < 1.0:
            raise ReproError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.latency <= 0:
            raise ReproError(f"latency must be > 0, got {self.latency}")

    @property
    def budget(self) -> float:
        """Allowed bad fraction (``1 - objective``)."""
        return 1.0 - self.objective


DEFAULT_SLO = SLO()
#: Bound on tenant states nobody configured an objective for: the names
#: come off the wire (same policy as ``rpc.fairshare.MAX_TENANTS``).
MAX_TENANTS = 1024


class _WindowCounts:
    """Rolling (total, bad) counters over a sliced window."""

    __slots__ = ("window", "slices", "_slice_dur", "_clock", "_totals",
                 "_bads", "_epochs")

    def __init__(self, window: float, slices: int, clock):
        self.window = float(window)
        self.slices = int(slices)
        self._slice_dur = self.window / self.slices
        self._clock = clock
        self._totals = [0] * self.slices
        self._bads = [0] * self.slices
        self._epochs = [-1] * self.slices

    def add(self, bad: bool) -> None:
        epoch = int(self._clock() / self._slice_dur)
        idx = epoch % self.slices
        if self._epochs[idx] != epoch:
            self._totals[idx] = 0
            self._bads[idx] = 0
            self._epochs[idx] = epoch
        self._totals[idx] += 1
        if bad:
            self._bads[idx] += 1

    def totals(self) -> tuple[int, int]:
        now_epoch = int(self._clock() / self._slice_dur)
        total = bad = 0
        for i in range(self.slices):
            if self._epochs[i] >= 0 and now_epoch - self._epochs[i] < self.slices:
                total += self._totals[i]
                bad += self._bads[i]
        return total, bad


class _TenantState:
    __slots__ = ("name", "slo", "sketch", "fast", "slow", "total", "bad",
                 "slo_sheds")

    def __init__(self, name: str, slo: SLO, fast_window: float,
                 slow_window: float, slices: int, clock):
        self.name = name
        self.slo = slo
        self.sketch = RollingSketch(
            window=slow_window, slices=slices, clock=clock
        )
        self.fast = _WindowCounts(fast_window, slices, clock)
        self.slow = _WindowCounts(slow_window, slices, clock)
        self.total = 0
        self.bad = 0
        self.slo_sheds = 0


class SLOEngine:
    """Per-tenant SLO tracking with multi-window burn-rate evaluation.

    Parameters
    ----------
    slo:
        Default objective for every tenant.
    objectives:
        Optional ``{tenant: SLO}`` overrides.
    fast_window, slow_window:
        The two burn-evaluation horizons (seconds).  Short enough to
        react, long enough not to flap; defaults suit a live demo —
        production deployments pass minutes/hours.
    burn_threshold:
        Burn rate both windows must exceed before :meth:`burning`
        reports a tenant (1.0 = budget spent exactly on schedule).
    min_requests:
        Below this many requests in the fast window a tenant is never
        reported burning: tiny samples make meaningless fractions.
    clock:
        Injectable monotonic clock (tests use a fake).
    """

    def __init__(
        self,
        slo: SLO = DEFAULT_SLO,
        objectives: dict[str, SLO] | None = None,
        fast_window: float = 30.0,
        slow_window: float = 300.0,
        slices: int = 6,
        burn_threshold: float = 1.0,
        min_requests: int = 10,
        clock: Callable[[], float] = time.monotonic,
    ):
        if fast_window <= 0 or slow_window < fast_window:
            raise ReproError(
                f"need 0 < fast_window <= slow_window, got "
                f"{fast_window}/{slow_window}"
            )
        self.slo = slo
        self.objectives = dict(objectives or {})
        self.fast_window = float(fast_window)
        self.slow_window = float(slow_window)
        self.slices = int(slices)
        self.burn_threshold = float(burn_threshold)
        self.min_requests = int(min_requests)
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantState] = {}

    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            with self._lock:
                if name not in self._tenants and name not in self.objectives \
                        and len(self._tenants) >= MAX_TENANTS:
                    # Full: forget every tenant nobody configured whose
                    # slow window has gone quiet.  If every state is live,
                    # newcomers are accounted to the default tenant.
                    self._tenants = {
                        n: s for n, s in self._tenants.items()
                        if n in self.objectives or s.slow.totals()[0]
                    }
                    if len(self._tenants) >= MAX_TENANTS:
                        name = "default"
                state = self._tenants.get(name)
                if state is None:
                    state = _TenantState(
                        name, self.objectives.get(name, self.slo),
                        self.fast_window, self.slow_window, self.slices,
                        self._clock,
                    )
                    self._tenants[name] = state
        return state

    # -- feed -------------------------------------------------------------
    def observe(self, tenant: str, latency: float, error: bool = False) -> None:
        """Record one finished request for ``tenant``.

        ``error`` covers handler failures and sheds; a slow success past
        the latency threshold is equally budget-burning.
        """
        state = self._tenant(tenant)
        bad = bool(error) or latency > state.slo.latency
        state.sketch.observe(latency)
        state.fast.add(bad)
        state.slow.add(bad)
        state.total += 1
        if bad:
            state.bad += 1

    def record_slo_shed(self, tenant: str) -> None:
        """Count a request shed *because* of this engine's verdict."""
        self._tenant(tenant).slo_sheds += 1

    # -- evaluate ---------------------------------------------------------
    @staticmethod
    def _burn(total: int, bad: int, budget: float) -> float:
        if total == 0:
            return 0.0
        return (bad / total) / budget

    def burn_rates(self, tenant: str) -> tuple[float, float]:
        """(fast, slow) burn rates for ``tenant`` right now."""
        state = self._tenant(tenant)
        ft, fb = state.fast.totals()
        st, sb = state.slow.totals()
        budget = state.slo.budget
        return self._burn(ft, fb, budget), self._burn(st, sb, budget)

    def burning(self, tenant: str) -> bool:
        """True when *both* windows burn past the threshold.

        This is the multi-window rule: the fast window proves the
        problem is happening now, the slow window proves it is not a
        blip.  Tenants the engine has never seen are not burning.
        """
        state = self._tenants.get(tenant)
        if state is None:
            return False
        ft, fb = state.fast.totals()
        if ft < self.min_requests:
            return False
        fast, slow = self.burn_rates(tenant)
        return fast > self.burn_threshold and slow > self.burn_threshold

    def tenant_state(self, tenant: str) -> dict:
        """Full burn picture for one tenant (msgpack-safe)."""
        state = self._tenant(tenant)
        fast, slow = self.burn_rates(tenant)
        ft, fb = state.fast.totals()
        merged = state.sketch.merged()
        return {
            "objective": state.slo.objective,
            "latency_slo": state.slo.latency,
            "budget": state.slo.budget,
            "total": state.total,
            "bad": state.bad,
            "window_total": ft,
            "window_bad": fb,
            "burn_fast": fast,
            "burn_slow": slow,
            "burning": self.burning(tenant),
            "slo_sheds": state.slo_sheds,
            "p50": state.sketch.quantile(0.50, merged),
            "p99": state.sketch.quantile(0.99, merged),
            "sketch": merged,
        }

    def snapshot(self) -> dict:
        """Registry-collector form: every tenant's burn state."""
        with self._lock:
            names = list(self._tenants)
        return {
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "burn_threshold": self.burn_threshold,
            "tenants": {name: self.tenant_state(name) for name in names},
        }
