"""Observability: end-to-end tracing, metrics, and exporters.

The paper's evaluation is one long load-time breakdown; this package is
the instrumentation that produces such breakdowns from live runs instead
of hand-placed timers:

* :mod:`repro.obs.trace` — span-based tracing over wall *and* simulated
  clocks, with trace-context propagation across the RPC boundary so a
  single contour request yields one client+server tree,
* :mod:`repro.obs.metrics` — the one metrics model: named
  Counter/Gauge/Histogram instruments, the :class:`Tally` count bag
  caches and resilient clients record into, the single bucket-quantile
  routine, and a :class:`Registry` whose ``snapshot()`` is the ``stats``
  endpoint's reply,
* :mod:`repro.obs.export` — JSONL span logs, Chrome trace-event JSON
  (Perfetto-loadable), and Prometheus text exposition.

Everything defaults to off: :data:`~repro.obs.trace.NULL_TRACER` is a
reused no-op, so un-traced hot paths pay a single attribute read.
"""

from repro.obs.export import (
    chrome_trace,
    escape_label_value,
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.flightrec import (
    DEFAULT_TRIGGERS,
    NULL_RECORDER,
    FlightRecorder,
    NullFlightRecorder,
    install_signal_dump,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    Tally,
    bucket_quantile,
    exponential_buckets,
    merge_snapshots,
    snapshot_quantile,
)
from repro.obs.profile import NULL_PROFILER, NullProfiler, SamplingProfiler
from repro.obs.slo import DEFAULT_SLO, SLO, RollingSketch, SLOEngine
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer, new_id

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "new_id",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Tally",
    "bucket_quantile",
    "snapshot_quantile",
    "exponential_buckets",
    "merge_snapshots",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "prometheus_text",
    "escape_label_value",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_RECORDER",
    "DEFAULT_TRIGGERS",
    "install_signal_dump",
    "SLO",
    "DEFAULT_SLO",
    "SLOEngine",
    "RollingSketch",
    "SamplingProfiler",
    "NullProfiler",
    "NULL_PROFILER",
]
