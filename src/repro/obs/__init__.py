"""End-to-end telemetry: metrics registry, request tracing, SLO surfaces.

The serving system's paper-level metrics (latency percentiles, staleness,
cache behaviour) become *operational* here:

* :mod:`repro.obs.metrics` — process-wide registry of counters, gauges and
  log-bucket histograms with streaming p50/p90/p99, contextvar-scoped like
  the compute-backend registry.  Every legacy stats surface
  (``BatcherStats``, ``LogitCacheStats``, ``ClusterStats``,
  ``OperatorCacheStats``, ``CacheStats``, the autodiff tape's
  ``GraphStats``) is now a thin view over it;
* :mod:`repro.obs.trace` — request-scoped spans that propagate from
  ``RequestBatcher.submit`` through the engine and the shard router's
  worker command pipes into child processes and stitch back into one trace
  tree, with queue-wait, IPC and compute time separated.  Disabled by
  default and near-free when off (``REPRO_TELEMETRY=1`` or
  :func:`set_tracing` turns it on);
* :mod:`repro.obs.snapshot` — structured JSON snapshot emission consumed by
  the ``python -m repro.obs`` CLI (``dump`` / ``watch`` / ``trace <id>``)
  and the serving benchmark's ``--slo`` pass/fail check.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_metrics,
    global_metrics,
    next_instance,
    register_collector,
    use_metrics,
)
from repro.obs.snapshot import (
    DEFAULT_SNAPSHOT_PATH,
    SnapshotEmitter,
    latest_snapshot,
    read_snapshots,
)
from repro.obs.chrome import collect_traces, spans_to_chrome, write_chrome_trace
from repro.obs.profile import (
    KernelProfiler,
    active_profiler,
    estimate_flops_bytes,
    format_top,
    global_profiler,
    profiling_enabled,
    set_profiling,
    use_profiler,
    use_profiling,
)
from repro.obs.slo import check_slo, format_slo, parse_slo
from repro.obs.trace import (
    Span,
    SpanContext,
    Tracer,
    adopt,
    current_context,
    get_tracer,
    render_trace,
    set_tracing,
    span,
    start_trace,
    tracing_enabled,
    use_tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_metrics",
    "global_metrics",
    "next_instance",
    "register_collector",
    "use_metrics",
    "DEFAULT_SNAPSHOT_PATH",
    "SnapshotEmitter",
    "latest_snapshot",
    "read_snapshots",
    "check_slo",
    "format_slo",
    "parse_slo",
    "KernelProfiler",
    "active_profiler",
    "estimate_flops_bytes",
    "format_top",
    "global_profiler",
    "profiling_enabled",
    "set_profiling",
    "use_profiler",
    "use_profiling",
    "collect_traces",
    "spans_to_chrome",
    "write_chrome_trace",
    "Span",
    "SpanContext",
    "Tracer",
    "adopt",
    "current_context",
    "get_tracer",
    "render_trace",
    "set_tracing",
    "span",
    "start_trace",
    "tracing_enabled",
    "use_tracing",
]
