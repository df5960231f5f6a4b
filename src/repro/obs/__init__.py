"""End-to-end telemetry: metrics registry, one event core, SLO surfaces.

The serving system's paper-level metrics (latency percentiles, staleness,
cache behaviour) become *operational* here:

* :mod:`repro.obs.metrics` — process-wide registry of counters, gauges and
  log-bucket histograms with streaming p50/p90/p99, contextvar-scoped like
  the compute-backend registry.  Every legacy stats surface
  (``BatcherStats``, ``LogitCacheStats``, ``ClusterStats``,
  ``OperatorCacheStats``, ``CacheStats``, the autodiff tape's
  ``GraphStats``) is now a thin view over it;
* :mod:`repro.obs.trace` — the telemetry core: one :class:`Telemetry`
  state of which event kinds are on (request/stage *spans*, *kernels*),
  set by :func:`set_telemetry` or scoped by :func:`use_telemetry`, and one
  event record, :class:`Span`.  Request spans propagate from
  ``RequestBatcher.submit`` through the engine and the shard router's
  worker pipes into child processes and stitch back into one trace tree.
  Off by default and near-free when off;
* :mod:`repro.obs.profile` — the kernel table kernel events fold into,
  memory high-water marks and the ``repro.obs top`` renderer;
* :mod:`repro.obs.snapshot` — structured JSON snapshot emission consumed by
  the ``python -m repro.obs`` CLI (``dump`` / ``watch`` / ``trace <id>`` /
  ``top`` / ``export --chrome``) and the serving benchmark's ``--slo``
  pass/fail check.
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
    use_profiler,
)
from repro.obs.slo import check_slo, format_slo, parse_slo
from repro.obs.trace import (
    Span,
    SpanContext,
    Telemetry,
    Tracer,
    adopt,
    current_context,
    get_tracer,
    kernel,
    render_trace,
    set_telemetry,
    span,
    start_trace,
    telemetry,
    use_telemetry,
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
    "use_profiler",
    "collect_traces",
    "spans_to_chrome",
    "write_chrome_trace",
    "Span",
    "SpanContext",
    "Telemetry",
    "Tracer",
    "adopt",
    "current_context",
    "get_tracer",
    "kernel",
    "render_trace",
    "set_telemetry",
    "span",
    "start_trace",
    "telemetry",
    "use_telemetry",
]
