"""repro.obs — unified tracing, metrics and profiling.

The observability substrate every other layer reports through:

* :class:`~repro.obs.trace.Tracer` — nested spans on a monotonic clock,
  exportable as JSONL or Chrome ``trace_event`` JSON (Perfetto);
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms with Prometheus text and JSON writers;
* :class:`~repro.obs.probe.Probe` / :data:`~repro.obs.probe.NULL_PROBE`
  — the seam of four primitives (spans, ``count``, ``gauge``,
  ``observe``) threaded through the search, stream and service paths
  (near-free when disabled);
* :class:`~repro.obs.progress.ProgressReporter` — heartbeat lines
  (expansions/sec, incumbent, gap) during long exact searches;
* :func:`~repro.obs.report.format_observability_report` — the one
  operator-facing text report;
* :mod:`~repro.obs.telemetry` — cross-process trace propagation:
  per-attempt span spools in workers, merged Chrome traces with real
  pid/tid lanes and retry lineage in the parent;
* :mod:`~repro.obs.logs` — structured JSON logging over stdlib
  ``logging`` with contextvars-bound ``trace_id``/``job_id`` fields
  and an in-memory ring for ``GET /logs/tail``;
* :class:`~repro.obs.profiler.SamplingProfiler` — wall-clock stack
  sampling (collapsed-stack and speedscope exports), default off;
* :mod:`~repro.obs.benchtrend` — the ``BENCH_*.json`` trajectory trend
  report behind ``repro bench report``.

The package is deliberately dependency-free (stdlib only) and imports
nothing from the rest of ``repro`` — every other layer may import it
without cycles.
"""

from repro.obs.logs import (
    JsonFormatter,
    LogRingBuffer,
    bind,
    configure_logging,
    get_logger,
    in_worker_process,
    mark_worker_process,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_counts,
    sanitize_metric_name,
)
from repro.obs.probe import NULL_PROBE, ObservabilityProbe, Probe
from repro.obs.profiler import SamplingProfiler, profile_for
from repro.obs.progress import ProgressReporter
from repro.obs.report import format_observability_report
from repro.obs.telemetry import (
    SpanSpool,
    TelemetryHub,
    WorkerTelemetry,
    new_trace_id,
    read_spool,
    validate_trace_id,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "LogRingBuffer",
    "MetricsRegistry",
    "NULL_PROBE",
    "ObservabilityProbe",
    "Probe",
    "ProgressReporter",
    "SamplingProfiler",
    "Span",
    "SpanSpool",
    "TelemetryHub",
    "Tracer",
    "WorkerTelemetry",
    "bind",
    "configure_logging",
    "format_observability_report",
    "get_logger",
    "in_worker_process",
    "mark_worker_process",
    "new_trace_id",
    "profile_for",
    "read_spool",
    "record_counts",
    "sanitize_metric_name",
    "validate_trace_id",
]
