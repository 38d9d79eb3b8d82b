"""Telemetry subsystem: metrics registry, event bus, spans, exporters.

The observability layer of the reproduction (see DESIGN.md,
"Observability").  Three collection surfaces behind one global
``enabled`` flag:

* :class:`MetricsRegistry` — hierarchical counters/gauges/histograms
  with labels (``ocu.extent_cleared{space=heap}``);
* :class:`FlightRecorder` — ring-buffered structured
  :class:`TelemetryEvent` stream (alloc/free, OCU decisions, EC
  faults, oracle mismatches, cache and warp-scheduler activity);
* :class:`Tracer` — span timeline of launches/experiments.

Exporters produce a Perfetto-loadable Chrome trace and a combined
Prometheus-text + JSON metrics document.

On top of the post-hoc stack sits the **live plane** (DESIGN.md,
"Observability" → "Live plane"): :class:`ProgressBoard` tracks
in-flight jobs (queued → running → done/failed, EWMA ETA, per-phase
wall-time attribution) and
:class:`~repro.telemetry.server.ObservabilityServer` serves it (with
``/metrics``, ``/trace`` and ``/logs``) from the one HTTP plane —
opt-in via ``--serve``, read-only over telemetry state so exports stay
byte-identical.  The server is not re-exported here: importing
:mod:`repro.telemetry.server` loads ``asyncio``, which only a process
that serves needs.
"""

from .events import IMPORTANT_KINDS, EventKind, FlightRecorder, TelemetryEvent
from .export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    chrome_trace,
    dumps,
    metrics_json,
    write_chrome_trace,
    write_json,
    write_metrics,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .runtime import (
    TELEMETRY,
    Telemetry,
    capture,
    configure,
    emit_event,
    get_telemetry,
    telemetry_enabled,
)
from .ledger import LEDGER_SCHEMA, RunLedger, git_sha, make_record
from .progress import PROGRESS, PROGRESS_SCHEMA, ProgressBoard, get_progress
from .registry import lint_prometheus
from .report import (
    build_html,
    build_summary,
    check_regressions,
    gateable_series,
    write_report,
    write_summary,
)
from .log import LOG, LOG_SCHEMA, StructuredLog
from .spans import Instant, LogicalClock, Span, Tracer, WallClock
from .tracectx import (
    TRACES,
    TraceStore,
    bind_trace,
    current_trace_id,
    new_trace_id,
    record_job_trace,
    reset_trace_ids,
)

__all__ = [
    "EventKind",
    "TelemetryEvent",
    "FlightRecorder",
    "IMPORTANT_KINDS",
    "METRICS_SCHEMA",
    "TRACE_SCHEMA",
    "chrome_trace",
    "metrics_json",
    "dumps",
    "write_json",
    "write_metrics",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Telemetry",
    "TELEMETRY",
    "capture",
    "configure",
    "emit_event",
    "get_telemetry",
    "telemetry_enabled",
    "Instant",
    "LogicalClock",
    "Span",
    "Tracer",
    "WallClock",
    "LEDGER_SCHEMA",
    "RunLedger",
    "git_sha",
    "make_record",
    "build_html",
    "build_summary",
    "check_regressions",
    "gateable_series",
    "write_report",
    "write_summary",
    "lint_prometheus",
    "PROGRESS",
    "PROGRESS_SCHEMA",
    "ProgressBoard",
    "get_progress",
    "LOG",
    "LOG_SCHEMA",
    "StructuredLog",
    "TRACES",
    "TraceStore",
    "bind_trace",
    "current_trace_id",
    "new_trace_id",
    "record_job_trace",
    "reset_trace_ids",
]
