"""Exporters: Chrome-trace/Perfetto JSON and Prometheus/JSON metrics.

Two artifact families:

* :func:`chrome_trace` — a ``traceEvents`` document loadable in
  ``chrome://tracing`` and https://ui.perfetto.dev.  Spans become "X"
  (complete) events, tracer instants and flight-recorder events become
  "i" (instant) events; warp/SM identifiers map onto Chrome's ``tid``
  so the warp-scheduler timeline renders as parallel tracks.
* :func:`metrics_json` — a JSON document embedding both the registry
  snapshot and the equivalent Prometheus text exposition, so one
  ``--metrics`` file serves dashboards and scripts alike.

All output is deterministic: keys sorted, no wall-clock metadata
unless the caller opts in via ``meta``.  Files are written with
:func:`~repro.common.files.publish`, so an artifact is either the old
file or the complete new one.
"""

from __future__ import annotations

import enum
import json
from pathlib import Path
from typing import Dict, List, Optional

from ..common.files import publish
from .events import FlightRecorder
from .registry import MetricsRegistry
from .spans import Tracer

#: Schema tags stamped into every artifact.
METRICS_SCHEMA = "repro.telemetry.metrics/v1"
TRACE_SCHEMA = "repro.telemetry.trace/v1"


def _jsonable(value: object) -> object:
    if isinstance(value, enum.Enum):
        return str(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return str(value)


def _arg_dict(args) -> Dict[str, object]:
    return {key: _jsonable(args[key]) for key in sorted(args)}


# ----------------------------------------------------------------------
# Chrome trace / Perfetto


def chrome_trace(
    tracer: Optional[Tracer] = None,
    recorder: Optional[FlightRecorder] = None,
    *,
    process_name: str = "repro",
    pid: int = 1,
) -> Dict[str, object]:
    """Build a Chrome-trace (Perfetto-loadable) document."""
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    if tracer is not None:
        for span in tracer.spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.category or "span",
                    "ph": "X",
                    "ts": span.start,
                    "dur": max(0, span.duration),
                    "pid": pid,
                    "tid": span.tid,
                    "args": _arg_dict(span.args),
                }
            )
        for instant in tracer.instants:
            events.append(
                {
                    "name": instant.name,
                    "cat": instant.category or "instant",
                    "ph": "i",
                    "s": "t",
                    "ts": instant.ts,
                    "pid": pid,
                    "tid": instant.tid,
                    "args": _arg_dict(instant.args),
                }
            )
    if recorder is not None:
        for event in recorder.events():
            payload = event.payload
            tid = payload.get("warp", payload.get("thread", 0))
            if not isinstance(tid, int):
                tid = 0
            events.append(
                {
                    "name": event.kind.value,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": event.ts,
                    "pid": pid,
                    "tid": tid,
                    "args": _arg_dict(payload),
                }
            )
    events.sort(key=lambda e: (e.get("ts", -1), e["name"]))
    return {
        "schema": TRACE_SCHEMA,
        "displayTimeUnit": "ms",
        "traceEvents": events,
    }


# ----------------------------------------------------------------------
# Metrics


def metrics_json(
    registry: MetricsRegistry,
    *,
    meta: Optional[Dict[str, object]] = None,
    recorder: Optional[FlightRecorder] = None,
) -> Dict[str, object]:
    """Combined JSON + embedded-Prometheus metrics document."""
    doc: Dict[str, object] = {
        "schema": METRICS_SCHEMA,
        "meta": {k: _jsonable(v) for k, v in sorted((meta or {}).items())},
        "metrics": registry.snapshot(),
        "prometheus": registry.to_prometheus(),
    }
    if recorder is not None:
        doc["events"] = {
            "buffered": len(recorder),
            "emitted": recorder.emitted,
            "dropped": recorder.dropped,
            "sampled_out": recorder.sampled_out,
            "by_kind": recorder.counts_by_kind(),
        }
    return doc


# ----------------------------------------------------------------------
# Serialization helpers


def dumps(document: Dict[str, object]) -> str:
    """Deterministic JSON rendering (sorted keys, stable floats)."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def write_json(path: str, document: Dict[str, object]) -> str:
    """Write *document* to *path* deterministically; returns the path.

    Parent directories are created and the write is atomic
    (:func:`~repro.common.files.publish`).
    """
    text = dumps(document)
    return publish(path, lambda tmp: Path(tmp).write_text(text, "utf-8"))


def write_metrics(
    path: str,
    registry: MetricsRegistry,
    *,
    meta: Optional[Dict[str, object]] = None,
    recorder: Optional[FlightRecorder] = None,
) -> str:
    """Write the metrics document (JSON with embedded Prometheus)."""
    return write_json(
        path, metrics_json(registry, meta=meta, recorder=recorder)
    )


def write_chrome_trace(
    path: str,
    tracer: Optional[Tracer] = None,
    recorder: Optional[FlightRecorder] = None,
    *,
    process_name: str = "repro",
) -> str:
    """Write the Perfetto-loadable trace document."""
    return write_json(
        path, chrome_trace(tracer, recorder, process_name=process_name)
    )


__all__ = [
    "METRICS_SCHEMA",
    "TRACE_SCHEMA",
    "chrome_trace",
    "metrics_json",
    "dumps",
    "write_json",
    "write_metrics",
    "write_chrome_trace",
]
