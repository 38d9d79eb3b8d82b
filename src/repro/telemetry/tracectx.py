"""Per-request trace context: deterministic IDs, contextvar
propagation, and an in-memory waterfall store.

Every served request and every executed experiment-engine job gets
a **trace id** — ``rtx-`` + 16 hex chars, a SHA-256 of a fixed seed
and a counter, so a replayed run mints the identical sequence.  The
id travels through the process on a :mod:`contextvars` variable (so
the engine can tag a :class:`~repro.experiments.engine.JobResult`
without threading an argument through every call) and across the
fabric's worker result pipe as a plain field on the task tuple.

Completed requests land in :data:`TRACES`, a bounded thread-safe
store of **waterfalls**: ordered stages (``queue_wait`` →
``trace_expand`` → ``sim`` → …) with millisecond offsets and
durations that sum to the request's end-to-end latency (a synthetic
``unattributed`` stage absorbs scheduling slop, so the sum is honest
rather than cherry-picked).  The serve daemon's ``/trace/<id>``
endpoint and ``repro trace show`` render these.

Determinism contract: trace ids and waterfalls are *diagnostics*.
They live only here and in the structured log ring — never in the
byte-identical ``--metrics``/``--trace``/figure exports, which the
leak tests grep for the ``rtx-`` prefix to prove.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import threading
import time
from collections import OrderedDict
from contextvars import ContextVar
from typing import Dict, Iterable, List, Mapping, Optional

#: Schema tag of one stored trace document.
TRACE_SCHEMA = "repro.telemetry.tracectx/v1"

#: Greppable prefix of every trace id.  Distinctive on purpose: the
#: leak tests (and CI) prove the deterministic exports never contain
#: ``rtx-[0-9a-f]{16}``.
TRACE_ID_PREFIX = "rtx"

#: Seed of the id sequence: the same mint order names the same ids,
#: so a replayed load test names identical traces.
_ID_SEED = "0"

#: Completed traces kept per store (oldest evicted first).
DEFAULT_TRACE_CAPACITY = 512

#: Canonical stage order for waterfall rendering; unknown stages sort
#: after these, in recording order.
STAGE_ORDER = (
    "admission",
    "queue_wait",
    "coalesce_wait",
    "batch_assembly",
    "memory_lookup",
    "disk_lookup",
    "trace_expand",
    "compile",
    "sim",
    "cache_publish",
    "serialize",
    "unattributed",
)

_current_trace: ContextVar[Optional[str]] = ContextVar(
    "repro_trace_id", default=None
)

_id_lock = threading.Lock()
_id_counter = itertools.count()


def new_trace_id() -> str:
    """Mint the next trace id: ``rtx-`` + 16 hex chars.

    Deterministic in mint order and unique per process; thread-safe.
    """
    with _id_lock:
        n = next(_id_counter)
    digest = hashlib.sha256(
        f"{_ID_SEED}:{n}".encode("ascii")
    ).hexdigest()
    return f"{TRACE_ID_PREFIX}-{digest[:16]}"


def reset_trace_ids() -> None:
    """Restart the id sequence (tests)."""
    global _id_counter
    with _id_lock:
        _id_counter = itertools.count()


def current_trace_id() -> Optional[str]:
    """The trace id bound to the current context, or None."""
    return _current_trace.get()


@contextlib.contextmanager
def bind_trace(trace_id: Optional[str]):
    """Bind *trace_id* as the current context's trace id."""
    token = _current_trace.set(trace_id)
    try:
        yield trace_id
    finally:
        _current_trace.reset(token)


class TraceStore:
    """Bounded, thread-safe store of completed request waterfalls.

    One record per trace id::

        {"schema": TRACE_SCHEMA, "trace_id": "rtx-…",
         "started_unix": 1699…, "attrs": {…}, "complete": True,
         "total_ms": 12.4,
         "stages": [{"stage": "queue_wait", "offset_ms": 0.01,
                     "duration_ms": 1.2}, …]}

    Stages are laid out sequentially unless an explicit offset is
    given, so a Gantt needs no reconstruction.  Wall-clock timestamps
    are safe here: the store is diagnostics-only, never exported
    deterministically.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        self.capacity = max(1, capacity)
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, Dict[str, object]]" = OrderedDict()

    # ------------------------------------------------------------------

    def begin(self, trace_id: str, **attrs: object) -> None:
        """Open a trace (idempotent; re-begin refreshes attrs)."""
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                record = {
                    "schema": TRACE_SCHEMA,
                    "trace_id": trace_id,
                    "started_unix": round(time.time(), 3),
                    "attrs": {},
                    "stages": [],
                    "total_ms": None,
                    "complete": False,
                }
                self._traces[trace_id] = record
                while len(self._traces) > self.capacity:
                    self._traces.popitem(last=False)
            record["attrs"].update(
                {k: v for k, v in attrs.items() if v is not None}
            )

    def annotate(self, trace_id: str, **attrs: object) -> None:
        """Attach key/value attributes to an open trace."""
        with self._lock:
            record = self._traces.get(trace_id)
            if record is not None:
                record["attrs"].update(
                    {k: v for k, v in attrs.items() if v is not None}
                )

    def stage(
        self,
        trace_id: str,
        name: str,
        duration_seconds: float,
        *,
        offset_seconds: Optional[float] = None,
    ) -> None:
        """Append one stage.  Without *offset_seconds* the stage is
        laid after the previous one (sequential waterfall)."""
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                return
            stages: List[Dict[str, object]] = record["stages"]
            if offset_seconds is None:
                if stages:
                    last = stages[-1]
                    offset_ms = float(last["offset_ms"]) + float(
                        last["duration_ms"]
                    )
                else:
                    offset_ms = 0.0
            else:
                offset_ms = offset_seconds * 1000.0
            stages.append(
                {
                    "stage": name,
                    "offset_ms": round(offset_ms, 4),
                    "duration_ms": round(
                        max(0.0, duration_seconds) * 1000.0, 4
                    ),
                }
            )

    def finish(
        self, trace_id: str, total_seconds: Optional[float] = None
    ) -> None:
        """Close a trace.  With *total_seconds*, any gap between the
        recorded stages and the end-to-end total becomes a synthetic
        ``unattributed`` stage, so the waterfall always sums to the
        measured latency."""
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                return
            stages: List[Dict[str, object]] = record["stages"]
            attributed = sum(float(s["duration_ms"]) for s in stages)
            if total_seconds is None:
                total_ms = attributed
            else:
                total_ms = max(0.0, total_seconds * 1000.0)
                gap = total_ms - attributed
                if gap > 0.0005:
                    offset = (
                        float(stages[-1]["offset_ms"])
                        + float(stages[-1]["duration_ms"])
                        if stages
                        else 0.0
                    )
                    stages.append(
                        {
                            "stage": "unattributed",
                            "offset_ms": round(offset, 4),
                            "duration_ms": round(gap, 4),
                        }
                    )
            record["total_ms"] = round(total_ms, 4)
            record["complete"] = True
            self._traces.move_to_end(trace_id)

    def record(
        self,
        trace_id: str,
        *,
        attrs: Optional[Mapping[str, object]] = None,
        stages: Iterable[tuple] = (),
        total_seconds: Optional[float] = None,
    ) -> None:
        """Store one completed trace in a single lock acquisition.

        Equivalent to ``begin`` + ``stage``\\ * + ``finish`` (stages
        laid sequentially, the gap to *total_seconds* backed into
        ``unattributed``), but shaped for the serving hot path, where
        four-plus lock round-trips per request are measurable against
        a sub-millisecond cache hit.  *stages* is an iterable of
        ``(name, duration_seconds)`` pairs.
        """
        stage_list: List[Dict[str, object]] = []
        offset_ms = 0.0
        for name, duration_seconds in stages:
            duration_ms = round(max(0.0, duration_seconds) * 1000.0, 4)
            stage_list.append(
                {
                    "stage": name,
                    "offset_ms": round(offset_ms, 4),
                    "duration_ms": duration_ms,
                }
            )
            offset_ms += duration_ms
        if total_seconds is None:
            total_ms = offset_ms
        else:
            total_ms = max(0.0, total_seconds * 1000.0)
            gap = total_ms - offset_ms
            if gap > 0.0005:
                stage_list.append(
                    {
                        "stage": "unattributed",
                        "offset_ms": round(offset_ms, 4),
                        "duration_ms": round(gap, 4),
                    }
                )
        document: Dict[str, object] = {
            "schema": TRACE_SCHEMA,
            "trace_id": trace_id,
            "started_unix": round(time.time(), 3),
            "attrs": {
                k: v
                for k, v in dict(attrs or {}).items()
                if v is not None
            },
            "stages": stage_list,
            "total_ms": round(total_ms, 4),
            "complete": True,
        }
        with self._lock:
            self._traces[trace_id] = document
            self._traces.move_to_end(trace_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    # ------------------------------------------------------------------

    def get(self, trace_id: str) -> Optional[Dict[str, object]]:
        """Deep-enough copy of one trace document, or None."""
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                return None
            return _copy_trace(record)

    def recent(self, limit: int = 32) -> List[Dict[str, object]]:
        """Most recent traces, newest first."""
        with self._lock:
            records = list(self._traces.values())
        out = [_copy_trace(r) for r in reversed(records[-max(0, limit):])]
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


def _copy_trace(record: Mapping[str, object]) -> Dict[str, object]:
    out = dict(record)
    out["attrs"] = dict(record["attrs"])  # type: ignore[index]
    out["stages"] = [dict(s) for s in record["stages"]]  # type: ignore[index]
    return out


def record_job_trace(
    trace_id: str,
    *,
    phases: Mapping[str, float],
    attrs: Optional[Mapping[str, object]] = None,
    store: Optional["TraceStore"] = None,
) -> None:
    """Fold one engine job's phase attribution into a waterfall.

    Stages follow :data:`STAGE_ORDER` (``trace_expand`` → ``compile``
    → ``sim``), laid sequentially; the total is the phase sum — the
    honest end-to-end figure the engine measured where the job ran.
    """
    target = store if store is not None else TRACES
    rank = {name: i for i, name in enumerate(STAGE_ORDER)}
    ordered = sorted(
        phases, key=lambda n: (rank.get(n, len(rank)), n)
    )
    target.record(
        trace_id,
        attrs=attrs,
        stages=[(name, float(phases[name])) for name in ordered],
    )


#: Process-global trace store (diagnostics only; never exported).
TRACES = TraceStore()


__all__ = [
    "TRACE_SCHEMA",
    "TRACE_ID_PREFIX",
    "DEFAULT_TRACE_CAPACITY",
    "STAGE_ORDER",
    "TraceStore",
    "TRACES",
    "bind_trace",
    "current_trace_id",
    "new_trace_id",
    "record_job_trace",
    "reset_trace_ids",
]
