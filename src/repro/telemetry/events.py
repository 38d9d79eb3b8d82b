"""Structured event bus / flight recorder.

The executor, hardware units and simulator publish
:class:`TelemetryEvent` records — per-access verdicts, OCU clears, EC
faults, oracle mismatches, warp scheduler activity — into a bounded
ring buffer (:class:`FlightRecorder`).  The recorder is the "black
box" of a run: it keeps the most recent *capacity* events so a fault
can always be explained from the stream that led up to it, while the
registry keeps the aggregate counts.

Hot-path discipline
-------------------
* When the recorder is disabled, :meth:`FlightRecorder.emit` returns
  after a single attribute test — no event object, no payload dict is
  retained.  Call sites in per-instruction loops additionally guard
  with ``if telemetry.enabled:`` so not even the ``**payload`` dict is
  built.
* ``sample_every=N`` keeps every Nth routine event; *important* kinds
  (faults, detections, oracle mismatches) bypass sampling so the
  signal is never thinned away.
* :meth:`FlightRecorder.emit_segment` takes a whole columnar batch of
  events (one per row of an ``int64`` array) in O(1): it advances the
  counters arithmetically and keeps the surviving rows as a lazy
  segment, so the fast path's warp-issue stream — millions of rows
  into an 8,192-slot ring — never builds the events overflow would
  drop.  :class:`TelemetryEvent` objects for segment rows are built
  only when read (:meth:`~FlightRecorder.events`,
  :meth:`~FlightRecorder.drain`).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Deque, Dict, FrozenSet, List, Mapping, Optional, Tuple,
    Union,
)

if TYPE_CHECKING:  # annotations only: telemetry imports without NumPy
    import numpy as np


class EventKind(enum.Enum):
    """Vocabulary of the structured event bus."""

    ALLOC = "alloc"
    FREE = "free"
    SCOPE_EXIT = "scope_exit"
    POINTER_TAG = "pointer_tag"
    PTR_ARITH = "ptr_arith"
    OCU_CLEAR = "ocu_clear"
    OCU_PROPAGATE = "ocu_propagate"
    EC_FAULT = "ec_fault"
    ACCESS_CHECK = "access_check"
    DETECTION = "detection"
    ORACLE_VIOLATION = "oracle_violation"
    ORACLE_MISMATCH = "oracle_mismatch"
    CACHE_HIT = "cache_hit"
    CACHE_MISS = "cache_miss"
    WARP_ISSUE = "warp_issue"
    WARP_STALL = "warp_stall"
    KERNEL_BEGIN = "kernel_begin"
    KERNEL_END = "kernel_end"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Kinds that must never be lost to sampling (they are rare and are
#: exactly what post-mortem debugging needs).
IMPORTANT_KINDS: FrozenSet[EventKind] = frozenset(
    {
        EventKind.EC_FAULT,
        EventKind.DETECTION,
        EventKind.ORACLE_VIOLATION,
        EventKind.ORACLE_MISMATCH,
        EventKind.OCU_CLEAR,
        EventKind.KERNEL_BEGIN,
        EventKind.KERNEL_END,
    }
)


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured record on the event bus."""

    #: Monotonic sequence number (1-based, counts every accepted emit).
    seq: int
    #: Logical (deterministic) or wall-clock microsecond timestamp.
    ts: int
    kind: EventKind
    payload: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering (enums stringified)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind.value,
            **{k: _jsonable(v) for k, v in sorted(self.payload.items())},
        }


def _jsonable(value: object) -> object:
    if isinstance(value, enum.Enum):
        return str(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


@dataclass(eq=False)
class _Segment:
    """The rows of one :meth:`FlightRecorder.emit_segment` call still
    in the ring.

    Row *i* of *rows* (for *i* in *kept*) is the event ``seq=seq + i``,
    ``ts=ts + i * step``, with payload *payload* plus the row's values
    under *columns*.  Ring overflow slices *kept* from the front.
    """

    kind: EventKind
    rows: np.ndarray
    columns: Tuple[str, ...]
    payload: Dict[str, object]
    seq: int
    ts: int
    step: int
    kept: range

    def events(self) -> List[TelemetryEvent]:
        """The kept rows as events (payload values are Python ints)."""
        kept = self.kept
        values = self.rows[kept.start : kept.stop : kept.step].tolist()
        kind, columns, common = self.kind, self.columns, self.payload
        seq, ts, step = self.seq, self.ts, self.step
        out = []
        for i, row in zip(kept, values):
            payload = dict(common)
            payload.update(zip(columns, row))
            out.append(TelemetryEvent(seq + i, ts + i * step, kind, payload))
        return out


class FlightRecorder:
    """Ring-buffered event sink with sampling controls.

    The ring holds at most *capacity* events, oldest first, as single
    :class:`TelemetryEvent` objects (from :meth:`emit`) and lazy row
    segments (from :meth:`emit_segment`); ``len()`` counts events.
    """

    __slots__ = (
        "enabled",
        "capacity",
        "sample_every",
        "_ring",
        "_size",
        "_attempts",
        "emitted",
        "dropped",
        "sampled_out",
    )

    def __init__(
        self,
        capacity: int = 8192,
        *,
        sample_every: int = 1,
        enabled: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.enabled = enabled
        self.capacity = capacity
        self.sample_every = sample_every
        self._ring: Deque[Union[TelemetryEvent, _Segment]] = deque()
        #: Events in the ring (segment rows counted one each).
        self._size = 0
        #: Emission attempts while enabled (sampling denominator).
        self._attempts = 0
        #: Events accepted into the ring (including later overwritten).
        self.emitted = 0
        #: Events overwritten by ring overflow.
        self.dropped = 0
        #: Events thinned away by sampling.
        self.sampled_out = 0

    # ------------------------------------------------------------------

    def emit(
        self, kind: EventKind, ts: int = 0, /, **payload: object
    ) -> Optional[TelemetryEvent]:
        """Publish one event; returns it, or None when suppressed."""
        if not self.enabled:
            return None
        self._attempts += 1
        if (
            self.sample_every > 1
            and kind not in IMPORTANT_KINDS
            and self._attempts % self.sample_every
        ):
            self.sampled_out += 1
            return None
        event = TelemetryEvent(
            seq=self._attempts, ts=ts, kind=kind, payload=payload
        )
        self._ring.append(event)
        self.emitted += 1
        if self._size == self.capacity:
            self.dropped += 1
            self._evict(1)
        else:
            self._size += 1
        return event

    def emit_segment(
        self,
        kind: EventKind,
        rows: np.ndarray,
        columns: Tuple[str, ...],
        ts: int,
        step: int,
        /,
        **payload: object,
    ) -> None:
        """Publish one *kind* event per row of *rows*, in O(1).

        *rows* is an ``(n, len(columns))`` integer array; row *i* is
        the event with payload *payload* plus ``zip(columns, row)``
        and timestamp ``ts + i * step``.  Sequence numbers, sampling,
        the counters and ring overflow come out exactly as *n*
        :meth:`emit` calls would leave them.  The recorder keeps a
        reference to *rows* (do not mutate it afterwards) and builds
        the events only when they are read.
        """
        if not self.enabled:
            return
        count = len(rows)
        seq = self._attempts + 1
        self._attempts += count
        every = self.sample_every
        if every > 1 and kind not in IMPORTANT_KINDS:
            kept = range(-seq % every, count, every)
        else:
            kept = range(count)
        taken = len(kept)
        self.sampled_out += count - taken
        if not taken:
            return
        self.emitted += taken
        excess = self._size + taken - self.capacity
        if taken > self.capacity:
            kept = kept[-self.capacity :]
        self._ring.append(
            _Segment(kind, rows, columns, payload, seq, ts, step, kept)
        )
        self._size += len(kept)
        if excess > 0:
            self.dropped += excess
            self._evict(self._size - self.capacity)
            self._size = self.capacity

    def _evict(self, count: int) -> None:
        """Drop the *count* oldest events: whole entries, then a slice
        off the front of the oldest remaining segment."""
        ring = self._ring
        while count:
            head = ring[0]
            if type(head) is _Segment:
                size = len(head.kept)
                if size > count:
                    head.kept = head.kept[count:]
                    return
                count -= size
            else:
                count -= 1
            ring.popleft()

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def events(self, kind: Optional[EventKind] = None) -> List[TelemetryEvent]:
        """Chronological view of the buffered events."""
        out: List[TelemetryEvent] = []
        for entry in self._ring:
            if kind is not None and entry.kind is not kind:
                continue
            if type(entry) is _Segment:
                out.extend(entry.events())
            else:
                out.append(entry)
        return out

    def drain(self) -> List[TelemetryEvent]:
        """Return and clear the buffered events (counters survive)."""
        events = self.events()
        self._ring.clear()
        self._size = 0
        return events

    def clear(self) -> None:
        """Drop buffered events and zero all counters."""
        self._ring.clear()
        self._size = 0
        self._attempts = 0
        self.emitted = 0
        self.dropped = 0
        self.sampled_out = 0

    def counts_by_kind(self) -> Dict[str, int]:
        """Histogram of currently-buffered events by kind (segment rows
        are counted, not built)."""
        out: Dict[str, int] = {}
        for entry in self._ring:
            size = len(entry.kept) if type(entry) is _Segment else 1
            name = entry.kind.value
            out[name] = out.get(name, 0) + size
        return dict(sorted(out.items()))


__all__ = [
    "EventKind",
    "TelemetryEvent",
    "FlightRecorder",
    "IMPORTANT_KINDS",
]
