"""Process-wide telemetry hub.

One :class:`Telemetry` facade bundles the three collection surfaces —
:class:`~repro.telemetry.registry.MetricsRegistry` (counters/gauges/
histograms), :class:`~repro.telemetry.events.FlightRecorder` (ring-
buffered structured events) and :class:`~repro.telemetry.spans.Tracer`
(span timeline) — behind a single ``enabled`` flag.

The module-level :data:`TELEMETRY` instance starts **disabled**: every
instrumentation point in the executor, hardware units and simulator
first tests ``TELEMETRY.enabled`` (one attribute load) and touches
nothing else, which is what keeps the reproduction's hot paths at seed
speed when nobody asked for observability.

Typical use::

    from repro.telemetry import configure, get_telemetry
    configure(enabled=True)
    ... run experiments ...
    t = get_telemetry()
    write_metrics("out/metrics.json", t.registry, recorder=t.recorder)
    write_chrome_trace("out/trace.json", t.tracer, t.recorder)

Tests and benchmarks use :func:`capture`, which swaps in a fresh,
enabled hub for the ``with`` body and restores the previous state
afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator, Optional, Tuple

from .events import EventKind, FlightRecorder, TelemetryEvent
from .registry import Counter, MetricsRegistry
from .spans import LogicalClock, Tracer, WallClock


class Telemetry:
    """Facade over registry + flight recorder + tracer."""

    __slots__ = (
        "enabled",
        "deterministic",
        "registry",
        "recorder",
        "tracer",
        "clock",
        "_ring_capacity",
        "_sample_every",
    )

    def __init__(
        self,
        *,
        enabled: bool = False,
        ring_capacity: int = 8192,
        sample_every: int = 1,
        deterministic: bool = True,
    ) -> None:
        self.enabled = enabled
        self.deterministic = deterministic
        self._ring_capacity = ring_capacity
        self._sample_every = sample_every
        self.reset()

    # ------------------------------------------------------------------
    # Lifecycle

    def reset(self) -> None:
        """Fresh registry/recorder/tracer (settings preserved)."""
        self.clock = LogicalClock() if self.deterministic else WallClock()
        self.registry = MetricsRegistry()
        self.recorder = FlightRecorder(
            self._ring_capacity, sample_every=self._sample_every
        )
        self.tracer = Tracer(self.clock)

    def configure(
        self,
        *,
        enabled: Optional[bool] = None,
        ring_capacity: Optional[int] = None,
        sample_every: Optional[int] = None,
        deterministic: Optional[bool] = None,
        reset: bool = True,
    ) -> "Telemetry":
        """Update settings; by default also resets collected state."""
        if enabled is not None:
            self.enabled = enabled
        if ring_capacity is not None:
            self._ring_capacity = ring_capacity
        if sample_every is not None:
            self._sample_every = sample_every
        if deterministic is not None:
            self.deterministic = deterministic
        if reset:
            self.reset()
        return self

    # ------------------------------------------------------------------
    # Collection shortcuts (all no-ops while disabled)

    def emit(
        self, kind: EventKind, /, **payload: object
    ) -> Optional[TelemetryEvent]:
        """Publish one event onto the bus (None while disabled)."""
        if not self.enabled:
            return None
        return self.recorder.emit(kind, self.clock.now(), **payload)

    def emit_segment(
        self, kind: EventKind, rows, columns: Tuple[str, ...], /,
        **payload: object,
    ) -> None:
        """Publish one event per row of *rows* (an ``(n, k)`` integer
        array whose columns are named by *columns*): the batch twin of
        :meth:`emit`, handed to
        :meth:`~repro.telemetry.events.FlightRecorder.emit_segment`.

        As with *n* :meth:`emit` calls, the clock is read once per row
        while the hub is enabled, even when the recorder is not, and
        row *i* gets the *i*-th reading.  On a :class:`WallClock` one
        reading stands for all *n* rows.
        """
        if not self.enabled:
            return
        ts, step = self.clock.readings(len(rows))
        self.recorder.emit_segment(kind, rows, columns, ts, step, **payload)

    def counter(self, name: str, **labels: object) -> Counter:
        """Registry counter accessor (valid even while disabled)."""
        return self.registry.counter(name, **labels)

    def span(
        self, name: str, category: str = "", *, tid: int = 0, **args: object
    ) -> ContextManager:
        """Span context manager; a no-op context while disabled."""
        if not self.enabled:
            return nullcontext()
        return self.tracer.span(name, category, tid=tid, **args)

    # ------------------------------------------------------------------

    def summary(self, top: int = 12) -> str:
        """Human-oriented digest for ``--verbose-telemetry``."""
        snap = self.registry.snapshot()
        counters = sorted(
            snap["counters"].items(), key=lambda kv: (-kv[1], kv[0])
        )
        recorder = self.recorder
        lines = [
            f"telemetry: {len(self.registry)} metrics, "
            f"{len(recorder)} events buffered "
            f"({recorder.emitted} accepted, "
            f"{recorder.dropped} overwritten, "
            f"{recorder.sampled_out} sampled out), "
            f"{len(self.tracer.spans)} spans",
        ]
        for name, value in counters[:top]:
            lines.append(f"  {name} = {value}")
        by_kind = recorder.counts_by_kind()
        if by_kind:
            rendered = ", ".join(f"{k}:{v}" for k, v in by_kind.items())
            lines.append(f"  events by kind: {rendered}")
        return "\n".join(lines)


#: The process-global hub every instrumentation point consults.
TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-global telemetry hub."""
    return TELEMETRY


def telemetry_enabled() -> bool:
    """Fast global enabled check."""
    return TELEMETRY.enabled


def configure(**kwargs) -> Telemetry:
    """Configure (and reset) the global hub; returns it."""
    return TELEMETRY.configure(**kwargs)


def emit_event(
    kind: EventKind, /, **payload: object
) -> Optional[TelemetryEvent]:
    """Module-level emission shortcut bound to the global hub."""
    t = TELEMETRY
    if not t.enabled:
        return None
    return t.recorder.emit(kind, t.clock.now(), **payload)


@contextmanager
def capture(
    *,
    ring_capacity: int = 8192,
    sample_every: int = 1,
    deterministic: bool = True,
) -> Iterator[Telemetry]:
    """Swap in a fresh enabled hub for the body; restore afterwards.

    The *same* global object is reused (so module-level references
    stay valid) but its state is saved and restored, making nested
    captures and test isolation safe.
    """
    t = TELEMETRY
    saved = (
        t.enabled,
        t.deterministic,
        t.registry,
        t.recorder,
        t.tracer,
        t.clock,
        t._ring_capacity,
        t._sample_every,
    )
    try:
        t.configure(
            enabled=True,
            ring_capacity=ring_capacity,
            sample_every=sample_every,
            deterministic=deterministic,
        )
        yield t
    finally:
        (
            t.enabled,
            t.deterministic,
            t.registry,
            t.recorder,
            t.tracer,
            t.clock,
            t._ring_capacity,
            t._sample_every,
        ) = saved


__all__ = [
    "Telemetry",
    "TELEMETRY",
    "get_telemetry",
    "telemetry_enabled",
    "configure",
    "emit_event",
    "capture",
]
