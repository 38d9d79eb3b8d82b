"""Span-based tracing of launches, experiments and simulator shards.

A :class:`Tracer` records *complete* spans (begin/end pairs) and
instants against a pluggable clock.  The default
:class:`LogicalClock` advances by a fixed step per reading, which
makes exported traces deterministic — the same seed produces a
byte-identical Perfetto file; :class:`WallClock` gives real
microsecond timings when a human wants to profile the reproduction
itself.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


class LogicalClock:
    """Deterministic monotonic clock: each reading advances one step."""

    __slots__ = ("_now", "step")

    def __init__(self, start: int = 0, step: int = 1) -> None:
        if step <= 0:
            raise ValueError("clock step must be positive")
        self._now = start
        self.step = step

    def now(self) -> int:
        """Next (strictly increasing) microsecond-like timestamp."""
        self._now += self.step
        return self._now

    def readings(self, count: int) -> Tuple[int, int]:
        """Take *count* readings at once: ``(first, stride)``, so
        reading *i* is ``first + i * stride`` — exactly the values
        *count* :meth:`now` calls would return."""
        first = self._now + self.step
        self._now += count * self.step
        return first, self.step


class WallClock:
    """Real microsecond clock (perf_counter based, zeroed at creation)."""

    __slots__ = ("_origin",)

    def __init__(self) -> None:
        self._origin = time.perf_counter_ns()

    def now(self) -> int:
        """Microseconds since the clock was created."""
        return (time.perf_counter_ns() - self._origin) // 1000

    def readings(self, count: int) -> Tuple[int, int]:
        """``(now, 0)``: one reading stands for all *count* (a batch of
        events published at once shares its timestamp)."""
        return self.now(), 0


@dataclass
class Span:
    """One closed interval of work (Chrome-trace "X" event)."""

    name: str
    category: str
    start: int
    end: Optional[int] = None
    tid: int = 0
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        """Span length in clock units (0 while still open)."""
        if self.end is None:
            return 0
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """One point-in-time marker (Chrome-trace "i" event)."""

    name: str
    ts: int
    category: str = ""
    tid: int = 0
    args: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """Collects spans and instants for the Perfetto exporter."""

    def __init__(self, clock: Optional[LogicalClock] = None) -> None:
        self.clock = clock if clock is not None else LogicalClock()
        self.enabled = True
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._open: List[Span] = []

    # ------------------------------------------------------------------

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        *,
        tid: int = 0,
        **args: object,
    ) -> Iterator[Optional[Span]]:
        """Record a complete span around the ``with`` body.

        Yields the open span so the body can attach result args; the
        span is closed (end timestamped) even if the body raises.
        """
        if not self.enabled:
            yield None
            return
        span = Span(
            name=name, category=category, start=self.clock.now(),
            tid=tid, args=dict(args),
        )
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = self.clock.now()
            self._open.pop()
            self.spans.append(span)

    def instant(
        self, name: str, category: str = "", *, tid: int = 0, **args: object
    ) -> Optional[Instant]:
        """Record one point-in-time marker."""
        if not self.enabled:
            return None
        instant = Instant(
            name=name, ts=self.clock.now(), category=category,
            tid=tid, args=dict(args),
        )
        self.instants.append(instant)
        return instant

    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Currently-open span nesting depth."""
        return len(self._open)

    def clear(self) -> None:
        """Drop all recorded (closed) spans and instants."""
        self.spans.clear()
        self.instants.clear()


__all__ = ["LogicalClock", "WallClock", "Span", "Instant", "Tracer"]
