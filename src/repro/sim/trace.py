"""Trace format for the timing simulator.

A kernel trace is a set of per-warp instruction streams, the unit
MacSim consumes from NVBit in the paper's methodology.  Each record
carries exactly what the timing model needs: its execution-resource
class, whether it depends on the previous instruction's result (the
latency-hiding lever), whether it is LMI-checked pointer arithmetic
(the A hint bit), and — for memory operations — the cache-line
addresses of its coalesced transactions plus the buffer it targets
(for GPUShield's RCache).

A :class:`KernelTrace` holds its records as columns
(:class:`~repro.sim.columnar.ColumnarTrace`); a
:class:`TraceInstruction` per record is built only for the readers
that walk the per-warp lists.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..common.errors import MemorySpace, TraceFormatError

if TYPE_CHECKING:
    from .columnar import ColumnarTrace

#: Attribute name the per-trace derived-data memo hides behind.  The
#: leading ``_repro`` namespace keeps it clear of any other attribute a
#: caller sets on a trace (an ``_expansion_memo`` dict, say, is simply
#: ignored).
_TRACE_MEMO_ATTR = "_repro_trace_memo"

#: Default cap on derived-data entries memoised per trace.  A fig12-
#: style sweep needs one issue plan per timing-model family and one
#: expansion per rewriting model — well under the cap — while
#: pathological callers (e.g. a parameter sweep over
#: ``BaggyBoundsTiming(instructions_per_check=n)``) can no longer grow
#: an unbounded dict on a cached trace.
TRACE_MEMO_CAPACITY = 16


class TraceMemo:
    """Bounded LRU memo for per-trace derived data.

    Keys are tuples whose first elements name the *purpose* and the
    *producer* (e.g. ``("expand", "repro.sim.timing.BaggyBoundsTiming",
    key...)``), so two mechanisms that happen to emit equal content
    keys can never read each other's entries through a shared cached
    trace.  The entry count is capped (LRU eviction), bounding what a
    long-lived :mod:`~repro.workloads.trace_cache` entry can accrete.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int = TRACE_MEMO_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("trace memo capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable):
        """Entry for *key* (refreshing recency), or ``None``."""
        entries = self._entries
        value = entries.get(key)
        if value is not None:
            entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Store *value* under *key*, evicting the LRU entry if full."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.capacity:
            entries.popitem(last=False)
        return value


def trace_memo(trace: "KernelTrace") -> TraceMemo:
    """The (lazily created) derived-data memo of *trace*."""
    memo = getattr(trace, _TRACE_MEMO_ATTR, None)
    if memo is None:
        memo = TraceMemo()
        object.__setattr__(trace, _TRACE_MEMO_ATTR, memo)
    return memo


class OpClass(enum.Enum):
    """Execution-resource class of a trace record."""

    INT = "int"
    FP = "fp"
    LDG = "ldg"
    STG = "stg"
    LDS = "lds"
    STS = "sts"
    LDL = "ldl"
    STL = "stl"

    @property
    def is_memory(self) -> bool:
        """True for loads/stores."""
        return self not in (OpClass.INT, OpClass.FP)

    @property
    def space(self) -> Optional[MemorySpace]:
        """Memory space targeted, or None for ALU ops."""
        return {
            OpClass.LDG: MemorySpace.GLOBAL,
            OpClass.STG: MemorySpace.GLOBAL,
            OpClass.LDS: MemorySpace.SHARED,
            OpClass.STS: MemorySpace.SHARED,
            OpClass.LDL: MemorySpace.LOCAL,
            OpClass.STL: MemorySpace.LOCAL,
        }.get(self)


@dataclass(frozen=True)
class TraceInstruction:
    """One dynamic instruction in a warp's stream."""

    op: OpClass
    #: True when this instruction consumes the previous one's result.
    depends: bool = False
    #: LMI hint bit A: checked pointer arithmetic (INT ops only).
    checked: bool = False
    #: Cache-line addresses of the coalesced transactions (memory ops).
    lines: Tuple[int, ...] = field(default=())
    #: Buffer(s) accessed, one per lane group after coalescing — the
    #: keys GPUShield's RCache is probed with.  A fully-coalesced
    #: access touches one buffer; a scattered access can touch many.
    buffer_ids: Tuple[int, ...] = field(default=(0,))

    def __post_init__(self) -> None:
        if self.checked and self.op is not OpClass.INT:
            raise TraceFormatError("only INT ops can carry the A hint")
        if self.lines and not self.op.is_memory:
            raise TraceFormatError("ALU ops cannot carry memory transactions")
        if self.op.is_memory and not self.lines:
            raise TraceFormatError("memory ops need at least one transaction")
        if self.op.is_memory and not self.buffer_ids:
            raise TraceFormatError("memory ops need at least one buffer id")


#: Columnar op-class codes: index in this tuple == stored ``uint8`` code
#: (:class:`~repro.sim.columnar.ColumnarTrace`, the ``.npz`` files).
OP_ORDER: Tuple[OpClass, ...] = (
    OpClass.INT,
    OpClass.FP,
    OpClass.LDG,
    OpClass.STG,
    OpClass.LDS,
    OpClass.STS,
    OpClass.LDL,
    OpClass.STL,
)


class KernelTrace:
    """Per-warp instruction streams for one kernel.

    A trace is column-backed: :attr:`columnar` holds its
    :class:`~repro.sim.columnar.ColumnarTrace`, the form synthesis, the
    ``.npz`` loader, the summaries below and the simulator's plan
    decode read.  :attr:`warps`, the per-warp :class:`TraceInstruction`
    lists that the oracle (:mod:`repro.sim.reference`),
    :class:`~repro.sim.gpu.GpuSimulator` and the JSON tracefile walk,
    is built from the columns once, on first access.  A trace built by
    hand from ``warps`` converts the other way, through
    :meth:`~repro.sim.columnar.ColumnarTrace.from_trace`, on first use
    of :attr:`columnar`.

    Traces are immutable once built, so the columns, the instruction
    lists and the summary statistics are each computed once and cached
    on the instance.  Cached summaries are copied on the way out, so
    callers may mutate the returned dicts freely.
    """

    def __init__(
        self,
        name: str,
        warps: Optional[List[List[TraceInstruction]]] = None,
        *,
        columnar: Optional["ColumnarTrace"] = None,
    ) -> None:
        if warps is not None and columnar is not None:
            raise ValueError("a trace takes warps or columns, not both")
        self.name = name
        self._warps = [] if warps is None and columnar is None else warps
        self._columnar = columnar
        self._summary_cache: Dict[str, Any] = {}

    @property
    def columnar(self) -> "ColumnarTrace":
        """The trace's columns (converted from :attr:`warps` once)."""
        if self._columnar is None:
            from .columnar import ColumnarTrace

            self._columnar = ColumnarTrace.from_trace(self)
        return self._columnar

    @property
    def warps(self) -> List[List[TraceInstruction]]:
        """Per-warp instruction lists (built from the columns once)."""
        if self._warps is None:
            self._warps = self._columnar.streams()
        return self._warps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelTrace):
            return NotImplemented
        return self.name == other.name and self.columnar == other.columnar

    def __repr__(self) -> str:
        return (
            f"KernelTrace(name={self.name!r}, "
            f"warps={self.columnar.warp_count}, "
            f"instructions={self.total_instructions})"
        )

    def _summaries(self) -> Dict[str, Any]:
        return self._summary_cache

    @property
    def total_instructions(self) -> int:
        """Dynamic instruction count across all warps."""
        return self.columnar.total_instructions

    def op_histogram(self) -> Dict[OpClass, int]:
        """Dynamic count per op class (the Figure 1 raw data)."""
        cache = self._summaries()
        counts = cache.get("histogram")
        if counts is None:
            per_code = np.bincount(
                self.columnar.ops, minlength=len(OP_ORDER)
            ).tolist()
            counts = cache["histogram"] = dict(zip(OP_ORDER, per_code))
        return dict(counts)

    def memory_region_mix(self) -> Dict[str, float]:
        """Fraction of memory instructions per region (Figure 1)."""
        cache = self._summaries()
        mix = cache.get("region_mix")
        if mix is None:
            histogram = self.op_histogram()
            global_ops = histogram[OpClass.LDG] + histogram[OpClass.STG]
            shared_ops = histogram[OpClass.LDS] + histogram[OpClass.STS]
            local_ops = histogram[OpClass.LDL] + histogram[OpClass.STL]
            total = global_ops + shared_ops + local_ops
            if total == 0:
                mix = {"global": 0.0, "shared": 0.0, "local": 0.0}
            else:
                mix = {
                    "global": global_ops / total,
                    "shared": shared_ops / total,
                    "local": local_ops / total,
                }
            cache["region_mix"] = mix
        return dict(mix)

    def checked_count(self) -> int:
        """Instructions carrying the A hint bit."""
        cache = self._summaries()
        checked = cache.get("checked")
        if checked is None:
            checked = cache["checked"] = int(
                np.count_nonzero(self.columnar.checked)
            )
        return checked

    def memory_count(self) -> int:
        """Total memory instructions."""
        cache = self._summaries()
        memory = cache.get("memory")
        if memory is None:
            histogram = self.op_histogram()
            memory = cache["memory"] = sum(
                count for op, count in histogram.items() if op.is_memory
            )
        return memory
