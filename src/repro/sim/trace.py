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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..common.errors import MemorySpace, TraceFormatError

if TYPE_CHECKING:
    from .columnar import ColumnarTrace

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

    Traces are immutable once built, so the columns and the
    instruction lists are each built once and kept on the instance:
    they are the trace itself.  Nothing derived from them is kept.
    The summary statistics below are computed from the columns on
    every call (Figure 1 asks each freshly synthesized trace once), and
    each call returns a fresh dict the caller may mutate.  Issue plans
    live with the simulator run that decodes them
    (:func:`~repro.sim.columnar.plan_for`).
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

    @property
    def total_instructions(self) -> int:
        """Dynamic instruction count across all warps."""
        return self.columnar.total_instructions

    def op_histogram(self) -> Dict[OpClass, int]:
        """Dynamic count per op class (the Figure 1 raw data)."""
        per_code = np.bincount(
            self.columnar.ops, minlength=len(OP_ORDER)
        ).tolist()
        return dict(zip(OP_ORDER, per_code))

    def memory_region_mix(self) -> Dict[str, float]:
        """Fraction of memory instructions per region (Figure 1)."""
        histogram = self.op_histogram()
        global_ops = histogram[OpClass.LDG] + histogram[OpClass.STG]
        shared_ops = histogram[OpClass.LDS] + histogram[OpClass.STS]
        local_ops = histogram[OpClass.LDL] + histogram[OpClass.STL]
        total = global_ops + shared_ops + local_ops
        if total == 0:
            return {"global": 0.0, "shared": 0.0, "local": 0.0}
        return {
            "global": global_ops / total,
            "shared": shared_ops / total,
            "local": local_ops / total,
        }

    def checked_count(self) -> int:
        """Instructions carrying the A hint bit."""
        return int(np.count_nonzero(self.columnar.checked))

    def memory_count(self) -> int:
        """Total memory instructions."""
        return sum(
            count
            for op, count in self.op_histogram().items()
            if op.is_memory
        )
