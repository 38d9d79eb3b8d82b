"""Trace-driven GPU timing simulator (MacSim substitute)."""

from .cache import ArrayLruCache, CacheStats, SetAssociativeCache
from .columnar import (
    ColumnarTrace,
    IssuePlan,
    expand_columnar,
    plan_for,
)
from .core import SimResult, SimStats, SmSimulator, simulate
from .codegen import CODEGEN_STATS, CellSpec, load_cell
from .dram import DramModel, DramStats
from .native import (
    NATIVE_DIAG,
    fallback_counts,
    native_available,
    run_native,
    run_native_batch,
)
from .reference import ReferenceSmSimulator, reference_simulate
from .tracefile import dump_trace_npz, load_trace_npz
from .timing import (
    BAGGY_CHECK_INSTRUCTIONS,
    BaggyBoundsTiming,
    BaselineTiming,
    GPUShieldTiming,
    LmiTiming,
    TimingModel,
    expand_stream,
)
from .trace import KernelTrace, OpClass, TraceInstruction

__all__ = [
    "ArrayLruCache",
    "CacheStats",
    "SetAssociativeCache",
    "ColumnarTrace",
    "IssuePlan",
    "expand_columnar",
    "plan_for",
    "SimResult",
    "SimStats",
    "SmSimulator",
    "simulate",
    "ReferenceSmSimulator",
    "reference_simulate",
    "CODEGEN_STATS",
    "CellSpec",
    "load_cell",
    "DramModel",
    "DramStats",
    "NATIVE_DIAG",
    "fallback_counts",
    "native_available",
    "run_native",
    "run_native_batch",
    "dump_trace_npz",
    "load_trace_npz",
    "BAGGY_CHECK_INSTRUCTIONS",
    "BaggyBoundsTiming",
    "BaselineTiming",
    "GPUShieldTiming",
    "LmiTiming",
    "TimingModel",
    "expand_stream",
    "KernelTrace",
    "OpClass",
    "TraceInstruction",
]
