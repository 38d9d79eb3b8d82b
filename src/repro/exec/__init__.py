"""Functional SIMT executor.

One engine steps threads: the interpreter in
:mod:`repro.exec.reference`, driven by :class:`GpuExecutor` and checked
against the :class:`~repro.memory.tracker.AllocationTracker` oracle on
every access.
"""

from .executor import GpuExecutor
from .result import LaunchResult, OracleEvent

__all__ = [
    "GpuExecutor",
    "LaunchResult",
    "OracleEvent",
]
