"""Reference warp scheduler: the original linear-scan GTO issue loop.

This is the scheduler :class:`~repro.sim.core.SmSimulator` shipped
with before the event-heap rewrite, kept verbatim (minus telemetry)
as the ground truth for the scheduler-equivalence suite
(``tests/test_scheduler_equivalence.py``).  It re-scans every warp on
every issue slot — O(W) per instruction — which is exactly the cost
the production scheduler removes; the two must agree cycle-for-cycle
and stat-for-stat on any trace.

Do not "optimise" this module: its value is being the slow, obviously
correct implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..common.config import DEFAULT_GPU_CONFIG, GpuConfig
from ..common.errors import SimulationError
from .cache import SetAssociativeCache
from .core import _ALU_LATENCY, _SHARED_LATENCY, _TRANSACTION_CYCLES
from .core import SimResult, SimStats
from .dram import DramModel
from .timing import (
    BaselineTiming,
    GPUShieldTiming,
    TimingModel,
    expand_stream,
)
from .trace import KernelTrace, TraceInstruction
from .trace import OpClass


@dataclass
class _WarpState:
    stream: List[TraceInstruction]
    position: int = 0
    last_issue: int = -1
    last_complete: int = 0

    @property
    def done(self) -> bool:
        return self.position >= len(self.stream)

    def earliest_issue(self, now: int) -> int:
        instr = self.stream[self.position]
        if instr.depends:
            return max(self.last_complete, self.last_issue + 1)
        return self.last_issue + 1


class ReferenceSmSimulator:
    """The pre-rewrite scan-based scheduler, preserved for equivalence."""

    def __init__(
        self,
        config: GpuConfig = DEFAULT_GPU_CONFIG,
        model: Optional[TimingModel] = None,
    ) -> None:
        self.config = config
        self.model = model if model is not None else BaselineTiming()
        self.l1 = SetAssociativeCache(config.l1, "l1")
        self.l2 = SetAssociativeCache(config.l2, "l2")
        if isinstance(self.model, GPUShieldTiming):
            # The oracle keeps its own scalar RCache, independent of
            # the fast path's array-backed one.
            self.model.rcache = SetAssociativeCache(
                self.model.rcache.config, "rcache"
            )
        self.dram = DramModel(config)
        self.model.bind(self)

    # ------------------------------------------------------------------

    def _memory_latency(self, instr: TraceInstruction, now: int) -> int:
        extra = len(instr.lines) - 1
        if extra > 0:
            self._stats.extra_transactions += extra
            self._stats.lsu_serialization_cycles += _TRANSACTION_CYCLES * extra
        if instr.op in (OpClass.LDS, OpClass.STS):
            return _SHARED_LATENCY + _TRANSACTION_CYCLES * extra
        slowest = 0
        for index, line in enumerate(instr.lines):
            if self.l1.access(line):
                latency = self.config.l1.hit_latency
                self._stats.l1_hits += 1
            elif self.l2.access(line):
                latency = self.config.l2.hit_latency
                self._stats.l1_misses += 1
                self._stats.l2_hits += 1
            else:
                self._stats.l1_misses += 1
                self._stats.l2_misses += 1
                latency = self.dram.request(line, now) - now
            slowest = max(slowest, latency + _TRANSACTION_CYCLES * index)
        return slowest

    def _latency(self, instr: TraceInstruction, now: int) -> int:
        if instr.op.is_memory:
            base = self._memory_latency(instr, now)
        else:
            base = _ALU_LATENCY[instr.op]
        return base + self.model.extra_latency(instr, now)

    # ------------------------------------------------------------------

    def run(self, trace: KernelTrace) -> SimResult:
        """Simulate *trace* with the original linear-scan loop."""
        self._stats = SimStats()
        warps = [
            _WarpState(stream=expand_stream(self.model, stream))
            for stream in trace.warps
        ]
        if not warps:
            raise SimulationError("trace has no warps")

        clock = 0
        current = 0
        live = [w for w in warps if not w.done]
        while live:
            # Greedy-then-oldest warp selection.
            chosen = None
            if (
                not warps[current].done
                and warps[current].earliest_issue(clock) <= clock
            ):
                chosen = current
            else:
                for index, warp in enumerate(warps):
                    if not warp.done and warp.earliest_issue(clock) <= clock:
                        chosen = index
                        break
            if chosen is None:
                next_time = min(
                    w.earliest_issue(clock) for w in warps if not w.done
                )
                self._stats.issue_stall_cycles += next_time - clock
                clock = next_time
                continue

            current = chosen
            warp = warps[chosen]
            instr = warp.stream[warp.position]
            warp.position += 1
            latency = self._latency(instr, clock)
            warp.last_issue = clock
            warp.last_complete = clock + latency
            self._stats.instructions += 1
            clock += 1
            if warp.done:
                live = [w for w in warps if not w.done]

        finish = max(w.last_complete for w in warps)
        return SimResult(name=trace.name, cycles=finish, stats=self._stats)


def reference_simulate(
    trace: KernelTrace,
    model: Optional[TimingModel] = None,
    config: GpuConfig = DEFAULT_GPU_CONFIG,
) -> SimResult:
    """Fresh reference simulator per run (mirror of ``simulate``)."""
    return ReferenceSmSimulator(config, model).run(trace)
