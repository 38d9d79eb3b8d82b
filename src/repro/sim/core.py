"""SM timing simulator: GTO warp scheduling over a kernel trace.

Models one warp scheduler partition of an SM (Table IV: 4 GTO
schedulers per SM; simulating one partition with its share of warps
gives per-benchmark *relative* timing, which is what the normalized
Figure 12/13 results need).

The scheduler is greedy-then-oldest: it keeps issuing from the current
warp until that warp stalls on a dependency, then switches to the
oldest ready warp.  Memory instructions walk the L1 → L2 → HBM
hierarchy per coalesced transaction; extra transactions serialize at
the LSU.  The active :class:`~repro.sim.timing.TimingModel` injects
instructions (software schemes) and extra latencies (OCU, RCache).

One fast path, one oracle
-------------------------
:class:`SmSimulator` runs every trace through one fast path: the trace
is pre-decoded into an :class:`~repro.sim.columnar.IssuePlan` (issue
runs plus pre-resolved cache/DRAM geometry), which the generated C
kernel of :mod:`repro.sim.native` executes — or, when no C toolchain
is available, the pure-Python :func:`~repro.sim.columnar.run_columnar`
loop.  Both operate on the same :class:`~repro.sim.cache.ArrayLruCache`
and DRAM state.  The ground truth they are locked against
(``tests/test_sim_columnar_equivalence.py``) is the linear-scan
scheduler in :mod:`repro.sim.reference`.

A timing model whose :meth:`~repro.sim.timing.TimingModel.
columnar_plan_key` is ``None`` (it overrides a decode-relevant hook)
has no lowering to an issue plan; constructing an :class:`SmSimulator`
for it raises :class:`~repro.common.errors.SimulationError`.  Such
models run on the oracle,
:func:`repro.sim.reference.reference_simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.config import DEFAULT_GPU_CONFIG, GpuConfig
from ..common.errors import SimulationError
from ..telemetry import EventKind
from ..telemetry.registry import MetricsRegistry
from ..telemetry.runtime import TELEMETRY, resolve_sample_every, sample_phase
from .cache import ArrayLruCache
from .columnar import plan_for, run_columnar
from .dram import DramModel
from .native import run_native
from .timing import (
    ALU_LATENCY_CYCLES,
    BaselineTiming,
    SHARED_LATENCY_CYCLES,
    TRANSACTION_CYCLES,
    TimingModel,
)
from .trace import KernelTrace, OpClass

#: Base result latencies per op class (cycles), imported by
#: :mod:`repro.sim.reference` under these historical names and sourced
#: from the shared :mod:`repro.sim.timing` constants so the oracle and
#: the fast path cannot drift apart.
_ALU_LATENCY = {
    OpClass.INT: ALU_LATENCY_CYCLES,
    OpClass.FP: ALU_LATENCY_CYCLES,
}
_SHARED_LATENCY = SHARED_LATENCY_CYCLES
#: Extra LSU serialization cycles per additional coalesced transaction.
_TRANSACTION_CYCLES = TRANSACTION_CYCLES


@dataclass
class SimStats:
    """Counters accumulated over one simulation.

    Kept as plain ``int`` fields (not live registry views) because they
    sit in the simulator's hot loop; :meth:`publish` copies the totals
    into a :class:`~repro.telemetry.registry.MetricsRegistry` at the
    end of a run when telemetry is enabled.
    """

    instructions: int = 0
    issue_stall_cycles: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    #: Cycles spent serializing extra coalesced transactions at the LSU.
    lsu_serialization_cycles: int = 0
    #: Coalesced transactions beyond the first, per memory instruction.
    extra_transactions: int = 0

    def publish(self, registry: MetricsRegistry, **labels: object) -> None:
        """Add this run's totals to *registry* under ``sim.*`` counters."""
        registry.counter("sim.instructions", **labels).inc(self.instructions)
        registry.counter("sim.issue_stall_cycles", **labels).inc(
            self.issue_stall_cycles
        )
        registry.counter("sim.l1_hits", **labels).inc(self.l1_hits)
        registry.counter("sim.l1_misses", **labels).inc(self.l1_misses)
        registry.counter("sim.l2_hits", **labels).inc(self.l2_hits)
        registry.counter("sim.l2_misses", **labels).inc(self.l2_misses)
        registry.counter("sim.lsu_serialization_cycles", **labels).inc(
            self.lsu_serialization_cycles
        )
        registry.counter("sim.extra_transactions", **labels).inc(
            self.extra_transactions
        )


@dataclass
class SimResult:
    """Outcome of one kernel-trace simulation."""

    name: str
    cycles: int
    stats: SimStats

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.stats.instructions / self.cycles


class SmSimulator:
    """One warp-scheduler partition with its cache hierarchy.

    An instance is safely reusable: per-run counters live in a fresh
    :class:`SimStats` per run (never stored on the simulator), while
    cache/DRAM state intentionally persists across runs on the same
    instance (warm-cache semantics).

    Every run takes the fast path described in the module docstring.
    With telemetry enabled it batch-publishes the run's ``sim.*`` and
    ``cache.*`` counters at end of run and records sampled run-issue
    events (``REPRO_TELEMETRY_SAMPLE``).
    """

    def __init__(
        self,
        config: GpuConfig = DEFAULT_GPU_CONFIG,
        model: Optional[TimingModel] = None,
    ) -> None:
        self.config = config
        self.model = model if model is not None else BaselineTiming()
        if self.model.columnar_plan_key() is None:
            raise SimulationError(
                f"timing model {type(self.model).__qualname__} has no "
                "issue-plan lowering (columnar_plan_key() is None); "
                "simulate it with repro.sim.reference.reference_simulate"
            )
        self.l1 = ArrayLruCache(config.l1, "l1")
        self.l2 = ArrayLruCache(config.l2, "l2")
        self.dram = DramModel(config)
        self.model.bind(self)

    def _fast_plan(self, trace: KernelTrace):
        """The memoized issue plan of *trace* under this simulator.

        Used by :meth:`run` and the experiment engine's batched
        dispatch; raises :class:`SimulationError` for a trace without
        warps.
        """
        plan = plan_for(trace, self.model, self.config)
        if not plan.runs:
            raise SimulationError("trace has no warps")
        return plan

    def _fast_telemetry(self, trace: KernelTrace):
        """Fast-path telemetry decisions for one run.

        Counters are batch-published at end of run (never per record),
        and the issue loops record one (cycle, warp, run_length)
        triple per *sampled* issue run — the comb is seed-derived from
        the trace name so the recorded ring is identical across
        processes, batch sizes and --jobs values.
        """
        telem = TELEMETRY
        if telem.enabled:
            every = resolve_sample_every()
            return telem, [], every, sample_phase(trace.name, every)
        return telem, None, 1, 0

    def run(self, trace: KernelTrace) -> SimResult:
        """Simulate *trace* to completion; returns cycles and stats."""
        plan = self._fast_plan(trace)
        stats = SimStats()
        telem, events, every, phase = self._fast_telemetry(trace)
        # The generated C kernel replays the plan against this
        # simulator's cache/DRAM state; it returns None (no toolchain,
        # compile failure, kernel error) to hand the plan to the
        # pure-Python issue loop.
        cycles = run_native(
            self, plan, stats,
            events=events, sample_every=every, sample_phase=phase,
        )
        if cycles is None:
            cycles = run_columnar(
                self, trace, plan, stats,
                events=events, sample_every=every, sample_phase=phase,
            )
        if events is not None:
            self._publish_fast_path(trace.name, stats, events, telem)
        return SimResult(name=trace.name, cycles=cycles, stats=stats)

    def _publish_fast_path(
        self, trace_name: str, stats: SimStats, events, telem
    ) -> None:
        """End-of-run telemetry flush of one fast-path run.

        Emits the sampled run-issue events collected by the issue loop
        (one :data:`~repro.telemetry.events.EventKind.WARP_ISSUE` per
        kept run, carrying the simulated issue cycle, warp index and
        run length), then folds the run's counter totals into the
        registry.  The snapshot equals what publishing the oracle's
        :class:`SimStats` and L1/L2 ``CacheStats`` under the same
        labels produces (locked by the columnar equivalence suite).
        """
        emit = telem.emit
        warp_issue = EventKind.WARP_ISSUE
        for cycle, warp, length in events:
            emit(
                warp_issue,
                trace=trace_name,
                warp=warp,
                clock=cycle,
                instructions=length,
            )
        stats.publish(telem.registry, trace=trace_name)
        self.l1.stats.publish(telem.registry, unit="l1", trace=trace_name)
        self.l2.stats.publish(telem.registry, unit="l2", trace=trace_name)


def simulate(
    trace: KernelTrace,
    model: Optional[TimingModel] = None,
    config: GpuConfig = DEFAULT_GPU_CONFIG,
) -> SimResult:
    """Convenience wrapper: fresh simulator per run."""
    return SmSimulator(config, model).run(trace)
