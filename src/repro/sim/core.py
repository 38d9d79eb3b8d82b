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
is pre-decoded into an :class:`~repro.sim.columnar.IssuePlan` (flat
``int64`` columns of issue runs plus pre-resolved cache/DRAM
geometry), which :func:`run_plans` hands to the C kernel of
:mod:`repro.sim.native` — or, for any plan the kernel refuses (no C
toolchain, say), to the pure-Python
:func:`~repro.sim.columnar.run_columnar` loop over the same columns.
Both operate on the same :class:`~repro.sim.cache.ArrayLruCache` and
DRAM state.  The ground truth they are locked against
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
from typing import List, Optional, Sequence, Tuple

from ..common.config import DEFAULT_GPU_CONFIG, GpuConfig
from ..common.errors import SimulationError
from ..telemetry import EventKind
from ..telemetry.registry import MetricsRegistry
from ..telemetry.runtime import TELEMETRY
from .cache import ArrayLruCache
from .columnar import plan_for, run_columnar
from .dram import DramModel
from .native import run_native_batch
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
    ``cache.*`` counters at end of run and records one event per
    issued run.
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

    def _fast_plan(self, trace: KernelTrace):
        """Decode the issue plan of *trace* under this simulator.

        Used by :meth:`run` and the experiment engine's batched
        dispatch.  The plan is decoded on every call and held only by
        the caller, for its one :func:`run_plans` call; raises
        :class:`SimulationError` for a trace without warps.
        """
        plan = plan_for(trace, self.model, self.config)
        if not plan.warp_count:
            raise SimulationError("trace has no warps")
        return plan

    def run(self, trace: KernelTrace) -> SimResult:
        """Simulate *trace* to completion; returns cycles and stats."""
        return self._run_plan(trace, self._fast_plan(trace))

    def _run_plan(self, trace: KernelTrace, plan) -> SimResult:
        """:meth:`run` on *plan*, already decoded from *trace* by a
        simulator of the same model and config (the throughput
        benchmarks time runs without their decode this way)."""
        stats = SimStats()
        telem = TELEMETRY
        # The executor appends its issue-run rows here (telemetry on).
        events = [] if telem.enabled else None
        (cycles,) = run_plans([(self, plan, stats, events)])
        if events is not None:
            publish_fast_path(
                self._fast_path_blob(trace.name, stats, events), telem
            )
        return SimResult(name=trace.name, cycles=cycles, stats=stats)

    def _fast_path_blob(self, trace_name: str, stats: SimStats, events):
        """One fast-path run's telemetry as a ``(registry, trace name,
        rows)`` blob for :func:`publish_fast_path`.

        The registry holds the run's counter totals; its snapshot
        equals what publishing the oracle's :class:`SimStats` and L1/L2
        ``CacheStats`` under the same labels produces (locked by the
        columnar equivalence suite).  *events* is the run's events
        list, holding the one ``(n, 3)`` ``int64`` array of
        (cycle, warp, run_length) rows the executor appended; the blob
        carries that array as is, so it is cheap to hold, pickle and
        store in the cell cache.
        """
        (rows,) = events
        registry = MetricsRegistry()
        stats.publish(registry, trace=trace_name)
        self.l1.stats.publish(registry, unit="l1", trace=trace_name)
        self.l2.stats.publish(registry, unit="l2", trace=trace_name)
        return registry, trace_name, rows


def run_plans(requests: Sequence[Tuple]) -> List[int]:
    """Execute issue plans; one finish cycle per request.

    *requests* are :func:`~repro.sim.native.run_native_batch` tuples,
    ``(simulator, plan, stats, events)``.
    The whole batch goes to the C kernel at once, and every
    plan it refuses (no toolchain, compile failure, kernel error)
    runs on the pure-Python :func:`~repro.sim.columnar.run_columnar`
    loop instead — the one place the two executors meet.
    """
    results = run_native_batch(requests)
    for index, cycles in enumerate(results):
        if cycles is None:
            results[index] = run_columnar(*requests[index])
    return results


#: Payload names of a fast-path blob's row columns, in column order.
ISSUE_COLUMNS = ("clock", "warp", "instructions")


def publish_fast_path(blob, telem) -> None:
    """Publish one fast-path telemetry blob into hub *telem*.

    Publishes the blob's rows as one segment of
    :data:`~repro.telemetry.events.EventKind.WARP_ISSUE` events
    (simulated issue cycle, warp index, run length; see
    :meth:`~repro.telemetry.runtime.Telemetry.emit_segment`), then
    folds the run's counters into the registry.  A run publishes its
    blob right away; the experiment fabric replays blobs captured
    elsewhere (in process, on a pool worker, in the cell cache) in
    submission order, so the hub's clock, sequence numbers and
    sampling apply identically either way.
    """
    registry, trace_name, rows = blob
    telem.emit_segment(
        EventKind.WARP_ISSUE, rows, ISSUE_COLUMNS, trace=trace_name
    )
    telem.registry.merge(registry)


def simulate(
    trace: KernelTrace,
    model: Optional[TimingModel] = None,
    config: GpuConfig = DEFAULT_GPU_CONFIG,
) -> SimResult:
    """Convenience wrapper: fresh simulator per run."""
    return SmSimulator(config, model).run(trace)
