"""Experiment engine: the one execution core behind every grid cell.

The artefact drivers (Figure 12, Table II) decompose into independent
jobs — one timing simulation per (benchmark, mechanism) pair.  Every
job takes the same pipeline: :func:`run_sim_jobs` hands the grid to
:func:`~repro.experiments.fabric.run_grid` (digest, cell-cache
lookup, execute, publish, ordered telemetry replay), which executes
its cells through :func:`execute_group` — in process in fixed chunks,
or one cell per dispatch on the work-stealing pool.  The
``repro.serve`` daemon's misses reach the same core through
:func:`run_jobs_batched`.  Every observable output stays
**byte-identical** across worker counts, shards and cache states:

* **Job order is the contract.**  Results merge in submission order,
  never completion order, so metrics/trace exports do not depend on
  process scheduling.
* **Batched native dispatch.**  :func:`execute_group` fetches a
  group's traces in one deduped trace-cache pass, builds the
  simulators and issue plans, and runs the whole group through *one*
  :func:`~repro.sim.core.run_plans` call — one FFI crossing, in
  which the kernel runs the cells one after another;
  ``run_plans`` hands any plan the kernel refused to the pure-Python
  issue loop.  Parallelism lives above this core: the fabric's forked
  ``--jobs`` workers and the serve daemon's executor threads.
* **Telemetry capture and replay.**  Only when its caller asks, the
  core returns each job's fast-path telemetry as a blob — the
  ``sim.*``/``cache.*`` counters in a private registry plus its
  issue runs as one ``(n, 3)`` ``int64`` array of (cycle,
  warp, run length) rows; it never touches the global hub.  The
  fabric replays each blob through
  :func:`~repro.sim.core.publish_fast_path` into the global hub in
  submission order — as soon as every earlier cell has resolved —
  inside a ``job:<benchmark>:<mechanism>`` span whose ``tid`` is the
  submission index, so the parent's sampling, ring capacity, sequence
  numbers and logical clock apply once — a cell executed in process,
  on a pool worker or read back from the cell cache exports the same
  bytes, and Perfetto renders one track per job.
* **Trace reuse.**  Jobs synthesize through the content-addressed
  :mod:`~repro.workloads.trace_cache`, so the four mechanisms of one
  benchmark share a single synthesis (and, with ``--trace-cache``, so
  do repeated CLI invocations).  Pool workers inherit the parent's
  resolved traces through ``fork`` instead of reloading them.
* **Phase attribution.**  Each job's wall time is split into
  ``trace_expand`` / ``compile`` / ``sim`` — a group's trace fetch
  evenly across its jobs, its ``run_plans`` call by instruction
  count, whichever executor ran it — shipped
  back on the :class:`JobResult` and folded into the live progress
  board's phase aggregates, which the CLI deltas into the run ledger.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from ..common.config import DEFAULT_GPU_CONFIG, GpuConfig
from ..sim import (
    BaggyBoundsTiming,
    BaselineTiming,
    GPUShieldTiming,
    KernelTrace,
    LmiTiming,
    SimStats,
    SmSimulator,
    TimingModel,
)
from ..sim.core import run_plans
from ..telemetry.progress import PROGRESS
from ..telemetry.runtime import TELEMETRY
from ..telemetry.tracectx import new_trace_id
from ..workloads.trace_cache import TRACE_CACHE

if TYPE_CHECKING:  # fabric imports this module at its top level
    from .fabric import CellCache

def model_factory(name: str) -> TimingModel:
    """Fresh timing model by mechanism name."""
    if name == "baseline":
        return BaselineTiming()
    if name == "lmi":
        return LmiTiming()
    if name == "gpushield":
        return GPUShieldTiming()
    if name == "baggy":
        return BaggyBoundsTiming()
    raise KeyError(f"unknown timing model {name!r}")


@dataclass(frozen=True)
class SimJob:
    """One shardable unit: a benchmark under a timing model."""

    benchmark: str
    mechanism: str
    warps: int
    instructions_per_warp: int
    seed_salt: int = 0

    @property
    def key(self) -> Tuple[str, str]:
        """Deterministic merge key."""
        return (self.benchmark, self.mechanism)


@dataclass
class JobResult:
    """Outcome of one :class:`SimJob`."""

    job: SimJob
    cycles: int
    stats: SimStats
    #: Wall-clock phase attribution (``trace_expand``/``compile``/
    #: ``sim`` → seconds), measured where the job actually ran and
    #: shipped back on the result pipe.
    phases: Dict[str, float] = field(default_factory=dict)
    #: The submitting run's trace id for this job (diagnostics only:
    #: it rides the result pipe into the in-memory trace store, never
    #: cell records or deterministic exports).  ``None`` for cache
    #: hits — no execution happened this run.
    trace_id: Optional[str] = None


def _effective_workers(n_jobs: int, n_items: int) -> int:
    """Worker processes actually worth spawning.

    More workers than CPUs (or items) cannot speed up a CPU-bound
    simulation — they only add fork overhead — so the request is
    capped, and a single effective worker runs in process (which is
    byte-identical anyway).
    """
    return min(n_jobs, n_items, os.cpu_count() or 1)


#: A job's trace-cache request: ``(benchmark, warps,
#: instructions_per_warp, seed_salt)``.
TraceRequest = Tuple[str, int, int, int]


def _trace_request(job: SimJob) -> TraceRequest:
    return (
        job.benchmark,
        job.warps,
        job.instructions_per_warp,
        job.seed_salt,
    )


def _job_span(job: SimJob, index: int):
    """Span wrapping one job's replayed telemetry.

    ``tid`` is the submission index, so the Perfetto export renders
    one track per job regardless of where the job ran.
    """
    return TELEMETRY.span(
        f"job:{job.benchmark}:{job.mechanism}",
        "job",
        tid=index,
        benchmark=job.benchmark,
        mechanism=job.mechanism,
    )


def execute_group(
    jobs: Sequence[SimJob],
    config: GpuConfig,
    telemetry_wanted: bool,
    traces: Optional[Mapping[TraceRequest, KernelTrace]] = None,
) -> List[Tuple[JobResult, object]]:
    """Execute one group of jobs; one ``(JobResult, blob)`` per job.

    Traces come from one deduped
    :meth:`~repro.workloads.trace_cache.TraceCache.get_or_synthesize_many`
    pass, or from *traces* when the caller already holds them.  Every
    job's simulator and issue plan is built, then the whole group runs
    in one :func:`~repro.sim.core.run_plans` call.

    *blob* is ``None`` unless *telemetry_wanted*: then it is the job's
    fast-path telemetry blob, for the caller to replay in submission
    order through :func:`~repro.sim.core.publish_fast_path`.  The
    global hub is never consulted or touched, so concurrent calls
    from threads that do not own it (the serve daemon's executors)
    are safe — the trace cache and the native-unit memo are
    lock-guarded.
    """
    requests = [_trace_request(job) for job in jobs]
    started = time.perf_counter()
    if traces is None:
        group_traces = TRACE_CACHE.get_or_synthesize_many(requests)
    else:
        group_traces = [traces[request] for request in requests]
    trace_seconds = (time.perf_counter() - started) / len(jobs)
    # One run_plans request per job: (simulator, plan, stats, events).
    batch = []
    job_phases: List[Dict[str, float]] = []
    for job, trace in zip(jobs, group_traces):
        started = time.perf_counter()
        simulator = SmSimulator(config, model_factory(job.mechanism))
        plan = simulator._fast_plan(trace)
        events = [] if telemetry_wanted else None
        batch.append((simulator, plan, SimStats(), events))
        job_phases.append(
            {
                "trace_expand": trace_seconds,
                "compile": time.perf_counter() - started,
            }
        )
    started = time.perf_counter()
    cycles_list = run_plans(batch)
    sim_seconds = time.perf_counter() - started
    weight = sum(request[1].total_instructions for request in batch) or 1
    outcomes: List[Tuple[JobResult, object]] = []
    for job, trace, request, phases, cycles in zip(
        jobs, group_traces, batch, job_phases, cycles_list
    ):
        simulator, plan, stats, events = request
        phases["sim"] = sim_seconds * plan.total_instructions / weight
        blob = None
        if events is not None:
            blob = simulator._fast_path_blob(trace.name, stats, events)
        result = JobResult(job=job, cycles=cycles, stats=stats, phases=phases)
        outcomes.append((result, blob))
    return outcomes


def run_jobs_batched(
    jobs: Iterable[SimJob],
    *,
    config: GpuConfig = DEFAULT_GPU_CONFIG,
) -> List[JobResult]:
    """Execute *jobs* as one :func:`execute_group` group, nothing else.

    The embeddable entry to the engine: same trace-cache dedup, same
    batched native dispatch, same results as :func:`run_sim_jobs`
    (locked by ``tests/test_serve.py``) — but it never consults the
    fabric (cell cache, shards), never registers jobs on the progress
    board, and never touches the telemetry hub.  The ``repro.serve``
    daemon's executor threads dispatch every micro-batch through here
    (its ``max_batch`` setting bounds the group), concurrently,
    while a CLI experiment could be using the global hub in the same
    process.
    """
    job_list = list(jobs)
    if not job_list:
        return []
    return [result for result, _ in execute_group(job_list, config, False)]


def run_sim_jobs(
    jobs: Iterable[SimJob],
    *,
    config: GpuConfig = DEFAULT_GPU_CONFIG,
    n_jobs: int = 1,
    cache: Optional[CellCache] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> List[JobResult]:
    """Execute *jobs* through the fabric; results in submission order.

    ``n_jobs > 1`` runs the cells on that many forked work-stealing
    workers (capped by :func:`_effective_workers`); otherwise they run
    in process in batched groups.  *cache* memoizes the cells and
    *shard* ``(i, N)`` owns every N-th of them (it needs *cache*);
    both default to off.  Telemetry (when the global hub is enabled)
    is replayed in job order, so exports are byte-identical across
    every setting.
    """
    job_list = list(jobs)
    board = PROGRESS
    # Registering returns None while the board is inactive; every
    # transition is a no-op on None, so untracked runs pay one
    # attribute test per job.
    job_ids = [
        board.job_queued(job.benchmark, job.mechanism) for job in job_list
    ]
    # One deterministic trace id per submitted job (diagnostics only,
    # and cheap: one id mint plus a few dict writes per job; the ids
    # land in the in-memory trace store, never the exports).
    trace_ids = [new_trace_id() for _ in job_list]
    # Imported lazily: fabric imports this module at its top level.
    from .fabric import run_grid

    return run_grid(
        job_list,
        job_ids,
        config=config,
        workers=_effective_workers(n_jobs, len(job_list)),
        telemetry_wanted=TELEMETRY.enabled,
        board=board,
        cache=cache,
        shard=shard,
        trace_ids=trace_ids,
    )


__all__ = [
    "SimJob",
    "JobResult",
    "execute_group",
    "model_factory",
    "run_jobs_batched",
    "run_sim_jobs",
]
