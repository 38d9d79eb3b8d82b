"""Parallel experiment engine: deterministic (benchmark × mechanism)
fan-out for the simulation-backed paper artefacts.

The artefact drivers (Figure 12/13, Table II) decompose into
independent jobs — one timing simulation (or analytic row) per
(benchmark, mechanism) pair.  This module owns the serial execution
paths and the job/result plumbing; parallel, cached and sharded runs
are delegated to :mod:`~repro.experiments.fabric` (a work-stealing
pool over a content-addressed cell cache).  Every observable output
stays **byte-identical** to the serial run:

* **Job order is the contract.**  Results are merged in submission
  order (the serial iteration order), never completion order, so
  metrics/trace exports do not depend on process scheduling.
* **``--jobs 1`` is the seed path.**  With one job slot everything
  runs in-process against the global telemetry hub, exactly as the
  drivers always did; parallelism is strictly opt-in.
* **Telemetry round-trip.**  When the hub is enabled, each worker
  captures its job's telemetry into a private hub (unbounded ring,
  no sampling), ships the registry plus the raw event stream back,
  and the parent replays events through the global recorder *in job
  order* — re-applying the parent's sampling, ring capacity, sequence
  numbers and logical clock — then merges the registries.  The global
  hub therefore ends in the same state as a serial run.  This now
  includes the *fast-path* telemetry of the columnar/native engines
  (batch-published counters plus seed-derived sampled run events), and
  each job's telemetry is wrapped in a ``job:<benchmark>:<mechanism>``
  span whose ``tid`` is the submission index, giving the Perfetto
  export one track per job.
* **Batched native dispatch.**  The serial path prepares jobs in
  groups (``--batch`` / ``REPRO_SIM_BATCH``, default 8) and ships
  every job of a group through *one*
  :func:`~repro.sim.native.run_native_batch` FFI crossing — grouped
  by codegen cell, fanned over threads when the kernel was compiled
  with OpenMP/pthread support.  Telemetry publication still happens
  per job, in submission order, inside each job's span, so exports
  are byte-identical at any batch width (``--batch 1`` restores the
  historical loop exactly).
* **Trace reuse.**  Jobs synthesize through the content-addressed
  :mod:`~repro.workloads.trace_cache`, so the four mechanisms of one
  benchmark share a single synthesis (and, with ``--trace-cache``, so
  do the worker processes and repeated CLI invocations).
* **Columnar shipping.**  When fanning out, the parent synthesizes
  each *unique* trace once and publishes it as a versioned columnar
  ``.npz`` in a shared directory (the ``--trace-cache`` dir when
  configured, else a pool-scoped temp dir); workers load the arrays —
  which pre-seed the columnar plan memo — instead of re-synthesizing
  or unpickling per-instruction dataclass lists.  The round-trip is
  lossless (locked by the trace tests), so results stay byte-identical
  across ``--jobs`` settings.
* **Live progress.**  When a run is being tracked (``--serve`` /
  ``REPRO_METRICS_PORT``), every job is registered on the global
  :data:`~repro.telemetry.progress.PROGRESS` board and driven through
  queued → running → done/failed.  On the serial path transitions
  bracket the actual execution; on the fan-out path jobs are promoted
  to *running* up to the pool width and advanced from each future's
  completion callback — the pool is FIFO, so the board mirrors real
  dispatch without any extra worker→parent traffic.  Results still
  merge in submission order through the **existing result pipe**, so
  ``--metrics``/``--trace`` exports stay byte-identical at any job
  count (the board never touches telemetry state).  Independently of
  tracking, each job's per-phase wall time (``trace_expand`` /
  ``compile`` / ``sim``) is measured in :func:`_execute_job`, shipped
  back on the :class:`JobResult`, and folded into the board's phase
  aggregates — which the CLI deltas into the run ledger.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
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
from ..sim.tracefile import dump_trace_npz, load_trace_npz
from ..telemetry.progress import PROGRESS
from ..telemetry.runtime import TELEMETRY
from ..telemetry.tracectx import (
    bind_trace,
    current_trace_id,
    new_trace_id,
    record_job_trace,
)
from ..workloads import cached_trace
from ..workloads.profiles import profile
from ..workloads.trace_cache import TRACE_CACHE, trace_key

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Ring capacity workers capture with: effectively unbounded (deques
#: with a large ``maxlen`` do not preallocate), so the parent replay
#: sees every event and can re-apply its own sampling/overflow policy.
_WORKER_RING_CAPACITY = 1 << 30

#: Environment variable selecting the serial-path native batch width.
BATCH_ENV = "REPRO_SIM_BATCH"

#: Environment variable disabling per-job trace waterfalls (they are
#: diagnostics-only and cheap — one id mint plus a few dict writes per
#: job — so they default on).
TRACE_DISABLE_ENV = "REPRO_TRACE_DISABLE"


def _tracing_enabled() -> bool:
    return os.environ.get(TRACE_DISABLE_ENV, "").strip().lower() not in (
        "1",
        "true",
        "yes",
        "on",
    )

#: Default batch width: covers all four mechanisms of one benchmark
#: (the common job grouping) twice over without holding an unbounded
#: number of prepared simulators alive.
_DEFAULT_BATCH = 8


def resolve_batch_size(choice: Optional[int] = None) -> int:
    """Effective serial batch width.

    *choice* wins when given; otherwise ``REPRO_SIM_BATCH`` (empty or
    ``auto`` → the default, unparsable → the default, ``1`` disables
    batching and restores the historical one-job-at-a-time loop).
    """
    if choice is None:
        raw = os.environ.get(BATCH_ENV, "").strip().lower()
        if raw in ("", "auto"):
            return _DEFAULT_BATCH
        try:
            choice = int(raw)
        except ValueError:
            return _DEFAULT_BATCH
    return max(1, choice)


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
    #: Trace id bound where the job executed (diagnostics only: it
    #: rides the result pipe into the in-memory trace store, never
    #: cell records or deterministic exports).  ``None`` for cache
    #: hits — no execution happened this run.
    trace_id: Optional[str] = None


def _effective_workers(n_jobs: int, n_items: int) -> int:
    """Worker processes actually worth spawning.

    More workers than CPUs (or items) cannot speed up a CPU-bound
    simulation — they only add fork/pickle overhead — so the request
    is capped, and a single effective worker degrades to the
    in-process serial path (which is byte-identical anyway).
    """
    return min(n_jobs, n_items, os.cpu_count() or 1)


#: Per-process memo of shipped ``.npz`` traces, so one worker serving
#: several mechanisms of a benchmark decodes the columns only once.
_SHIPPED_TRACES: Dict[str, KernelTrace] = {}


def _load_shipped(path: str) -> KernelTrace:
    trace = _SHIPPED_TRACES.get(path)
    if trace is None:
        trace = load_trace_npz(path)
        _SHIPPED_TRACES[path] = trace
    return trace


def _execute_job(
    job: SimJob, config: GpuConfig, trace_path: Optional[str] = None
) -> JobResult:
    """Run one job in the current process (trace via npz or cache).

    Each phase is timed with the wall clock for the live plane's
    attribution: ``trace_expand`` (npz load or cached synthesis),
    ``compile`` (model + simulator construction, which pays the
    one-off closure/plan specialization), ``sim`` (the timed run).
    """
    phases: Dict[str, float] = {}
    started = time.perf_counter()
    trace = None
    if trace_path is not None:
        try:
            trace = _load_shipped(trace_path)
        except Exception:
            trace = None  # racing cleanup/corruption: synthesize
    if trace is None:
        trace = cached_trace(
            job.benchmark,
            warps=job.warps,
            instructions_per_warp=job.instructions_per_warp,
            seed_salt=job.seed_salt,
        )
    now = time.perf_counter()
    phases["trace_expand"] = now - started
    simulator = SmSimulator(config, model_factory(job.mechanism))
    started, now = now, time.perf_counter()
    phases["compile"] = now - started
    result = simulator.run(trace)
    phases["sim"] = time.perf_counter() - now
    return JobResult(
        job=job,
        cycles=result.cycles,
        stats=result.stats,
        phases=phases,
        trace_id=current_trace_id(),
    )


def _trace_request(job: SimJob) -> Tuple[str, int, int, int]:
    return (
        job.benchmark,
        job.warps,
        job.instructions_per_warp,
        job.seed_salt,
    )


def _ship_traces(
    job_list: Sequence[SimJob],
) -> Tuple[Dict[Tuple[str, int, int, int], str], Optional[str]]:
    """Publish each unique trace as a shared columnar ``.npz``.

    Returns the request → path map plus a directory to remove after
    the pool drains (``None`` when the persistent ``--trace-cache``
    directory is the share point).
    """
    share_dir = TRACE_CACHE.disk_dir
    cleanup: Optional[str] = None
    if share_dir is None:
        share_dir = cleanup = tempfile.mkdtemp(prefix="repro-traces-")
    paths: Dict[Tuple[str, int, int, int], str] = {}
    for job in job_list:
        request = _trace_request(job)
        if request in paths:
            continue
        benchmark, warps, instructions_per_warp, seed_salt = request
        trace = cached_trace(
            benchmark,
            warps=warps,
            instructions_per_warp=instructions_per_warp,
            seed_salt=seed_salt,
        )
        key = trace_key(
            profile(benchmark),
            warps=warps,
            instructions_per_warp=instructions_per_warp,
            seed_salt=seed_salt,
        )
        path = os.path.join(share_dir, f"trace-{key}.npz")
        if not os.path.exists(path):
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as handle:
                dump_trace_npz(trace, handle)
            os.replace(tmp, path)
        paths[request] = path
    return paths, cleanup


def _job_span(job: SimJob, index: int):
    """Span wrapping one job's telemetry (live or replayed).

    ``tid`` is the submission index, so the Perfetto export renders
    one track per job regardless of which worker process ran it —
    and the span placement is identical between the serial path
    (around live execution) and the fan-out path (around the replay),
    preserving clock determinism.
    """
    return TELEMETRY.span(
        f"job:{job.benchmark}:{job.mechanism}",
        "job",
        tid=index,
        benchmark=job.benchmark,
        mechanism=job.mechanism,
    )


def _replay_telemetry(blob) -> None:
    """Fold one worker's captured telemetry into the global hub."""
    registry, events = blob
    emit = TELEMETRY.emit  # parent clock/seq numbers/sampling apply
    for kind, payload in events:
        emit(kind, **payload)
    TELEMETRY.registry.merge(registry)


@dataclass
class _BatchEntry:
    """One job's prepared state inside a serial native batch."""

    job: SimJob
    job_id: object
    index: int
    simulator: SmSimulator
    trace: KernelTrace
    plan: object  # IssuePlan
    stats: SimStats
    events: Optional[list]
    every: int
    phase: int
    phases: Dict[str, float]
    cycles: Optional[int] = None


def _finish_batch_entry(entry: _BatchEntry, run_columnar) -> None:
    """Complete one prepared job (caller wraps this in its span).

    Native-refused entries run the Python issue loop.  The end-of-run
    telemetry publication happens here — inside the job span — so the
    logical clock and registry sequence match the unbatched serial
    path event for event.
    """
    simulator = entry.simulator
    if entry.cycles is None:
        started = time.perf_counter()
        entry.cycles = run_columnar(
            simulator,
            entry.trace,
            entry.plan,
            entry.stats,
            events=entry.events,
            sample_every=entry.every,
            sample_phase=entry.phase,
        )
        entry.phases["sim"] = (
            entry.phases.get("sim", 0.0) + time.perf_counter() - started
        )
    if entry.events is not None:
        simulator._publish_fast_path(
            entry.trace.name, entry.stats, entry.events, TELEMETRY
        )


def _run_serial_batched(
    job_list: Sequence[SimJob],
    job_ids: Sequence[object],
    config: GpuConfig,
    batch: int,
    telemetry_wanted: bool,
    board,
    trace_ids: Optional[Sequence[Optional[str]]] = None,
) -> List[JobResult]:
    """Serial execution with cross-trace native batching.

    Jobs are prepared *batch* at a time — trace (one deduped cache
    pass per group), simulator, issue plan, telemetry decisions — and
    every job in the group crosses the FFI in a single
    :func:`~repro.sim.native.run_native_batch` call (grouped by
    codegen cell, optionally threaded).  Completion then proceeds in
    submission order: each job's telemetry publication (and any
    Python-loop fallback execution) happens inside its own ``job:``
    span, so ``--metrics``/``--trace`` exports are
    byte-identical to the unbatched serial path at any batch width.
    The batched FFI call's wall time is attributed across its jobs
    proportionally to instruction count for the live plane's phase
    aggregates.
    """
    from ..sim.columnar import run_columnar
    from ..sim.native import run_native_batch

    results: List[JobResult] = []
    for start in range(0, len(job_list), batch):
        group = job_list[start : start + batch]
        group_ids = job_ids[start : start + batch]
        for job_id in group_ids:
            board.job_running(job_id)
        started = time.perf_counter()
        traces = TRACE_CACHE.get_or_synthesize_many(
            [_trace_request(job) for job in group]
        )
        trace_seconds = (time.perf_counter() - started) / len(group)
        entries: List[_BatchEntry] = []
        for offset, (job, job_id, trace) in enumerate(
            zip(group, group_ids, traces)
        ):
            phases: Dict[str, float] = {"trace_expand": trace_seconds}
            started = time.perf_counter()
            simulator = SmSimulator(config, model_factory(job.mechanism))
            plan = simulator._fast_plan(trace)
            _, events, every, phase = simulator._fast_telemetry(trace)
            phases["compile"] = time.perf_counter() - started
            entries.append(
                _BatchEntry(
                    job=job,
                    job_id=job_id,
                    index=start + offset,
                    simulator=simulator,
                    trace=trace,
                    plan=plan,
                    stats=SimStats(),
                    events=events,
                    every=every,
                    phase=phase,
                    phases=phases,
                )
            )
        started = time.perf_counter()
        cycles_list = run_native_batch(
            [
                (e.simulator, e.plan, e.stats, e.events, e.every, e.phase)
                for e in entries
            ]
        )
        native_seconds = time.perf_counter() - started
        weight = sum(e.plan.total_instructions for e in entries) or 1
        for entry, cycles in zip(entries, cycles_list):
            entry.cycles = cycles
            if cycles is not None:
                entry.phases["sim"] = (
                    native_seconds * entry.plan.total_instructions / weight
                )
        for entry in entries:
            if telemetry_wanted:
                with _job_span(entry.job, entry.index):
                    _finish_batch_entry(entry, run_columnar)
            else:
                _finish_batch_entry(entry, run_columnar)
            board.record_phases(entry.phases)
            board.job_finished(entry.job_id)
            trace_id = trace_ids[entry.index] if trace_ids else None
            results.append(
                JobResult(
                    job=entry.job,
                    cycles=entry.cycles,
                    stats=entry.stats,
                    phases=entry.phases,
                    trace_id=trace_id,
                )
            )
            if trace_id is not None:
                record_job_trace(
                    trace_id,
                    phases=entry.phases,
                    attrs={
                        "benchmark": entry.job.benchmark,
                        "mechanism": entry.job.mechanism,
                        "origin": "engine.batched",
                    },
                )
    return results


def run_jobs_batched(
    jobs: Iterable[SimJob],
    *,
    config: GpuConfig = DEFAULT_GPU_CONFIG,
    batch_size: Optional[int] = None,
) -> List[JobResult]:
    """Execute *jobs* on the serial batched native path, nothing else.

    The embeddable core of :func:`run_sim_jobs`: same trace-cache
    dedup, same grouped :func:`~repro.sim.native.run_native_batch`
    FFI dispatch, same results (cycles and stats are identical for the
    same inputs — locked by ``tests/test_serve.py``) — but it never
    consults the fabric (cell cache, shards), never registers jobs on
    the progress board, and never opens telemetry spans.  That makes
    it safe to call from threads that do not own the process-global
    run state: the ``repro.serve`` daemon's executor threads dispatch
    every micro-batch through here, concurrently, while a CLI
    experiment could be using the global hub in the same process.
    (The trace cache and codegen caches are lock-guarded, so
    concurrent calls are thread-safe.)
    """
    job_list = list(jobs)
    if not job_list:
        return []
    batch = resolve_batch_size(batch_size)
    return _run_serial_batched(
        job_list,
        [None] * len(job_list),
        config,
        batch,
        False,  # never touch the global telemetry hub
        PROGRESS,  # None job ids: every board transition is a no-op
    )


def run_sim_jobs(
    jobs: Iterable[SimJob],
    *,
    config: GpuConfig = DEFAULT_GPU_CONFIG,
    n_jobs: int = 1,
    batch_size: Optional[int] = None,
) -> List[JobResult]:
    """Execute *jobs*, fanning out over processes when ``n_jobs > 1``.

    Results come back in submission order regardless of completion
    order; telemetry (when enabled) is replayed in the same order, so
    exports are byte-identical across ``n_jobs`` settings.

    On the serial path, jobs are dispatched *batch_size* at a time
    (default :func:`resolve_batch_size` → ``REPRO_SIM_BATCH`` or 8)
    through the generated native kernels — one FFI crossing per
    codegen cell per group — which amortizes call overhead and lets
    the threaded kernels run traces concurrently.  ``batch_size=1``
    restores the historical one-job loop; outputs are byte-identical
    either way.
    """
    job_list = list(jobs)
    workers = _effective_workers(n_jobs, len(job_list))
    telemetry_wanted = TELEMETRY.enabled
    board = PROGRESS
    # Registering returns None while the board is inactive; every
    # transition below is a no-op on None, so untracked runs pay one
    # attribute test per job.
    job_ids = [
        board.job_queued(job.benchmark, job.mechanism) for job in job_list
    ]
    # One deterministic trace id per submitted job (diagnostics only;
    # the ids land in the in-memory trace store, never the exports).
    trace_ids: Optional[List[Optional[str]]] = (
        [new_trace_id() for _ in job_list] if _tracing_enabled() else None
    )
    # The fabric (work-stealing pool, content-addressed cell cache,
    # shards) owns every path except the plain serial one.  Imported
    # lazily: fabric imports this module at its top level.
    from .fabric import resolve_cell_cache, resolve_shard, run_grid

    cell_cache = resolve_cell_cache()
    shard = resolve_shard()
    if workers > 1 or cell_cache is not None or shard is not None:
        return run_grid(
            job_list,
            job_ids,
            config=config,
            workers=workers,
            telemetry_wanted=telemetry_wanted,
            board=board,
            cache=cell_cache,
            shard=shard,
            trace_ids=trace_ids,
        )
    batch = resolve_batch_size(batch_size)
    if batch > 1 and len(job_list) > 1:
        return _run_serial_batched(
            job_list,
            job_ids,
            config,
            batch,
            telemetry_wanted,
            board,
            trace_ids=trace_ids,
        )

    def _record(result: JobResult) -> None:
        if result.trace_id is not None:
            record_job_trace(
                result.trace_id,
                phases=result.phases,
                attrs={
                    "benchmark": result.job.benchmark,
                    "mechanism": result.job.mechanism,
                    "origin": "engine.serial",
                },
            )

    if not telemetry_wanted:
        serial_results = []
        for index, (job, job_id) in enumerate(zip(job_list, job_ids)):
            board.job_running(job_id)
            with bind_trace(trace_ids[index] if trace_ids else None):
                result = _execute_job(job, config)
            board.record_phases(result.phases)
            board.job_finished(job_id)
            _record(result)
            serial_results.append(result)
        return serial_results
    # One span per job, tid = submission index.  The fabric opens the
    # *same* spans around each job's telemetry replay, so the logical
    # clock advances identically and --metrics/--trace artifacts stay
    # byte-identical across --jobs values — while Perfetto renders one
    # track per job.
    serial_results: List[JobResult] = []
    for index, job in enumerate(job_list):
        board.job_running(job_ids[index])
        with _job_span(job, index):
            with bind_trace(trace_ids[index] if trace_ids else None):
                result = _execute_job(job, config)
        board.record_phases(result.phases)
        board.job_finished(job_ids[index])
        _record(result)
        serial_results.append(result)
    return serial_results


def _fan_worker(payload):
    function, item = payload
    return function(item)


def fan_out(
    function: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    *,
    n_jobs: int = 1,
) -> List[ResultT]:
    """Deterministically-ordered parallel map for analytic artefacts.

    ``function`` must be a picklable top-level callable.  With
    ``n_jobs <= 1`` this is a plain in-process map (the seed path).
    Results are collected in input order.
    """
    item_list = list(items)
    workers = _effective_workers(n_jobs, len(item_list))
    if workers <= 1:
        return [function(item) for item in item_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_fan_worker, (function, item)) for item in item_list
        ]
        return [future.result() for future in futures]


__all__ = [
    "SimJob",
    "JobResult",
    "BATCH_ENV",
    "TRACE_DISABLE_ENV",
    "model_factory",
    "resolve_batch_size",
    "run_jobs_batched",
    "run_sim_jobs",
    "fan_out",
]
