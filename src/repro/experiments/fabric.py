"""Incremental, work-stealing experiment fabric.

The (benchmark × mechanism) timing grids behind Fig. 12 and Table II
are embarrassingly parallel *and* almost entirely redundant between
runs: editing one mechanism invalidates a quarter of the grid,
editing docs invalidates nothing.  Every grid run goes through
:func:`run_grid`, one pipeline per cell — digest, cache lookup,
batched execute, publish, then ordered telemetry replay — which
turns the grid into an incremental computation:

* **Content-addressed cell cache.**  Every grid cell is digested over
  its complete input closure — the trace content address
  (:func:`~repro.workloads.trace_cache.request_key`, which already
  tracks profile edits), the mechanism id and its
  :meth:`~repro.sim.timing.TimingModel.expansion_key`, the
  :class:`~repro.common.config.GpuConfig` fingerprint, and a code
  fingerprint over every package that can influence a simulation
  result.  Completed cells (cycles, stats, phases, captured telemetry)
  are persisted under that digest (:func:`~repro.common.files.publish`),
  so a rerun skips every unchanged cell and *replays its
  telemetry byte-identically* — the stored event stream goes back
  through the parent hub in submission order, exactly like a freshly
  executed cell's captured telemetry does, so ``--metrics``/``--trace``
  exports cannot tell a cache hit from a fresh run.
* **Batched execution.**  Cells that must run go through
  :func:`~repro.experiments.engine.execute_group`: in process, in
  groups of :data:`GROUP_SIZE` per native batch call.
* **Work-stealing scheduler.**  ``--jobs N`` runs cells on ``N``
  forked workers fed from per-worker deques (contiguous block
  partition of the submission order), one cell per dispatch.  The
  parent resolves the owned cells' traces once; workers inherit them
  through ``fork``.  An idle worker steals from the *tail* of the
  longest deque — the opposite end from the owner, so contention
  stays at the ends — and a worker that dies mid-cell has its cell
  re-dispatched exactly once (a second death fails the run loudly).
  Results still merge in submission order, so exports are
  byte-identical at any worker count.
* **Shards.**  ``--shard i/N`` marks cells ``index % N == i`` as
  *owned*; the other cells are *foreign* — polled from the shared
  cell cache for up to ``REPRO_SHARD_WAIT`` seconds (their owner is
  expected to publish them), then computed locally, in batched
  groups, as a steal of last resort (each group re-checks the cache
  right before it runs, so a late peer's cells are still skipped).
  Every shard invocation therefore yields the **complete** artifact
  set, byte-identical to a single-process run; N concurrent shards
  over one cache dir each compute ~1/N of the grid.
* **Interrupted runs.**  Every cell is published as soon as its group
  (or, on the pool, the cell itself) finishes, so a killed run leaves
  each finished cell behind, and rerunning the same command
  recomputes exactly the missing ones through ordinary cache hits.

Operational counters (cells skipped / stolen / redispatched /
executed) live in a private :data:`FABRIC_DIAG` registry surfaced
only through the live ``/metrics`` plane and the run ledger's
``fabric`` block — never the deterministic exports, which must stay
byte-identical across cache states.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..common.config import GpuConfig
from ..common.files import publish
from ..sim.core import publish_fast_path
from ..sim.trace import KernelTrace
from ..telemetry.registry import DIAG_REGISTRIES, MetricsRegistry
from ..telemetry.runtime import TELEMETRY
from ..telemetry.tracectx import record_job_trace
from ..workloads.trace_cache import TRACE_CACHE, request_key
from .engine import (
    JobResult,
    SimJob,
    TraceRequest,
    _job_span,
    _trace_request,
    execute_group,
    model_factory,
)

#: Version tag of the on-disk cell record (bump on layout change —
#: old entries then miss and rebuild, never misparse).  v3: the
#: telemetry blob carries the cell's issue runs as one ``(n, 3)``
#: ``int64`` array of (cycle, warp, run length) rows.
CELL_SCHEMA = "repro.experiments.cell/v3"

#: Seconds a shard polls the shared cache for a foreign cell before
#: computing it locally (default 0: take over immediately).
SHARD_WAIT_ENV = "REPRO_SHARD_WAIT"

#: Cells per in-process :func:`~repro.experiments.engine.execute_group`
#: call: two benchmarks' four mechanisms, so each codegen cell's FFI
#: crossing carries two traces, without holding an unbounded number of
#: prepared simulators alive.
GROUP_SIZE = 8

#: Private diagnostics registry: live ``/metrics`` only (appended to
#: :data:`~repro.telemetry.registry.DIAG_REGISTRIES`), never the
#: deterministic exports.
FABRIC_DIAG = MetricsRegistry()
DIAG_REGISTRIES.append(FABRIC_DIAG)

#: Counter names (also the keys of :func:`fabric_counters` and the
#: ledger's ``fabric`` block).
_COUNTERS = (
    "fabric.cells_executed",
    "fabric.cells_skipped",
    "fabric.cells_stolen",
    "fabric.cells_redispatched",
)


def fabric_counters() -> Dict[str, int]:
    """Current fabric counter totals (``cells_skipped`` etc.)."""
    return {
        name.split(".", 1)[1]: int(FABRIC_DIAG.value(name))
        for name in _COUNTERS
    }


def reset_fabric_counters() -> None:
    """Zero the diagnostics (tests and per-experiment ledger deltas)."""
    FABRIC_DIAG.reset()


def _count(name: str, amount: int = 1) -> None:
    FABRIC_DIAG.counter(name).inc(amount)


# ----------------------------------------------------------------------
# Digests


@functools.lru_cache(maxsize=256)
def config_fingerprint(config: GpuConfig) -> str:
    """Stable digest of every GPU-config field (hex SHA-256).

    Hashes the frozen dataclass's ``repr``, which lists every field in
    declaration order, the nested :class:`~repro.common.config.
    CacheConfig` levels included.  Memoized on the config's value, like
    :func:`~repro.workloads.trace_cache.profile_fingerprint`: a frozen
    dataclass hashes and compares by its fields, nested levels too, so
    an edited field is a new key, never a stale hit.  Configs that
    compare equal but render differently (``ways=True`` and ``ways=1``,
    which only a library caller can build) share the fingerprint of
    whichever was seen first.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()


#: Packages whose source can change a simulation result.  Everything
#: under these directories is folded into the code fingerprint; a
#: one-character edit anywhere invalidates every cached cell.
_CODE_PACKAGES = (
    "common",
    "exec",
    "mechanisms",
    "sim",
    "workloads",
)

_code_fp: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of all result-bearing source (memoized per process).

    SHA-256 over the sorted relative paths and bytes of every ``.py``
    file in the simulation-relevant packages plus the experiment
    engine/fabric themselves.  Coarse on purpose: a false invalidation
    costs one warm-up run; a false *hit* would silently serve stale
    science.
    """
    global _code_fp
    if _code_fp is not None:
        return _code_fp
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths: List[str] = [
        os.path.join(package_root, "experiments", "engine.py"),
        os.path.join(package_root, "experiments", "fabric.py"),
    ]
    for package in _CODE_PACKAGES:
        root = os.path.join(package_root, package)
        for dirpath, _, filenames in os.walk(root):
            for filename in filenames:
                if filename.endswith(".py"):
                    paths.append(os.path.join(dirpath, filename))
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, package_root).encode("utf-8"))
        digest.update(b"\0")
        try:
            with open(path, "rb") as handle:
                digest.update(handle.read())
        except OSError:
            digest.update(b"<unreadable>")
        digest.update(b"\0")
    _code_fp = digest.hexdigest()
    return _code_fp


@functools.lru_cache(maxsize=None)
def _expansion_repr(mechanism: str) -> str:
    """``repr`` of *mechanism*'s instruction-expansion key, memoized per
    name: :func:`~repro.experiments.engine.model_factory` builds every
    mechanism with fixed defaults, and only known names are cached
    (an unknown one raises)."""
    return repr(model_factory(mechanism).expansion_key())


def cell_digest(job: SimJob, config: GpuConfig) -> str:
    """Content address of one grid cell (hex SHA-256).

    Composition: trace content address (profile-aware), mechanism id
    plus its instruction-expansion key (the mechanism-config part of
    the closure), GPU-config fingerprint, code fingerprint.  Any input
    or code change flips the digest; nothing else does.
    """
    expansion = _expansion_repr(job.mechanism)
    raw = "|".join(
        (
            "cell/v1",
            request_key(
                job.benchmark,
                job.warps,
                job.instructions_per_warp,
                job.seed_salt,
            ),
            f"mechanism={job.mechanism}",
            f"expansion={expansion}",
            f"config={config_fingerprint(config)}",
            f"code={code_fingerprint()}",
        )
    )
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


#: Version tag of a Fig. 1 region-mix record (see :func:`fig1_digest`).
FIG1_SCHEMA = "repro.experiments.fig1/v1"


def fig1_digest(
    benchmark: str, warps: int, instructions_per_warp: int
) -> str:
    """Content address of one benchmark's Fig. 1 region mix (hex SHA-256).

    A namespace of its own in the cell cache (the ``fig1/v1`` tag):
    the trace request's content address plus the code fingerprint,
    which covers ``workloads`` (synthesis) and ``sim``
    (``memory_region_mix``).
    """
    raw = "|".join(
        (
            "fig1/v1",
            request_key(benchmark, warps, instructions_per_warp),
            f"code={code_fingerprint()}",
        )
    )
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Cell cache


@dataclasses.dataclass
class CellCacheStats:
    """Hit/miss/corruption counters for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0


class CellCache:
    """Content-addressed store of completed grid-cell results.

    One file per digest: a header line ``repro-cell/v1 <sha256>``
    naming the checksum of the pickled payload that follows.  Loads
    verify the checksum *and* that the payload's recorded digest and
    schema match the requested ones, so truncation, bit rot and
    foreign files all degrade to a miss (and a rebuild) — never to
    wrong results.  Stores publish atomically
    (:func:`~repro.common.files.publish`), safe for concurrent shard
    processes.  Besides grid cells (:data:`CELL_SCHEMA`) it holds
    Fig. 1's region mixes (:data:`FIG1_SCHEMA`, :func:`fig1_digest`).
    """

    _MAGIC = b"repro-cell/v1 "

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.stats = CellCacheStats()
        #: Counter guard: one handle is shared by the serve daemon's
        #: executor threads, and ``+=`` on plain ints is not atomic.
        self._stats_lock = threading.Lock()

    def path_for(self, digest: str) -> str:
        return os.path.join(self.directory, f"cell-{digest}.bin")

    # ------------------------------------------------------------------

    def load(
        self,
        digest: str,
        *,
        want_events: bool,
        quiet: bool = False,
        schema: str = CELL_SCHEMA,
    ) -> Optional[Dict[str, object]]:
        """The stored *schema* record for *digest*, or None on
        miss/corruption.

        A record stored without captured telemetry cannot serve a run
        that needs to replay events (*want_events*): it misses, and
        the rebuild upgrades the entry in place.  *quiet* suppresses
        stat counting (shard polling must not read as a miss storm).
        """
        path = self.path_for(digest)
        record = self._read(path, digest, schema)
        if record is not None and want_events and record.get("telemetry") is None:
            record = None  # stored without events; recompute + upgrade
        if not quiet:
            with self._stats_lock:
                if record is None:
                    self.stats.misses += 1
                else:
                    self.stats.hits += 1
        return record

    def _read(
        self, path: str, digest: str, schema: str
    ) -> Optional[Dict[str, object]]:
        try:
            with open(path, "rb") as handle:
                header = handle.readline()
                payload = handle.read()
        except OSError:
            return None
        record = self._decode(header, payload, digest, schema)
        if record is None:
            with self._stats_lock:
                self.stats.corrupt += 1
        return record

    def _decode(
        self, header: bytes, payload: bytes, digest: str, schema: str
    ) -> Optional[Dict[str, object]]:
        """The record in one entry's bytes, or None if corrupt."""
        if not header.startswith(self._MAGIC):
            return None
        expected = header[len(self._MAGIC):].strip().decode(
            "ascii", "replace"
        )
        if hashlib.sha256(payload).hexdigest() != expected:
            return None  # truncated / bit-rotted
        try:
            record = pickle.loads(payload)
        except Exception:
            return None
        if (
            not isinstance(record, dict)
            or record.get("schema") != schema
            or record.get("digest") != digest
        ):
            return None  # foreign or renamed entry
        return record

    def store(self, record: Dict[str, object]) -> None:
        """Atomically publish one cell record."""
        digest = str(record["digest"])
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        checksum = hashlib.sha256(payload).hexdigest().encode("ascii")
        entry = self._MAGIC + checksum + b"\n" + payload
        path = self.path_for(digest)
        publish(path, lambda tmp: Path(tmp).write_bytes(entry))
        with self._stats_lock:
            self.stats.stores += 1


_CACHE_INSTANCES: Dict[str, CellCache] = {}


def resolve_cell_cache(path: Optional[str]) -> Optional[CellCache]:
    """The cell cache at *path* (``--cell-cache DIR``), or None.

    Handles are memoized per absolute path, so every run in one
    process that names a directory shares one handle and its stats.
    """
    if not path:
        return None
    path = os.path.abspath(path)
    cache = _CACHE_INSTANCES.get(path)
    if cache is None:
        cache = _CACHE_INSTANCES[path] = CellCache(path)
    return cache


def resolve_shard(raw: Optional[str]) -> Optional[Tuple[int, int]]:
    """Parse the shard assignment ``i/N`` (``--shard``) → ``(i, N)``.

    None or empty means no sharding, and ``N == 1`` degrades to none;
    malformed values raise so a typo'd ``--shard`` fails loudly
    instead of silently computing the whole grid.
    """
    raw = (raw or "").strip()
    if not raw:
        return None
    try:
        index_text, _, total_text = raw.partition("/")
        index, total = int(index_text), int(total_text)
    except ValueError:
        raise ValueError(
            f"invalid shard spec {raw!r} (expected i/N, e.g. 0/2)"
        ) from None
    if total < 1 or not 0 <= index < total:
        raise ValueError(
            f"shard index must satisfy 0 <= i < N, got {raw!r}"
        )
    if total == 1:
        return None
    return index, total


def env_seconds(name: str) -> float:
    """Seconds from the environment variable *name*; 0 when unset.

    Anything but a finite number >= 0 raises, so a typo such as ``3m``
    fails loudly instead of silently reading as 0.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return 0.0
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not 0.0 <= seconds < math.inf:
        raise ValueError(
            f"invalid {name} value {raw!r} (expected seconds >= 0)"
        )
    return seconds


def shard_wait_seconds() -> float:
    """How long a shard polls the cache for foreign cells."""
    return env_seconds(SHARD_WAIT_ENV)


# ----------------------------------------------------------------------
# Cell records


def _make_cell_record(
    digest: str, job: SimJob, result: JobResult, blob
) -> Dict[str, object]:
    return {
        "schema": CELL_SCHEMA,
        "digest": digest,
        "job": dataclasses.asdict(job),
        "cycles": result.cycles,
        "stats": result.stats,
        "phases": dict(result.phases),
        "telemetry": blob,
    }


def _result_from_record(
    job: SimJob, record: Dict[str, object]
) -> JobResult:
    # Cache hits report empty phases: no wall time was spent, and the
    # live plane's attribution must describe *this* run, not the cold
    # run that populated the cache.
    return JobResult(
        job=job,
        cycles=record["cycles"],
        stats=record["stats"],
        phases={},
    )


# ----------------------------------------------------------------------
# Work-stealing pool


def _pool_worker_main(
    slot: int,
    inbox,
    results,
    config: GpuConfig,
    telemetry_wanted: bool,
    cache_dir: Optional[str],
    traces: Dict[TraceRequest, KernelTrace],
) -> None:
    """Worker loop: execute dispatched cells, store them, ship results.

    *traces* is the parent's resolved trace set, inherited through
    ``fork`` with the process arguments (a respawned worker gets it
    too), so workers never reload or re-synthesize a trace.  The
    worker stores each completed cell into the cache *itself* (before
    reporting back), so a parent killed mid-run still leaves every
    finished cell persisted, and a rerun recomputes only the rest.
    """
    cache = CellCache(cache_dir) if cache_dir else None
    while True:
        message = inbox.get()
        if message is None:
            return
        task_index, job, digest, trace_id = message
        try:
            [(result, blob)] = execute_group(
                [job], config, telemetry_wanted, traces
            )
            # A redispatched task reuses its tuple, so the request's
            # trace id survives a worker death.
            result.trace_id = trace_id
            if cache is not None and digest is not None:
                cache.store(_make_cell_record(digest, job, result, blob))
            results.put(("done", slot, task_index, result, blob))
        except BaseException as exc:
            results.put(("error", slot, task_index, repr(exc)))


class _StealingPool:
    """Parent-coordinated work-stealing pool over forked workers.

    The parent owns all scheduling state: one deque of task indices
    per worker (a contiguous block of the submission order), one
    in-flight task per worker.  A worker finishing its block steals
    from the *tail* of the longest remaining deque; a worker that
    dies mid-cell gets its cell re-dispatched exactly once (and the
    run fails loudly on a second death).  Keeping at most one cell in
    flight per worker is what makes stealing and re-dispatch exact:
    the parent always knows which cell a dead worker was holding.
    """

    def __init__(
        self,
        workers: int,
        config: GpuConfig,
        telemetry_wanted: bool,
        cache_dir: Optional[str],
        traces: Dict[TraceRequest, KernelTrace],
    ) -> None:
        self.config = config
        self.telemetry_wanted = telemetry_wanted
        self.cache_dir = cache_dir
        self.traces = traces
        self.context = multiprocessing.get_context("fork")
        self.results = self.context.Queue()
        self.workers: List[Tuple[object, object]] = []  # (process, inbox)
        for slot in range(workers):
            self.workers.append(self._spawn(slot))

    def _spawn(self, slot: int) -> Tuple[object, object]:
        inbox = self.context.Queue()
        process = self.context.Process(
            target=_pool_worker_main,
            args=(
                slot,
                inbox,
                self.results,
                self.config,
                self.telemetry_wanted,
                self.cache_dir,
                self.traces,
            ),
            daemon=True,
        )
        process.start()
        return process, inbox

    def run(
        self,
        tasks: Sequence[Tuple[int, SimJob, Optional[str], Optional[str]]],
        board,
        job_ids: Sequence[object],
        on_done: Callable[[int, JobResult, object], None],
    ) -> None:
        """Execute *tasks* (``(index, job, digest, trace_id)``),
        calling ``on_done(task index, result, telemetry blob)`` once per
        task as it completes — after the worker got its next cell, so
        the caller's work overlaps the workers'."""
        slots = len(self.workers)
        deques: List[deque] = [deque() for _ in range(slots)]
        total = len(tasks)
        by_index = {task[0]: task for task in tasks}
        for slot in range(slots):
            start = slot * total // slots
            end = (slot + 1) * total // slots
            deques[slot].extend(task[0] for task in tasks[start:end])
        inflight: Dict[int, int] = {}
        redispatched: Set[int] = set()
        completed: Set[int] = set()

        def dispatch(slot: int) -> None:
            own = deques[slot]
            if own:
                task_index = own.popleft()
            else:
                victim = max(
                    (s for s in range(slots) if s != slot),
                    key=lambda s: len(deques[s]),
                    default=None,
                )
                if victim is None or not deques[victim]:
                    return
                task_index = deques[victim].pop()  # steal from tail
                _count("fabric.cells_stolen")
            inflight[slot] = task_index
            board.job_running(job_ids[task_index])
            self.workers[slot][1].put(by_index[task_index])

        for slot in range(slots):
            dispatch(slot)
        while len(completed) < total:
            try:
                message = self.results.get(timeout=0.05)
            except queue_module.Empty:
                self._reap(deques, inflight, redispatched, board, job_ids)
                for slot in range(slots):
                    if slot not in inflight:
                        dispatch(slot)
                continue
            kind = message[0]
            if kind == "error":
                _, slot, task_index, text = message
                raise RuntimeError(
                    f"fabric worker failed on cell {task_index}: {text}"
                )
            _, slot, task_index, result, blob = message
            if inflight.get(slot) == task_index:
                del inflight[slot]
            dispatch(slot)
            if task_index not in completed:  # ignore redispatch dupes
                completed.add(task_index)
                board.job_finished(job_ids[task_index])
                board.record_phases(result.phases)
                _count("fabric.cells_executed")
                on_done(task_index, result, blob)

    def _reap(
        self, deques, inflight, redispatched, board, job_ids
    ) -> None:
        """Detect dead workers; requeue their cell once, then respawn."""
        for slot, (process, _) in enumerate(self.workers):
            if process.is_alive():
                continue
            task_index = inflight.pop(slot, None)
            if task_index is not None:
                if task_index in redispatched:
                    raise RuntimeError(
                        f"fabric worker died twice on cell {task_index}; "
                        "giving up (re-dispatch is attempted exactly once)"
                    )
                redispatched.add(task_index)
                _count("fabric.cells_redispatched")
                board.job_retry(job_ids[task_index])
                deques[slot].appendleft(task_index)
            self.workers[slot] = self._spawn(slot)

    def close(self) -> None:
        for process, inbox in self.workers:
            if process.is_alive():
                try:
                    inbox.put(None)
                except (OSError, ValueError):
                    pass
        for process, _ in self.workers:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)


# ----------------------------------------------------------------------
# The grid runner


def run_grid(
    job_list: Sequence[SimJob],
    job_ids: Sequence[object],
    *,
    config: GpuConfig,
    workers: int,
    telemetry_wanted: bool,
    board,
    cache: Optional[CellCache],
    shard: Optional[Tuple[int, int]],
    trace_ids: Sequence[str],
) -> List[JobResult]:
    """Run one grid through the fabric; results in submission order.

    Resolution order per cell: cache hit (skip) → owned (execute in
    process, :data:`GROUP_SIZE` cells per batched
    :func:`~repro.experiments.engine.execute_group` call, or one cell
    per dispatch on the stealing pool when ``workers > 1``) → foreign
    (poll the shared cache, then compute locally in batched groups as
    a last resort).  All telemetry — replayed from cache or captured
    fresh — goes back through the parent hub strictly in submission
    order inside the per-job spans, so exports are byte-identical
    across (jobs × shards × cache states).  Each cell is replayed as
    soon as every earlier cell has resolved, and its blob dropped, so
    an in-process run holds about one group's captured telemetry and
    the live plane advances group by group.
    """
    if shard is not None and cache is None:
        raise ValueError(
            "--shard requires a shared --cell-cache directory "
            "(shards exchange results through it)"
        )
    total = len(job_list)
    digests: List[Optional[str]] = [None] * total
    # Resolved cells not yet replayed; ``results`` is the replayed
    # prefix, so ``len(results)`` is the next cell to replay.
    outcomes: Dict[int, Tuple[JobResult, object]] = {}
    results: List[JobResult] = []

    def resolve(index: int, result: JobResult, blob) -> None:
        """Record one cell's outcome, then replay the resolved prefix
        in submission order (one loop for hits, in-process and pool
        results)."""
        outcomes[index] = (result, blob)
        while len(results) in outcomes:
            ready = len(results)
            done, captured = outcomes.pop(ready)
            if telemetry_wanted and captured is not None:
                with _job_span(job_list[ready], ready):
                    publish_fast_path(captured, TELEMETRY)
            if done.trace_id is not None:
                # Executed cells only: cache hits carry no trace id (no
                # wall time was spent this run).
                record_job_trace(
                    done.trace_id,
                    phases=done.phases,
                    attrs={
                        "benchmark": done.job.benchmark,
                        "mechanism": done.job.mechanism,
                        "origin": "engine",
                    },
                )
            results.append(done)

    def skip(index: int, record: Dict[str, object]) -> None:
        board.job_skipped(job_ids[index])
        _count("fabric.cells_skipped")
        resolve(
            index,
            _result_from_record(job_list[index], record),
            record.get("telemetry"),
        )

    def execute(indices: Sequence[int], stolen: bool = False) -> None:
        for start in range(0, len(indices), GROUP_SIZE):
            group = indices[start : start + GROUP_SIZE]
            if stolen:
                # The owner may have published some of these while this
                # shard was busy: take those as hits, run the rest.
                group = [index for index in group if not try_skip(index)]
                if not group:
                    continue
                _count("fabric.cells_stolen", len(group))
            for index in group:
                board.job_running(job_ids[index])
            executed = execute_group(
                [job_list[index] for index in group],
                config,
                telemetry_wanted,
            )
            for index, (result, blob) in zip(group, executed):
                result.trace_id = trace_ids[index]
                if cache is not None:
                    cache.store(
                        _make_cell_record(
                            digests[index], job_list[index], result, blob
                        )
                    )
                board.record_phases(result.phases)
                board.job_finished(job_ids[index])
                _count("fabric.cells_executed")
                resolve(index, result, blob)

    def try_skip(index: int) -> bool:
        record = cache.load(
            digests[index], want_events=telemetry_wanted, quiet=True
        )
        if record is not None:
            skip(index, record)
        return record is not None

    pending: List[int] = []
    for index, job in enumerate(job_list):
        if cache is not None:
            digests[index] = cell_digest(job, config)
            record = cache.load(digests[index], want_events=telemetry_wanted)
            if record is not None:
                skip(index, record)
                continue
        pending.append(index)

    if shard is not None:
        shard_index, shard_total = shard
        owned = [i for i in pending if i % shard_total == shard_index]
        foreign = [i for i in pending if i % shard_total != shard_index]
    else:
        owned, foreign = pending, []

    # ------------------------------------------------------------------
    # Owned cells
    if owned and workers > 1:
        requests = [_trace_request(job_list[index]) for index in owned]
        traces = dict(
            zip(requests, TRACE_CACHE.get_or_synthesize_many(requests))
        )
        tasks = [
            (
                index,
                job_list[index],
                digests[index],
                trace_ids[index],
            )
            for index in owned
        ]
        pool = _StealingPool(
            min(workers, len(owned)),
            config,
            telemetry_wanted,
            cache.directory if cache is not None else None,
            traces,
        )
        try:
            pool.run(tasks, board, job_ids, resolve)
        finally:
            pool.close()
    else:
        execute(owned)

    # ------------------------------------------------------------------
    # Foreign cells: their owner shard should publish them; poll, then
    # take over (a steal of last resort keeps every invocation whole).
    if foreign:
        deadline = time.monotonic() + shard_wait_seconds()
        timed_out: List[int] = []
        for index in foreign:
            while not try_skip(index):
                if time.monotonic() >= deadline:
                    timed_out.append(index)
                    break
                time.sleep(0.2)
        execute(timed_out, stolen=True)
    return results


__all__ = [
    "CELL_SCHEMA",
    "SHARD_WAIT_ENV",
    "FABRIC_DIAG",
    "GROUP_SIZE",
    "CellCache",
    "CellCacheStats",
    "cell_digest",
    "code_fingerprint",
    "config_fingerprint",
    "fabric_counters",
    "reset_fabric_counters",
    "resolve_cell_cache",
    "resolve_shard",
    "run_grid",
    "env_seconds",
    "shard_wait_seconds",
]
