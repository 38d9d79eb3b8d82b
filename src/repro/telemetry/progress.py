"""Live per-job run progress: the state machine behind ``/progress``.

The telemetry hub observes *what* a run computed; this module observes
*where the run is* while it computes.  A :class:`ProgressBoard` tracks
every experiment-engine job through the ``queued → running →
done/failed`` lifecycle, maintains an EWMA of completed-job wall time
(the ETA estimator), and aggregates per-phase wall-clock attribution
(``compile`` / ``trace_expand`` / ``sim`` / ``export``) that the run
ledger archives and ``repro report`` surfaces.

Design constraints, in order:

* **Zero interference with the determinism contracts.**  The board
  never emits telemetry events, never touches the metrics registry
  (except read-only in :meth:`ProgressBoard.snapshot`), and never
  feeds the exporters — so ``--metrics``/``--trace`` artifacts stay
  byte-identical whether or not anyone is watching (locked by
  ``tests/test_observability_server.py``).
* **Cheap when idle.**  Job-state updates are guarded by
  :attr:`ProgressBoard.active` (one attribute read when no run was
  begun); phase recording is a single locked dict update per *job*,
  not per instruction, so it is always on and feeds the ledger even
  without a server.
* **Thread-safe by construction.**  The experiment engine mutates the
  board from the main thread and pool callbacks while the HTTP
  plane's loop thread snapshots it; one lock covers all of it.

Wall times here are *real* seconds (``time.perf_counter``), unlike
the deterministic :class:`~repro.telemetry.spans.LogicalClock` spans —
an ETA derived from logical steps would be meaningless.
"""

from __future__ import annotations

import threading
import time
from datetime import datetime, timezone
from typing import Dict, List, Mapping, Optional

#: Version tag stamped into every ``/progress`` snapshot.
PROGRESS_SCHEMA = "repro.telemetry.progress/v1"

#: Job lifecycle states (terminal: DONE, FAILED, SKIPPED).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
#: Terminal state of a cell served from the experiment fabric's
#: content-addressed cache — the work was *not* performed, so skipped
#: jobs never feed the EWMA/ETA estimators (a warm rerun's ETA must
#: describe the cells still being simulated, not the free ones).
SKIPPED = "skipped"

#: Counter families summed into the snapshot's ``violations`` block —
#: the live view of what the mechanisms are catching.
VIOLATION_COUNTERS = (
    "oracle.violations",
    "mechanism.detections",
    "ec.faults",
)

#: Smoothing factor for the completed-job wall-time EWMA.  0.25 keeps
#: roughly the last ~7 jobs' influence — responsive to a phase change
#: (e.g. the grid moving from cheap to expensive benchmarks) without
#: the ETA jittering on every cell.
EWMA_ALPHA = 0.25


class JobProgress:
    """One job's live lifecycle record."""

    __slots__ = (
        "job_id",
        "benchmark",
        "mechanism",
        "state",
        "phase",
        "retries",
        "index",
        "_queued_at",
        "_started_at",
        "wall_seconds",
    )

    def __init__(
        self, job_id: str, benchmark: str, mechanism: str, index: int
    ) -> None:
        self.job_id = job_id
        self.benchmark = benchmark
        self.mechanism = mechanism
        self.state = QUEUED
        self.phase = ""
        self.retries = 0
        self.index = index
        self._queued_at = time.perf_counter()
        self._started_at: Optional[float] = None
        self.wall_seconds: Optional[float] = None

    def live_wall_seconds(self) -> Optional[float]:
        """Wall time so far: final for terminal states, running for
        RUNNING, None while queued."""
        if self.wall_seconds is not None:
            return self.wall_seconds
        if self._started_at is not None:
            return time.perf_counter() - self._started_at
        return None

    def as_dict(self) -> Dict[str, object]:
        wall = self.live_wall_seconds()
        return {
            "id": self.job_id,
            "benchmark": self.benchmark,
            "mechanism": self.mechanism,
            "state": self.state,
            "phase": self.phase,
            "retries": self.retries,
            "wall_seconds": round(wall, 6) if wall is not None else None,
        }


class ProgressBoard:
    """Thread-safe queued → running → done/failed job tracker."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.version = 0
        self.active = False
        self._reset_run_locked()
        #: phase name -> [total_seconds, count]; survives end_run so
        #: the CLI can delta it per experiment for the ledger.
        self._phases: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    # Run lifecycle

    def _reset_run_locked(self) -> None:
        self.run_name = ""
        self.run_status = "idle"
        self.run_meta: Dict[str, object] = {}
        self._jobs: Dict[str, JobProgress] = {}
        self._counts = {
            QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0, SKIPPED: 0,
        }
        self._retries = 0
        self._ewma_seconds: Optional[float] = None
        self._run_started: Optional[float] = None
        self._started_at_iso: Optional[str] = None
        self._next_index = 0
        self._total_registered = 0
        self._max_finished: Optional[int] = None
        self._terminal_order: List[str] = []

    def begin_run(
        self,
        name: str,
        meta: Optional[Mapping[str, object]] = None,
        *,
        max_finished: Optional[int] = None,
    ) -> None:
        """Start tracking a run; clears any previous run's jobs.

        *max_finished* bounds how many **terminal** (done/failed/
        skipped) job records are retained: once exceeded, the oldest
        terminal jobs are dropped from the per-job table.  The
        aggregate counts and the snapshot ``total`` keep describing
        every job ever registered — only the per-job detail rows are
        pruned.  A long-lived run (the ``repro.serve`` daemon tracks
        one batch per dispatch, indefinitely) sets this so the board
        cannot grow without bound; finite experiment grids leave it
        ``None`` and behave exactly as before.
        """
        with self._lock:
            self._reset_run_locked()
            self.run_name = name
            self.run_status = "running"
            self.run_meta = dict(meta or {})
            if max_finished is not None and max_finished < 0:
                raise ValueError("max_finished must be >= 0")
            self._max_finished = max_finished
            self._run_started = time.perf_counter()
            self._started_at_iso = datetime.now(timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"
            )
            self.active = True
            self.version += 1

    def end_run(self, status: str = "done") -> None:
        """Stop tracking; the final snapshot stays readable."""
        with self._lock:
            if not self.active:
                return
            self.run_status = status
            self.active = False
            self.version += 1

    # ------------------------------------------------------------------
    # Job transitions (no-ops unless a run is active)

    def job_queued(self, benchmark: str, mechanism: str) -> Optional[str]:
        """Register one job; returns its id (None while inactive)."""
        if not self.active:
            return None
        with self._lock:
            if not self.active:
                return None
            index = self._next_index
            self._next_index += 1
            job_id = f"{index}:{benchmark}:{mechanism}"
            self._jobs[job_id] = JobProgress(
                job_id, benchmark, mechanism, index
            )
            self._counts[QUEUED] += 1
            self._total_registered += 1
            self.version += 1
            return job_id

    def job_running(
        self, job_id: Optional[str], phase: str = "sim"
    ) -> None:
        """queued → running (idempotent; ignores unknown/None ids)."""
        if job_id is None:
            return
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != QUEUED:
                return
            job.state = RUNNING
            job.phase = phase
            job._started_at = time.perf_counter()
            self._counts[QUEUED] -= 1
            self._counts[RUNNING] += 1
            self.version += 1

    def job_finished(self, job_id: Optional[str], *, ok: bool = True) -> None:
        """running (or queued) → done/failed; updates the ETA EWMA."""
        if job_id is None:
            return
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state in (DONE, FAILED, SKIPPED):
                return
            now = time.perf_counter()
            started = job._started_at
            if started is None:  # finished without an observed start
                started = job._queued_at
                self._counts[QUEUED] -= 1
            else:
                self._counts[RUNNING] -= 1
            job.wall_seconds = now - started
            job.phase = ""
            job.state = DONE if ok else FAILED
            self._counts[job.state] += 1
            if ok:
                if self._ewma_seconds is None:
                    self._ewma_seconds = job.wall_seconds
                else:
                    self._ewma_seconds += EWMA_ALPHA * (
                        job.wall_seconds - self._ewma_seconds
                    )
            self._job_terminal_locked(job_id)
            self.version += 1

    def job_skipped(self, job_id: Optional[str]) -> None:
        """queued → skipped: the cell was served from the result cache.

        Distinct from *done* so a warm rerun reads honestly on the
        board (and in ``repro top``): skipped cells performed no work,
        so they bypass the wall-time EWMA entirely — the ETA keeps
        describing only the cells actually being simulated.
        """
        if job_id is None:
            return
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state not in (QUEUED, RUNNING):
                return
            self._counts[job.state] -= 1
            job.state = SKIPPED
            job.phase = ""
            job.wall_seconds = 0.0
            self._counts[SKIPPED] += 1
            self._job_terminal_locked(job_id)
            self.version += 1

    def job_retry(self, job_id: Optional[str]) -> None:
        """Bump a job's retry count and park it back in the queue."""
        if job_id is None:
            return
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state in (DONE, FAILED, SKIPPED):
                return
            job.retries += 1
            self._retries += 1
            if job.state == RUNNING:
                self._counts[RUNNING] -= 1
                self._counts[QUEUED] += 1
                job.state = QUEUED
                job._started_at = None
            self.version += 1

    def _job_terminal_locked(self, job_id: str) -> None:
        """Track terminal order; prune the oldest past ``max_finished``."""
        if self._max_finished is None:
            return
        self._terminal_order.append(job_id)
        while len(self._terminal_order) > self._max_finished:
            oldest = self._terminal_order.pop(0)
            self._jobs.pop(oldest, None)

    # ------------------------------------------------------------------
    # Phase attribution (always on; job-granularity, so cheap)

    def record_phase(self, name: str, seconds: float) -> None:
        """Fold one phase interval into the per-phase aggregates."""
        with self._lock:
            bucket = self._phases.get(name)
            if bucket is None:
                self._phases[name] = [float(seconds), 1.0]
            else:
                bucket[0] += seconds
                bucket[1] += 1

    def record_phases(self, phases: Mapping[str, float]) -> None:
        """Fold a ``phase -> seconds`` mapping (one job's attribution)."""
        with self._lock:
            for name, seconds in phases.items():
                bucket = self._phases.get(name)
                if bucket is None:
                    self._phases[name] = [float(seconds), 1.0]
                else:
                    bucket[0] += seconds
                    bucket[1] += 1

    def phase_totals(self) -> Dict[str, float]:
        """``phase -> cumulative seconds`` (for ledger deltas)."""
        with self._lock:
            return {name: bucket[0] for name, bucket in self._phases.items()}

    # ------------------------------------------------------------------
    # Observation

    def _eta_seconds_locked(self) -> Optional[float]:
        if self._ewma_seconds is None:
            return None
        remaining = self._counts[QUEUED] + self._counts[RUNNING]
        if remaining == 0:
            return 0.0
        parallel = max(1, self._counts[RUNNING])
        return self._ewma_seconds * remaining / parallel

    def snapshot(self, max_jobs: int = 256) -> Dict[str, object]:
        """JSON-ready view of the whole board (the ``/progress`` body).

        *max_jobs* bounds the per-job list so a thousand-mutant
        campaign cannot balloon the payload; the aggregate counts
        always cover every job.  Jobs are ordered by interest —
        running first, then the queue in run order (next up first),
        then finished jobs newest-first — so a truncated list still
        shows what the run is doing *now*.
        """
        # Imported here, not at module top: runtime has no dependency
        # on progress, keeping the hub importable without this module.
        from .runtime import TELEMETRY

        with self._lock:
            uptime = (
                time.perf_counter() - self._run_started
                if self._run_started is not None
                else None
            )
            done = self._counts[DONE]
            rate = (
                done / uptime if uptime and uptime > 0 and done else None
            )
            eta = self._eta_seconds_locked()
            state_rank = {
                RUNNING: 0, QUEUED: 1, DONE: 2, FAILED: 2, SKIPPED: 2,
            }
            jobs = sorted(
                self._jobs.values(),
                key=lambda j: (
                    state_rank[j.state],
                    j.index if j.state in (RUNNING, QUEUED) else -j.index,
                ),
            )[:max_jobs]
            snap: Dict[str, object] = {
                "schema": PROGRESS_SCHEMA,
                "version": self.version,
                "active": self.active,
                "run": {
                    "name": self.run_name,
                    "status": self.run_status,
                    "meta": dict(self.run_meta),
                    "started_at": self._started_at_iso,
                    "uptime_seconds": (
                        round(uptime, 3) if uptime is not None else None
                    ),
                    "total": self._total_registered,
                    "queued": self._counts[QUEUED],
                    "running": self._counts[RUNNING],
                    "done": done,
                    "failed": self._counts[FAILED],
                    "skipped": self._counts[SKIPPED],
                    "retries": self._retries,
                    "ewma_job_seconds": (
                        round(self._ewma_seconds, 6)
                        if self._ewma_seconds is not None
                        else None
                    ),
                    "jobs_per_second": (
                        round(rate, 3) if rate is not None else None
                    ),
                    "eta_seconds": (
                        round(eta, 3) if eta is not None else None
                    ),
                },
                "phases": {
                    name: {
                        "seconds": round(bucket[0], 6),
                        "count": int(bucket[1]),
                    }
                    for name, bucket in sorted(self._phases.items())
                },
                "jobs": [job.as_dict() for job in jobs],
            }
        # Registry reads happen outside the board lock (different
        # subsystem, no ordering requirement).
        registry = TELEMETRY.registry
        snap["violations"] = {
            name: registry.total(name) for name in VIOLATION_COUNTERS
        }
        return snap


#: The process-global board the engine updates and the server reads.
PROGRESS = ProgressBoard()


def get_progress() -> ProgressBoard:
    """The process-global progress board."""
    return PROGRESS


__all__ = [
    "PROGRESS_SCHEMA",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "SKIPPED",
    "VIOLATION_COUNTERS",
    "EWMA_ALPHA",
    "JobProgress",
    "ProgressBoard",
    "PROGRESS",
    "get_progress",
]
