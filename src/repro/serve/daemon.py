"""The ``repro.serve`` daemon: a multi-tenant simulation service.

One asyncio event loop owns admission control, request coalescing and
micro-batch formation; a small thread pool executes the batches on the
experiment engine's batched execution core
(:func:`~repro.experiments.engine.run_jobs_batched`).  The design is
throughput-through-work-avoidance, not parallelism: under a zipf-shaped
multi-tenant request mix almost every request is answered without
simulating anything —

1. **Admission control** — per-tenant token buckets
   (``--tenant-rps`` / ``--tenant-burst``) and a bound on distinct
   in-flight cells (``--max-pending``).  Rejections are explicit
   ``429`` responses with ``Retry-After``, never dropped connections.
2. **Coalescing** — requests are content-addressed by
   :func:`~repro.experiments.fabric.cell_digest`; a request whose cell
   is already in flight attaches to the existing future and shares one
   computation.  Distinct cells are micro-batched without a timer:
   as soon as one of the ``--workers`` executor threads is free, the
   batcher dispatches the next queued cell plus every cell queued
   behind it, up to ``--max-batch``.  A miss on an idle daemon leaves
   at once; misses that arrive while every executor is busy queue and
   leave together.  Each micro-batch's misses run as one engine group
   per GPU config, so one FFI crossing amortises across the batch
   exactly as for a CLI grid's cells.
3. **Result cache** — a per-daemon in-memory LRU of cell records in
   front of the shared on-disk :class:`~repro.experiments.fabric.CellCache`
   (``--cache``; none without it).  The disk layer uses the *same*
   digests and record schema as CLI/fabric runs, so a grid swept
   overnight pre-warms the service and vice versa.
4. **Telemetry** — the daemon mounts the shared observability routes
   of :mod:`repro.telemetry.server` next to its own.  A per-daemon
   diagnostic :class:`~repro.telemetry.registry.MetricsRegistry` rides
   the live ``/metrics`` exposition (queue depth, batch occupancy, hit
   rate, latency histogram); ``/stats`` serves the same numbers as
   JSON and ``/stats/stream`` as Server-Sent Events.  ``/progress``
   mirrors the global :class:`~repro.telemetry.progress.ProgressBoard`
   so ``repro top`` can watch a daemon like any run.
5. **Request forensics** — every request gets a deterministic trace id
   (``X-Repro-Trace-Id`` response header) whose per-stage waterfall
   (admission → queue wait → batch assembly → engine phases → cache
   publish → serialize, with an ``unattributed`` remainder so the sum
   always equals the end-to-end latency) is served by ``/trace/<id>``;
   ``/logs`` exposes the structured log ring, and requests breaching
   the slow threshold (``--slow-ms`` fixed, or the live
   ``--slow-quantile`` once enough samples exist) are captured
   automatically — counter, ``/stats`` ``slow_requests``
   entry, and a ``slow_request`` log record carrying the waterfall.
   Trace ids live only in the diagnostics stores, never in the
   byte-identical response bodies or exports.

Every answer is byte-identical to what a direct engine call returns
for the same job and config — cached, coalesced or executed — which
``tests/test_serve.py`` locks request-by-request.

Each setting is a :class:`ServeDaemon` keyword argument whose default
lives in its signature; ``repro serve`` sets it by its flag alone
(``repro serve --help``) and passes only the flags given.
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import dataclasses
import math
import os
import sys
import threading
import time
from collections import OrderedDict, deque
from typing import Dict, List, Optional, Tuple

from ..experiments.engine import JobResult, run_jobs_batched
from ..experiments.fabric import (
    CellCache,
    _make_cell_record,
    _result_from_record,
    cell_digest,
    resolve_cell_cache,
)
from ..telemetry.log import LOG
from ..telemetry.progress import PROGRESS
from ..telemetry.registry import (
    DIAG_REGISTRIES,
    LATENCY_BUCKETS_SECONDS,
    MetricsRegistry,
)
from ..telemetry.runtime import TELEMETRY
from ..telemetry.server import (
    EventStream,
    HttpError,
    HttpPlane,
    Request,
    Response,
    json_response,
    observability_routes,
)
from ..telemetry.tracectx import TRACES, new_trace_id
from .protocol import (
    TRACE_HEADER,
    RequestError,
    SimRequest,
    parse_simulate,
    result_document,
)

#: Test/CI hook: ``benchmark:mechanism:ms`` sleeps that long inside
#: the execute path of every matching cell, so slow-request capture
#: can be exercised deterministically.
INJECT_DELAY_ENV = "REPRO_SERVE_INJECT_DELAY"

#: Requests the latency histogram must hold before quantile-mode slow
#: capture arms (a p99 over a handful of samples is noise).
_SLOW_MIN_COUNT = 50

#: Slow requests remembered for /stats (newest kept).
_SLOW_KEEP = 32

#: Quantile-mode slow threshold refresh cadence (observations between
#: histogram walks; the bar drifts slowly, the walk is per-request).
_SLOW_REFRESH_EVERY = 32

#: Bucket bounds of the per-stage histograms: most stages of a cache
#: hit take tens of microseconds, below the shared latency ladder's
#: first (1 ms) bound, where every quantile would read 0.5/0.99 ms.
_STAGE_BUCKETS_SECONDS = (
    10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
) + LATENCY_BUCKETS_SECONDS


class ServiceStopped(RuntimeError):
    """The daemon shut down while the request was in flight (503)."""


def _parse_inject_delay(
    raw: str,
) -> Optional[Tuple[str, str, float]]:
    """``benchmark:mechanism:ms`` → (benchmark, mechanism, seconds)."""
    raw = raw.strip()
    if not raw:
        return None
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"invalid {INJECT_DELAY_ENV} value {raw!r} "
            "(expected benchmark:mechanism:ms)"
        )
    try:
        ms = float(parts[2])
    except ValueError:
        raise ValueError(
            f"invalid {INJECT_DELAY_ENV} delay {parts[2]!r}"
        ) from None
    return parts[0], parts[1], ms / 1000.0


def _q_ms(hist, q: float) -> Optional[float]:
    value = hist.quantile(q)
    return round(1000.0 * value, 3) if value is not None else None


@dataclasses.dataclass
class _CellWork:
    """One distinct in-flight cell; coalesced waiters share ``future``.

    The trace fields belong to the *primary* request (the one that
    created the work); coalesced waiters keep their own ids and
    record only their wait.  Timestamps are event-loop clock readings;
    ``stages`` is filled by the executor thread (disk lookup, engine
    phases, cache publish) and read by the primary waiter strictly
    after the future resolves, so no lock is needed.
    """

    digest: str
    request: SimRequest
    future: "asyncio.Future"
    trace_id: Optional[str] = None
    enqueued_at: float = 0.0
    taken_at: float = 0.0
    dispatched_at: float = 0.0
    stages: Dict[str, float] = dataclasses.field(default_factory=dict)


_SHUTDOWN = object()  # batcher queue sentinel


class ServeDaemon:
    """Lifecycle + request plane of one serving instance.

    Two ways to run it: :meth:`start`/:meth:`stop` host the event loop
    in a named daemon thread (tests, benchmarks, embedding);
    :meth:`run_forever` runs it in the calling thread with SIGINT/
    SIGTERM wired to a clean shutdown (the CLI path).
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        *,
        cache_dir: Optional[str] = None,
        max_batch: int = 8,
        workers: int = 2,
        max_pending: int = 1024,
        tenant_rps: float = 0.0,
        tenant_burst: Optional[float] = None,
        memory_cells: int = 256,
        track_progress: bool = False,
        tracing: bool = True,
        slow_ms: float = 0.0,
        slow_quantile: float = 0.99,
    ) -> None:
        if not 0 <= port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        self.requested_port = port
        self.host = host
        self.port = port
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.max_batch = max_batch
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.max_pending = max_pending
        if not tenant_rps >= 0:  # also rejects NaN
            raise ValueError("tenant_rps must be non-negative")
        self.tenant_rps = tenant_rps
        if tenant_burst is None:
            tenant_burst = max(1.0, 2.0 * tenant_rps)
        # A bucket shallower than one token never admits a request.
        if tenant_rps > 0 and not tenant_burst >= 1:
            raise ValueError("tenant_burst must be at least 1")
        self.tenant_burst = tenant_burst
        if memory_cells <= 0:
            raise ValueError("memory_cells must be positive")
        self.memory_cells = memory_cells
        self.track_progress = track_progress
        #: Per-request tracing: one id mint plus a handful of dict
        #: writes per request, inside the serve bench's 5% budget.
        self.tracing = tracing
        if slow_ms < 0:
            raise ValueError("slow_ms must be non-negative")
        #: Fixed slow-request floor in ms; 0 switches to quantile mode,
        #: where a request is slow above the live latency histogram's
        #: ``slow_quantile`` once it holds enough samples.
        self.slow_ms = slow_ms
        if not 0.0 < slow_quantile < 1.0:
            raise ValueError("slow_quantile must be in (0, 1)")
        self.slow_quantile = slow_quantile
        self._inject_delay = _parse_inject_delay(
            os.environ.get(INJECT_DELAY_ENV, "")
        )

        #: Shared handle: same memoized instance CLI/fabric runs use
        #: for this directory, or None when no cache is configured.
        self.cell_cache: Optional[CellCache] = resolve_cell_cache(cache_dir)

        #: Per-daemon diagnostic registry; joins DIAG_REGISTRIES only
        #: while the daemon runs, so several daemons in one process
        #: (tests) keep disjoint /metrics contributions.
        self.diag = MetricsRegistry()
        self._latency = self.diag.histogram(
            "serve.latency_seconds", buckets=LATENCY_BUCKETS_SECONDS
        )
        #: Per-stage histograms (lazily created, event-loop thread
        #: only) — the /stats "stages" quantile block reads these.
        self._stage_hist: Dict[str, object] = {}
        #: Newest slow-request captures (/stats "slow_requests").
        self._slow: "deque[Dict[str, object]]" = deque(maxlen=_SLOW_KEEP)
        self._slow_threshold_cache: Tuple[int, Optional[float]] = (0, None)

        # Plain counters mirrored into `diag` — the /stats JSON reads
        # these, the Prometheus exposition reads the instruments.
        self.requests_by_outcome: Dict[str, int] = {}
        self.responses_by_source: Dict[str, int] = {}
        self.batches = 0
        self.batch_cells = 0

        # Loop-confined state (event-loop thread only — no locks).
        self._memory: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._inflight: Dict[str, _CellWork] = {}
        self._buckets: Dict[str, List[float]] = {}  # tenant -> [tokens, at]
        self._batch_tasks: set = set()
        self._batch_index = 0

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._plane: Optional[HttpPlane] = None
        self._queue: Optional["asyncio.Queue"] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._dispatch_sem: Optional[asyncio.Semaphore] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._started_at = 0.0
        self._install_signals = False

    # ------------------------------------------------------------------
    # Lifecycle

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeDaemon":
        """Serve from a named daemon thread; returns once bound."""
        if self._thread is not None:
            raise RuntimeError("daemon already started")
        self._started.clear()
        self._start_error = None
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._start_error is not None:
            self._thread.join(timeout=5)
            self._thread = None
            raise self._start_error
        if not self._started.is_set():
            raise RuntimeError("serve daemon failed to start in time")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Shut down cleanly and join the daemon thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return

        def _signal() -> None:
            if self._stop_event is not None:
                self._stop_event.set()

        try:
            loop.call_soon_threadsafe(_signal)
        except RuntimeError:
            pass  # loop already closed
        thread.join(timeout)
        self._thread = None
        self._loop = None

    def run_forever(self) -> None:
        """Serve from the calling thread until SIGINT/SIGTERM; raises
        the error that kept the daemon from binding, if any."""
        self._install_signals = True
        self._thread_main()
        if self._start_error is not None:
            raise self._start_error

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # surface bind errors to start()
            if not self._started.is_set():
                self._start_error = exc
                self._started.set()
            else:
                raise
        finally:
            asyncio.set_event_loop(None)
            loop.close()
            self._loop = None

    async def _main(self) -> None:
        loop = asyncio.get_event_loop()
        self._queue = asyncio.Queue()
        self._stop_event = asyncio.Event()
        self._dispatch_sem = asyncio.Semaphore(self.workers)
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve-exec"
        )
        self._started_at = time.perf_counter()
        routes = observability_routes(TELEMETRY, PROGRESS, self._started_at)
        routes[("POST", "/v1/simulate")] = self._simulate
        routes[("GET", "/stats")] = self._stats
        routes[("GET", "/stats/stream")] = self._stats_stream
        self._plane = HttpPlane(routes)
        self.port = await self._plane.start(self.host, self.requested_port)
        DIAG_REGISTRIES.append(self.diag)
        if self.track_progress:
            PROGRESS.begin_run(
                "serve", meta={"port": self.port}, max_finished=128
            )
        if self._install_signals:
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self._stop_event.set)
                except (NotImplementedError, RuntimeError):
                    pass
        batcher = asyncio.ensure_future(self._batch_loop())
        self._started.set()
        LOG.info(
            "serve_started",
            port=self.port,
            workers=self.workers,
            tracing=self.tracing,
        )
        try:
            await self._stop_event.wait()
        finally:
            # -- Shutdown sequence ------------------------------------
            self._plane.close()
            await self._queue.put(_SHUTDOWN)
            await batcher
            if self._batch_tasks:
                await asyncio.gather(
                    *list(self._batch_tasks), return_exceptions=True
                )
            for work in list(self._inflight.values()):
                if not work.future.done():
                    work.future.set_exception(
                        ServiceStopped("serve daemon stopping")
                    )
            self._inflight.clear()
            # One scheduling round so handler coroutines can flush
            # their 503s before connections are force-closed.
            await asyncio.sleep(0.05)
            await self._plane.stop()
            self._executor.shutdown(wait=True)
            if self.diag in DIAG_REGISTRIES:
                DIAG_REGISTRIES.remove(self.diag)
            if self.track_progress:
                PROGRESS.end_run("done")
            LOG.info(
                "serve_stopped",
                requests=sum(self.requests_by_outcome.values()),
                slow_requests=len(self._slow),
            )

    # ------------------------------------------------------------------
    # Counters (event-loop thread only)

    def _count_request(self, outcome: str) -> None:
        self.requests_by_outcome[outcome] = (
            self.requests_by_outcome.get(outcome, 0) + 1
        )
        self.diag.counter("serve.requests", outcome=outcome).inc()

    def _count_response(
        self, source: str, elapsed: float, trace_id: Optional[str] = None
    ) -> None:
        self.responses_by_source[source] = (
            self.responses_by_source.get(source, 0) + 1
        )
        self.diag.counter("serve.responses", source=source).inc()
        # The trace id becomes an OpenMetrics exemplar on the bucket
        # this observation lands in — /metrics → /trace/<id> linkage.
        self._latency.observe(elapsed, trace_id=trace_id)

    def _observe_stage(self, name: str, seconds: float) -> None:
        hist = self._stage_hist.get(name)
        if hist is None:
            hist = self.diag.histogram(
                "serve.stage_seconds",
                buckets=_STAGE_BUCKETS_SECONDS,
                stage=name,
            )
            self._stage_hist[name] = hist
        hist.observe(seconds)

    def _memory_get(self, digest: str) -> Optional[Dict[str, object]]:
        record = self._memory.get(digest)
        if record is not None:
            self._memory.move_to_end(digest)
        return record

    def _memory_put(self, digest: str, record: Dict[str, object]) -> None:
        self._memory[digest] = record
        self._memory.move_to_end(digest)
        while len(self._memory) > self.memory_cells:
            self._memory.popitem(last=False)

    def _admit(self, tenant: str) -> Optional[int]:
        """None when admitted; Retry-After seconds when throttled."""
        if self.tenant_rps <= 0:
            return None
        now = time.monotonic()
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = [self.tenant_burst, now]
        tokens = min(
            self.tenant_burst,
            bucket[0] + (now - bucket[1]) * self.tenant_rps,
        )
        if tokens >= 1.0:
            bucket[0] = tokens - 1.0
            bucket[1] = now
            return None
        bucket[0] = tokens
        bucket[1] = now
        return max(1, math.ceil((1.0 - tokens) / self.tenant_rps))

    # ------------------------------------------------------------------
    # Stats

    def stats_snapshot(self) -> Dict[str, object]:
        """JSON-ready serving counters (the ``/stats`` body)."""
        ok = self.requests_by_outcome.get("ok", 0)
        hits = self.responses_by_source.get(
            "memory", 0
        ) + self.responses_by_source.get("disk", 0)
        p50 = self._latency.quantile(0.5)
        p99 = self._latency.quantile(0.99)
        return {
            "schema": "repro.serve-stats/v1",
            "uptime_seconds": round(
                time.perf_counter() - self._started_at, 3
            ),
            "requests": dict(sorted(self.requests_by_outcome.items())),
            "responses": dict(sorted(self.responses_by_source.items())),
            "batches": self.batches,
            "batch_cells": self.batch_cells,
            "batch_occupancy": (
                round(self.batch_cells / self.batches, 3)
                if self.batches
                else 0.0
            ),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "inflight": len(self._inflight),
            "memory_cells": len(self._memory),
            "hit_rate": round(hits / ok, 4) if ok else 0.0,
            "latency_ms": {
                "count": self._latency.count,
                "mean": (
                    round(1000.0 * self._latency.sum / self._latency.count, 3)
                    if self._latency.count
                    else None
                ),
                "p50": round(1000.0 * p50, 3) if p50 is not None else None,
                "p99": round(1000.0 * p99, 3) if p99 is not None else None,
            },
            "stages": {
                name: {
                    "count": hist.count,
                    "p50": _q_ms(hist, 0.5),
                    "p99": _q_ms(hist, 0.99),
                }
                for name, hist in sorted(self._stage_hist.items())
            },
            "slow_requests": list(self._slow),
            "tenants": len(self._buckets),
        }

    # ------------------------------------------------------------------
    # Batching + execution

    async def _batch_loop(self) -> None:
        """Dispatch a batch as soon as an executor is free: the next
        queued cell plus whatever queued behind it, up to
        ``max_batch``.  Nothing waits for a batch to fill; cells batch
        because they queued while every executor was busy."""
        loop = asyncio.get_event_loop()
        while True:
            work = await self._queue.get()
            if work is _SHUTDOWN:
                return
            work.taken_at = loop.time()
            await self._dispatch_sem.acquire()
            batch = [work]
            shutdown = False
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _SHUTDOWN:
                    shutdown = True
                    break
                extra.taken_at = loop.time()
                batch.append(extra)
            self.diag.gauge("serve.queue_depth").set(self._queue.qsize())
            task = asyncio.ensure_future(self._run_batch(batch))
            self._batch_tasks.add(task)

            def _done(finished, task=task) -> None:
                self._batch_tasks.discard(task)
                self._dispatch_sem.release()

            task.add_done_callback(_done)
            if shutdown:
                return

    async def _run_batch(self, batch: List[_CellWork]) -> None:
        loop = asyncio.get_event_loop()
        self._batch_index += 1
        job_id = None
        if self.track_progress:
            job_id = PROGRESS.job_queued("serve", f"batch[{len(batch)}]")
            PROGRESS.job_running(job_id)
        dispatched = loop.time()
        for work in batch:
            work.dispatched_at = dispatched
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._execute_batch, batch
            )
        except Exception as exc:
            PROGRESS.job_finished(job_id, ok=False)
            for work in batch:
                self._inflight.pop(work.digest, None)
                if not work.future.done():
                    work.future.set_exception(exc)
            return
        executed = 0
        for work in batch:
            result, source, record = outcomes[work.digest]
            if source == "executed":
                executed += 1
            if record is not None:
                self._memory_put(work.digest, record)
            self._inflight.pop(work.digest, None)
            if not work.future.done():
                work.future.set_result((result, source))
        self.batches += 1
        self.batch_cells += len(batch)
        self.diag.counter("serve.batches").inc()
        self.diag.counter("serve.batch_cells").inc(len(batch))
        self.diag.counter("serve.cells_executed").inc(executed)
        self.diag.gauge("serve.inflight").set(len(self._inflight))
        PROGRESS.job_finished(job_id, ok=True)

    def _execute_batch(
        self, batch: List[_CellWork]
    ) -> Dict[str, Tuple[JobResult, str, Optional[Dict[str, object]]]]:
        """Executor-thread body: disk lookups, then one engine call per
        distinct config.  Returns ``digest -> (result, source, record)``;
        all daemon-state mutation happens back on the event loop."""
        outcomes: Dict[
            str, Tuple[JobResult, str, Optional[Dict[str, object]]]
        ] = {}
        misses: List[_CellWork] = []
        for work in batch:
            record = None
            if self.cell_cache is not None:
                lookup_started = time.perf_counter()
                record = self.cell_cache.load(
                    work.digest, want_events=False
                )
                if work.trace_id is not None:
                    work.stages["disk_lookup"] = (
                        time.perf_counter() - lookup_started
                    )
            if record is not None:
                outcomes[work.digest] = (
                    _result_from_record(work.request.job, record),
                    "disk",
                    record,
                )
            else:
                misses.append(work)
        groups: Dict[object, List[_CellWork]] = {}
        for work in misses:
            groups.setdefault(work.request.config, []).append(work)
        for config, group in groups.items():
            results = run_jobs_batched(
                [work.request.job for work in group], config=config
            )
            for work, result in zip(group, results):
                if work.trace_id is not None:
                    # Engine phase attribution (trace_expand/compile/
                    # sim) becomes this request's execute stages.
                    work.stages.update(result.phases)
                if self._inject_delay is not None:
                    bench, mech, delay = self._inject_delay
                    job = work.request.job
                    if job.benchmark == bench and job.mechanism == mech:
                        time.sleep(delay)
                        work.stages["inject_delay"] = delay
                publish_started = time.perf_counter()
                record = _make_cell_record(
                    work.digest, work.request.job, result, None
                )
                if self.cell_cache is not None:
                    self.cell_cache.store(record)
                if work.trace_id is not None:
                    work.stages["cache_publish"] = (
                        time.perf_counter() - publish_started
                    )
                outcomes[work.digest] = (result, "executed", record)
        return outcomes

    # ------------------------------------------------------------------
    # The daemon's own routes (mounted next to the shared ones in _main)

    async def _stats(self, http: Request) -> Response:
        return json_response(self.stats_snapshot())

    async def _stats_stream(self, http: Request) -> EventStream:
        return EventStream("stats", self.stats_snapshot)

    async def _simulate(self, http: Request) -> Response:
        loop = asyncio.get_event_loop()
        start = loop.time()
        trace_id = new_trace_id() if self.tracing else None
        try:
            request = parse_simulate(http.body, http.headers.get("x-tenant"))
        except RequestError as exc:
            self._count_request("bad_request")
            raise HttpError(400, str(exc)) from None
        retry = self._admit(request.tenant)
        if retry is not None:
            self._count_request("throttled")
            return json_response(
                {
                    "error": f"tenant {request.tenant!r} over quota",
                    "retry_after_seconds": retry,
                },
                429,
                headers=(("Retry-After", str(retry)),),
            )
        digest = cell_digest(request.job, request.config)
        admitted_at = loop.time()

        lookup_at = loop.time()
        record = self._memory_get(digest)
        if record is not None:
            result = _result_from_record(request.job, record)
            return self._finish(
                digest,
                result,
                "memory",
                start,
                trace_id=trace_id,
                request=request,
                stages=[
                    ("admission", admitted_at - start),
                    ("memory_lookup", loop.time() - lookup_at),
                ],
            )

        work = self._inflight.get(digest)
        if work is not None:
            wait_started = loop.time()
            result, _source = await self._outcome(work, trace_id)
            return self._finish(
                digest,
                result,
                "coalesced",
                start,
                trace_id=trace_id,
                request=request,
                stages=[
                    ("admission", admitted_at - start),
                    ("coalesce_wait", loop.time() - wait_started),
                ],
                attrs={"coalesced_with": work.trace_id},
            )

        if len(self._inflight) >= self.max_pending:
            self._count_request("overloaded")
            return json_response(
                {
                    "error": "too many distinct cells in flight",
                    "retry_after_seconds": 1,
                },
                429,
                headers=(("Retry-After", "1"),),
            )

        work = _CellWork(
            digest, request, loop.create_future(), trace_id=trace_id
        )
        work.enqueued_at = loop.time()
        self._inflight[digest] = work
        self._queue.put_nowait(work)
        self.diag.gauge("serve.queue_depth").set(self._queue.qsize())
        self.diag.gauge("serve.inflight").set(len(self._inflight))
        result, source = await self._outcome(work, trace_id)
        stages = [("admission", admitted_at - start)]
        if work.taken_at and work.enqueued_at:
            stages.append(("queue_wait", work.taken_at - work.enqueued_at))
        if work.dispatched_at and work.taken_at:
            stages.append(
                ("batch_assembly", work.dispatched_at - work.taken_at)
            )
        stages.extend(work.stages.items())
        return self._finish(
            digest,
            result,
            source,
            start,
            trace_id=trace_id,
            request=request,
            stages=stages,
        )

    async def _outcome(
        self, work: _CellWork, trace_id: Optional[str]
    ) -> Tuple[JobResult, str]:
        """``(result, source)`` of *work*; 503 when the daemon stops
        first, 500 when the simulation failed."""
        try:
            return await work.future
        except ServiceStopped:
            self._count_request("error")
            raise HttpError(503, "daemon stopping") from None
        except Exception as exc:
            self._count_request("error")
            LOG.error(
                "request_failed",
                trace_id=trace_id,
                digest=work.digest,
                error=str(exc),
            )
            raise HttpError(500, f"simulation failed: {exc}") from None

    def _finish(
        self,
        digest: str,
        result: JobResult,
        source: str,
        start: float,
        *,
        trace_id: Optional[str] = None,
        request: Optional[SimRequest] = None,
        stages: Optional[List[Tuple[str, float]]] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Response:
        loop = asyncio.get_event_loop()
        elapsed = loop.time() - start
        self._count_request("ok")
        self._count_response(source, elapsed, trace_id)
        headers = ((TRACE_HEADER, trace_id),) if trace_id is not None else ()
        serialize_started = loop.time()
        response = json_response(
            result_document(digest, result, source, elapsed), headers=headers
        )
        if trace_id is None:
            return response

        def record_trace() -> None:
            # Runs once the response is flushed, so the trace total
            # covers through serialization: the waterfall's stage sum
            # equals this figure by construction (finish() backs any
            # gap into an `unattributed` stage).
            total = loop.time() - start
            all_stages = list(stages or [])
            all_stages.append(("serialize", loop.time() - serialize_started))
            job = result.job
            trace_attrs = {
                "source": source,
                "digest": digest,
                "benchmark": job.benchmark,
                "mechanism": job.mechanism,
                "tenant": request.tenant if request is not None else None,
                "origin": "serve",
            }
            if attrs:
                trace_attrs.update(attrs)
            TRACES.record(
                trace_id,
                attrs=trace_attrs,
                stages=all_stages,
                total_seconds=total,
            )
            for name, seconds in all_stages:
                self._observe_stage(name, seconds)
            self._maybe_capture_slow(trace_id, source, digest, total)

        response.on_sent = record_trace
        return response

    def _slow_threshold_seconds(self) -> Optional[float]:
        """Current slow-request bar, or None while unarmed.

        In quantile mode the bar is recomputed every
        :data:`_SLOW_REFRESH_EVERY` observations rather than per
        request — walking the histogram buckets on every sub-ms cache
        hit would cost a visible slice of the tracing budget for a
        threshold that moves slowly anyway.
        """
        if self.slow_ms > 0:
            return self.slow_ms / 1000.0
        count = self._latency.count
        if count < _SLOW_MIN_COUNT:
            return None
        cached_count, cached = self._slow_threshold_cache
        if cached is None or count - cached_count >= _SLOW_REFRESH_EVERY:
            cached = self._latency.quantile(self.slow_quantile)
            self._slow_threshold_cache = (count, cached)
        return cached

    def _maybe_capture_slow(
        self, trace_id: str, source: str, digest: str, total: float
    ) -> None:
        threshold = self._slow_threshold_seconds()
        if threshold is None or total < threshold:
            return
        trace = TRACES.get(trace_id)
        capture = {
            "trace_id": trace_id,
            "elapsed_ms": round(total * 1000.0, 3),
            "threshold_ms": round(threshold * 1000.0, 3),
            "source": source,
            "digest": digest,
            "ts_unix": round(time.time(), 3),
        }
        self._slow.append(capture)
        self.diag.counter("serve.slow_requests").inc()
        LOG.warning(
            "slow_request",
            **capture,
            stages=trace["stages"] if trace is not None else None,
        )


# ----------------------------------------------------------------------
# CLI entry (`repro serve`, `python -m repro.serve`)


def main(argv: Optional[List[str]] = None) -> int:
    """``repro serve`` — run a daemon until SIGINT/SIGTERM."""
    # Unset flags stay out of the namespace, so ServeDaemon's
    # signature holds every default; its constructor validates.
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the multi-tenant simulation daemon until "
        "SIGINT/SIGTERM.",
        argument_default=argparse.SUPPRESS,
        allow_abbrev=False,
    )
    parser.add_argument(
        "--port", type=int, default=8080,
        help="listen port; 0 picks a free one (default %(default)s)",
    )
    parser.add_argument("--host", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--cache", dest="cache_dir", metavar="DIR",
        help="on-disk result cache shared with --cell-cache runs "
        "(default none)",
    )
    defaults = ServeDaemon.__init__.__kwdefaults__
    for flag, kind, metavar, text in (
        ("--max-batch", int, "N", "max cells packed into one engine batch"),
        ("--workers", int, "N", "executor threads running batches"),
        ("--max-pending", int, "N", "distinct in-flight cells before new "
         "ones get 429"),
        ("--tenant-rps", float, "R", "per-tenant token-bucket refill rate; "
         "0 turns throttling off"),
        ("--tenant-burst", float, "B", "per-tenant bucket depth, at least 1 "
         "when throttling (default max(1, 2 x RPS))"),
        ("--memory-cells", int, "N", "in-memory result LRU entries"),
        ("--slow-ms", float, "MS", "fixed slow-request floor; 0 flags "
         "requests above --slow-quantile"),
        ("--slow-quantile", float, "Q", "live latency quantile that flags "
         "slow requests"),
    ):
        default = defaults[flag[2:].replace("-", "_")]
        if default is not None:
            text += f" (default {default})"
        parser.add_argument(flag, type=kind, metavar=metavar, help=text)
    parser.add_argument(
        "--no-tracing", dest="tracing", action="store_false",
        help="turn per-request tracing off",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (2)
        return exc.code
    try:
        daemon = ServeDaemon(track_progress=True, **vars(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Bind before announcing, so the printed URL is real.  run_forever
    # resolves port 0 once the server socket exists.
    def _announce() -> None:
        if daemon._start_error is not None:
            return  # run_forever raises it
        cache = daemon.cell_cache.directory if daemon.cell_cache else "off"
        print(
            f"repro serve: listening on {daemon.url} "
            f"(batch={daemon.max_batch}, "
            f"workers={daemon.workers}, cache={cache})",
            flush=True,
        )

    announcer = threading.Thread(
        target=lambda: (daemon._started.wait(30), _announce()),
        name="repro-serve-announce",
        daemon=True,
    )
    announcer.start()
    try:
        daemon.run_forever()
    except KeyboardInterrupt:
        pass
    except OSError as exc:  # the port is taken, the host unknown, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("repro serve: shut down cleanly", flush=True)
    return 0


__all__ = [
    "INJECT_DELAY_ENV",
    "ServeDaemon",
    "ServiceStopped",
    "main",
]
