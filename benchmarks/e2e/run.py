"""End-to-end reproduction benchmark.

Usage::

    python benchmarks/e2e/run.py [--seed N] [--workload NAME ...]
                                 [--seconds S] [--traced] [--repeat N]
                                 [--out DIR] [--write-golden]

Each workload runs the program as a user does, in fresh subprocesses
whose environment has every ``REPRO_*`` variable removed and whose
caches live in a temporary directory of their own:

* ``cold`` — ``python -m repro.experiments`` on empty trace, cell and
  native caches;
* ``warm`` — the same command on the caches a ``cold`` run left behind;
* ``grid-telemetry`` — ``fig12 --jobs 2`` on a warm trace cache and an
  empty cell cache, with the ``--metrics`` and ``--trace`` exports;
* ``serve-zipf`` — ``python -m repro serve`` answering 6000 zipf(1.1)
  requests from 2 keep-alive closed-loop connections (schedule seeded
  by ``--seed``).

A run first sets up (five fresh ``import repro.experiments``, or five
daemon starts to the first ``/healthz`` 200), then repeats the workload
until ``--seconds`` are spent (at least once) and reports medians.
Every artefact, export and response is checked against
``golden.json``.  ``--traced`` (``--trace 1``) alternates untraced and
:mod:`traced` runs and reports the per-layer metrics instead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics when traced).  Results,
with a machine fingerprint, go to ``benchmarks/out/e2e/results.json``.
"""

from __future__ import annotations

import argparse
import ast
import asyncio
import hashlib
import http.client
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = ROOT / "benchmarks" / "out" / "e2e"
GOLDEN = HERE / "golden.json"
TRACED = HERE / "traced.py"
PY = sys.executable

WORKLOADS = ("cold", "warm", "grid-telemetry", "serve-zipf")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0

# serve-zipf request mix; README.md explains the choice.
SERVE_REQUESTS = 6000
SERVE_CONNECTIONS = 2
SERVE_TENANTS = 4
SERVE_ZIPF_S = 1.1
SERVE_POPULATION = 224
SERVE_WARPS = 8
SERVE_INSTRUCTIONS = 1000
SERVE_CELL_SEED = 42
SERVE_STAGES = ("admission", "queue_wait", "disk_lookup", "trace_expand",
                "compile", "sim", "cache_publish", "serialize",
                "unattributed")

#: Paper values the repository quotes (EXPERIMENTS.md, Table III data).
PAPER = {
    "table3_mismatches": 0,
    "fig12_lmi_mean_pct": 0.22,
    "fig12_baggy_mean_pct": 87.0,
    "fig12_gpushield_needle_pct": 42.5,
    "fig13_lmi_dbi_geomean_x": 72.95,
    "fig13_memcheck_geomean_x": 32.98,
}

# ----------------------------------------------------------------------
# Statistics


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(
    n: int, candidates: Sequence[float] = (50, 90, 95, 99, 99.9)
) -> Optional[float]:
    """Highest percentile with at least ten of *n* samples beyond it."""
    usable = [q for q in candidates if n * (100.0 - q) / 100.0 >= 10]
    return max(usable) if usable else None


# ----------------------------------------------------------------------
# Golden outputs

_HEADER = "=" * 72
_VOLATILE = re.compile(
    r"^(?:\[.* done in .*\]|\[fabric\] .*|\[.* written to .*\])$"
)


def artefact_blocks(stdout: str) -> Dict[str, str]:
    """Each artefact's stdout block, without its volatile lines.

    A block starts after the ``====`` / ``<name> (...)`` / ``====``
    header.  Timing (``[... done in ...]``), fabric summary and export
    path lines are dropped, as are surrounding blank lines.
    """
    blocks: Dict[str, List[str]] = {}
    lines = stdout.splitlines()
    current: Optional[List[str]] = None
    index = 0
    while index < len(lines):
        if (
            lines[index] == _HEADER
            and index + 2 < len(lines)
            and lines[index + 2] == _HEADER
        ):
            current = blocks[lines[index + 1].split()[0]] = []
            index += 3
            continue
        if current is not None and not _VOLATILE.match(lines[index]):
            current.append(lines[index])
        index += 1
    return {
        name: "\n".join(body).strip("\n") + "\n"
        for name, body in blocks.items()
    }


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def cell_key(cell: Dict[str, object]) -> str:
    return "/".join(str(cell[k]) for k in (
        "benchmark", "mechanism", "warps", "instructions_per_warp",
        "seed_salt",
    ))


def response_digest(document: Dict[str, object]) -> str:
    """Digest of the simulated answer in one serve response."""
    return sha256(json.dumps(
        [document["cycles"], document["stats"]], sort_keys=True
    ))


def serve_digest(cells: Dict[str, str]) -> str:
    """One digest over every (cell, cycles, stats), sorted by cell."""
    return sha256("".join(f"{key} {cells[key]}\n" for key in sorted(cells)))


class Golden:
    """Checks outputs against ``golden.json``, or records them."""

    def __init__(self, path: Path, record: bool) -> None:
        self.path = path
        self.record = record
        if record:
            self.doc = {"artefacts": {}, "exports": {},
                        "serve": {"cells": {}}}
        else:
            self.doc = json.loads(path.read_text())
            serve = self.doc["serve"]
            if serve_digest(serve["cells"]) != serve["digest"]:
                raise RuntimeError(f"{path}: serve cells do not match "
                                   "their combined digest")

    def table(self, section: str) -> Dict[str, str]:
        return self.doc["serve"]["cells"] if section == "serve" \
            else self.doc[section]

    def check(self, section: str, key: str, digest: str) -> bool:
        table = self.table(section)
        if self.record:
            if table.setdefault(key, digest) != digest:
                raise RuntimeError(f"{section} {key}: output not deterministic")
            return True
        return table.get(key) == digest

    def save(self) -> None:
        cells = dict(sorted(self.doc["serve"]["cells"].items()))
        if len(cells) != SERVE_POPULATION:
            raise RuntimeError("golden: record serve-zipf with the others")
        self.doc["serve"] = {"digest": serve_digest(cells), "cells": cells}
        self.path.write_text(json.dumps(self.doc, indent=1) + "\n")


# ----------------------------------------------------------------------
# Processes


def child_env(tmp: Path, native: Path) -> Dict[str, str]:
    """The caller's environment minus ``REPRO_*``, pointed at *tmp*."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    env["REPRO_NATIVE_CACHE"] = str(native)
    tmp.mkdir(parents=True, exist_ok=True)
    return env


@dataclass
class Exit:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(argv: List[str], env: Dict[str, str], log: Path):
    with open(log, "wb") as out:
        return subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,
        )


def reap(proc, started: float, timeout: float = CHILD_TIMEOUT_S) -> Exit:
    """Wait for *proc*, killing its session after *timeout* seconds.

    ``os.wait4`` reports the CPU time and peak RSS of the process and
    of every descendant it waited for (the fabric's pool workers).
    """

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


# ----------------------------------------------------------------------
# Samples and per-layer metrics


@dataclass
class Sample:
    """One timed execution of a workload."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    blocks: Dict[str, str] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


def layer_metrics(
    spans_dir: Path, pid: int, spawned: float, wall_s: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced process tree rooted at *pid*,
    spawned at perf_counter instant *spawned* and reaped *wall_s*
    later."""
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import traced

    records = traced.read_records(str(spans_dir))
    times = traced.layer_times(records)
    count = traced.counters(records)

    def self_s(name: str) -> float:
        return times.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return times.get(name, {}).get("calls", 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    names = {
        (record["pid"], span[0]): span[2]
        for record in records for span in record["spans"]
    }
    synthesized_by_cache = sum(
        1
        for record in records
        for _, parent, name, _, _, _ in record["spans"]
        if name == "workloads.synthesize"
        and names.get((record["pid"], parent)) == "workloads.trace_cache"
    )
    worker = times.get("fabric.worker", {"total_s": 0.0, "self_s": 0.0})
    ffi_calls = count.get("sim.native.ffi_calls", 0)
    hits = count.get("fabric.cell_cache.hits", 0)
    process = traced.process_times(records, pid, spawned, spawned + wall_s)
    out = {
        f"{name}.wall_s": entry["total_s"]
        for name, entry in times.items() if name.startswith("experiments.")
    }
    out.update({
        "python.startup_s": process["startup_s"],
        "python.exit_s": process["exit_s"],
        "import.self_s": self_s("import"),
        "workloads.synthesize.calls": calls("workloads.synthesize"),
        "workloads.synthesize.self_s": self_s("workloads.synthesize"),
        "workloads.trace_cache.hit_ratio": ratio(
            calls("workloads.trace_cache") - synthesized_by_cache,
            calls("workloads.trace_cache"),
        ),
        "workloads.trace_cache.self_s": self_s("workloads.trace_cache"),
        "sim.tracefile.load.self_s": self_s("sim.tracefile.load"),
        "sim.tracefile.dump.self_s": self_s("sim.tracefile.dump"),
        "sim.core.self_s": self_s("sim.core"),
        "sim.columnar.plan.calls": calls("sim.columnar.plan"),
        "sim.columnar.plan.self_s": self_s("sim.columnar.plan"),
        "sim.columnar.pyloop.self_s": self_s("sim.columnar.pyloop"),
        "sim.codegen.compiles": count.get("sim.codegen.compiles", 0),
        "sim.codegen.load_cell.self_s": self_s("sim.codegen.load_cell"),
        "sim.native.ffi_calls": ffi_calls,
        "sim.native.cells_per_call": ratio(
            count.get("sim.native.ffi_cells", 0), ffi_calls
        ),
        "sim.native.self_s": self_s("sim.native"),
        "sim.native.minstr_per_s": ratio(
            count.get("sim.native.instructions", 0) / 1e6,
            self_s("sim.native"),
        ),
        "sim.native.fallbacks": count.get("sim.native.fallbacks", 0),
        "security.evaluate.self_s": self_s("security.evaluate"),
        "engine.run_sim_jobs.self_s": self_s("engine.run_sim_jobs"),
        "engine.run_jobs_batched.self_s": self_s("engine.run_jobs_batched"),
        "fabric.cell_digest.self_s": self_s("fabric.cell_digest"),
        "fabric.cell_cache.load.calls": calls("fabric.cell_cache.load"),
        "fabric.cell_cache.load.self_s": self_s("fabric.cell_cache.load"),
        "fabric.cell_cache.hit_ratio": ratio(
            hits, hits + count.get("fabric.cell_cache.misses", 0)
        ),
        "fabric.cell_cache.store.self_s": self_s("fabric.cell_cache.store"),
        "fabric.run_grid.self_s": self_s("fabric.run_grid"),
        "fabric.pool.self_s": self_s("fabric.pool"),
        "fabric.cells_executed": count.get("fabric.cells_executed", 0),
        "fabric.cells_skipped": count.get("fabric.cells_skipped", 0),
        "fabric.cells_stolen": count.get("fabric.cells_stolen", 0),
        "fabric.worker.busy_s": worker["total_s"] - worker["self_s"],
        "fabric.worker.idle_frac": ratio(worker["self_s"], worker["total_s"]),
        "telemetry.export.self_s": self_s("telemetry.export"),
        "telemetry.export.bytes": count.get("telemetry.export.bytes", 0),
        "telemetry.events_emitted": count.get("telemetry.events_emitted", 0),
        "trace.unattributed_frac": ratio(process["unattributed_s"], wall_s),
    })
    return out


# ----------------------------------------------------------------------
# Workloads


class Context:
    """Per-run state: scratch directory, seed and golden checker."""

    def __init__(self, seed: int, golden: Golden, scratch: Path) -> None:
        self.seed = seed
        self.golden = golden
        self.scratch = scratch
        self.serial = 0

    def fresh(self, label: str) -> Path:
        self.serial += 1
        path = self.scratch / f"{self.serial:03d}-{label}"
        path.mkdir(parents=True)
        return path


class CliWorkload:
    """``python -m repro.experiments ARGS``, timed spawn to exit."""

    def setup(self, ctx: Context) -> List[float]:
        """Wall times of fresh ``import repro.experiments`` processes."""
        work = ctx.fresh("setup")
        env = child_env(work / "tmp", work / "n")
        samples = []
        for index in range(SETUP_SAMPLES):
            started = time.perf_counter()
            done = reap(spawn([PY, "-c", "import repro.experiments"], env,
                              work / f"import-{index}.log"), started)
            if done.code:
                raise RuntimeError("import repro.experiments failed")
            samples.append(done.wall_s)
        shutil.rmtree(work)
        return samples

    def prepare(self, ctx: Context) -> None:
        pass

    def iterate(self, ctx: Context, traced: bool) -> Sample:
        raise NotImplementedError

    def execute(
        self,
        ctx: Context,
        traced: bool,
        native: Path,
        argv_for: Callable[[Path], List[str]],
        artefacts: Sequence[str] = (),
        exports: bool = False,
    ) -> Sample:
        """Run once in a fresh work dir and check every output.

        *argv_for* builds the arguments from the work dir (where the
        exports go).  *artefacts* names the stdout blocks to check;
        empty means every artefact in the golden file.
        """
        work = ctx.fresh("run")
        env = child_env(work / "tmp", native)
        spans = work / "spans"
        prefix = ([PY, str(TRACED), str(spans), "experiments"] if traced
                  else [PY, "-m", "repro.experiments"])
        started = time.perf_counter()
        proc = spawn(prefix + argv_for(work), env, work / "stdout.txt")
        done = reap(proc, started)
        blocks = artefact_blocks(
            (work / "stdout.txt").read_text(errors="replace")
        )
        if ctx.golden.record:
            artefacts = list(blocks)
        elif not artefacts:
            artefacts = list(ctx.golden.table("artefacts"))
        checks = [
            done.code == 0 and name in blocks
            and ctx.golden.check("artefacts", name, sha256(blocks[name]))
            for name in artefacts
        ]
        if exports:
            for kind in ("metrics", "trace"):
                path = work / f"{kind}.json"
                checks.append(
                    done.code == 0 and path.exists()
                    and ctx.golden.check("exports", kind,
                                         sha256(path.read_bytes()))
                )
        latency_ms = done.wall_s * 1000.0
        sample = Sample(
            metrics={
                "wall_s": done.wall_s, "cpu_s": done.cpu_s,
                "peak_rss_mb": done.peak_rss_mb,
                "p50_ms": latency_ms, "p99_ms": latency_ms,
            },
            attempted=len(checks),
            failed=checks.count(False),
            blocks=blocks,
        )
        if traced and done.code == 0:
            sample.layers = layer_metrics(spans, proc.pid, started,
                                          done.wall_s)
        shutil.rmtree(work)
        return sample


def _cache_flags(caches: Path) -> List[str]:
    return ["--trace-cache", str(caches / "t"),
            "--cell-cache", str(caches / "c")]


class Cold(CliWorkload):
    """A first reproduction: all caches start empty, every cell runs."""

    def iterate(self, ctx: Context, traced: bool) -> Sample:
        caches = ctx.fresh("caches")
        try:
            return self.execute(ctx, traced, caches / "n",
                                lambda work: _cache_flags(caches))
        finally:
            shutil.rmtree(caches)


class Warm(CliWorkload):
    """The incremental rerun on the caches a cold run left behind."""

    def prepare(self, ctx: Context) -> None:
        # The caches are content-addressed, so filling them on the pool
        # stores the same entries as the serial cold command, sooner.
        self.caches = ctx.fresh("caches")
        prep = self.execute(ctx, False, self.caches / "n", lambda work: [
            "--jobs", "2", *_cache_flags(self.caches),
        ])
        if prep.failed:
            raise RuntimeError("warm: the cold run that fills the caches failed")

    def iterate(self, ctx: Context, traced: bool) -> Sample:
        return self.execute(ctx, traced, self.caches / "n",
                            lambda work: _cache_flags(self.caches))


class GridTelemetry(CliWorkload):
    """fig12 on the forked pool, telemetry captured and exported."""

    def prepare(self, ctx: Context) -> None:
        self.caches = ctx.fresh("caches")
        fill = self.execute(ctx, False, self.caches / "n", lambda work: [
            "fig12", "--jobs", "2", "--trace-cache", str(self.caches / "t"),
        ], artefacts=("fig12",))
        if fill.failed:
            raise RuntimeError("grid-telemetry: filling the trace cache failed")

    def iterate(self, ctx: Context, traced: bool) -> Sample:
        return self.execute(ctx, traced, self.caches / "n", lambda work: [
            "fig12", "--jobs", "2",
            "--trace-cache", str(self.caches / "t"),
            "--cell-cache", str(work / "c"),
            "--metrics", str(work / "metrics.json"),
            "--trace", str(work / "trace.json"),
        ], artefacts=("fig12",), exports=True)


# -- serve-zipf --------------------------------------------------------


def cpu_split() -> Tuple[Optional[set], Optional[set]]:
    """(daemon CPUs, client CPUs), or (None, None) on one CPU.

    The client gets the last CPU and the daemon the others, as if the
    load came from another machine.  Left to the scheduler, the two
    sometimes share a core and sometimes not, and request latency
    splits into two clusters run to run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return set(cpus[:-1]), {cpus[-1]}


@contextmanager
def pinned(cpus: Optional[set]):
    """Run the calling thread on *cpus* for the duration."""
    if not cpus:
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


class Daemon:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, ctx: Context, native: Path, traced: bool,
                 cpus: Optional[set]) -> None:
        self.work = ctx.fresh("daemon")
        self.spans = self.work / "spans"
        env = child_env(self.work / "tmp", native)
        args = ["--port", "0", "--cache", str(self.work / "cache")]
        argv = ([PY, str(TRACED), str(self.spans), "serve", *args] if traced
                else [PY, "-m", "repro", "serve", *args])
        log = self.work / "daemon.log"
        self.started = time.perf_counter()
        self.proc = spawn(argv, env, log)
        try:
            if cpus:
                # Set before the daemon starts its threads; they inherit it.
                os.sched_setaffinity(self.proc.pid, cpus)
            self.port = self._wait_port(log)
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.started

    def _wait_port(self, log: Path) -> int:
        deadline = time.perf_counter() + 60
        pattern = re.compile(r"listening on http://[^:]+:(\d+)")
        while time.perf_counter() < deadline:
            found = pattern.search(log.read_text(errors="replace"))
            if found:
                return int(found.group(1))
            # Peek without reaping: stop() reaps for the resource usage.
            if os.waitid(os.P_PID, self.proc.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT):
                break
            time.sleep(0.002)
        raise RuntimeError(f"repro serve did not start: see {log}")

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("repro serve never answered /healthz")

    def stop(self) -> Exit:
        # os.kill, not Popen.send_signal: the latter polls, which would
        # reap the process before reap() can read its resource usage.
        os.kill(self.proc.pid, signal.SIGTERM)
        done = reap(self.proc, self.started, timeout=60)
        self.clean = done.code == 0 and "shut down cleanly" in (
            self.work / "daemon.log"
        ).read_text(errors="replace")
        return done


def _request(cell: Dict[str, object], tenant: str) -> bytes:
    body = json.dumps(dict(cell, tenant=tenant), sort_keys=True).encode()
    return (
        "POST /v1/simulate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


async def _response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


@dataclass
class Sweep:
    wall_s: float
    latencies_ms: List[float]
    sources: List[str]
    failed: int


async def sweep(
    port: int,
    requests: List[Tuple[str, bytes]],
    golden: Golden,
    connections: int = SERVE_CONNECTIONS,
) -> Sweep:
    """Send *requests* over closed-loop keep-alive connections.

    Each connection sends its next request only after the previous
    reply.  A request fails on a transport error, a non-200 status or
    an answer that differs from the golden digest of its cell.
    """
    latencies: List[float] = []
    sources: List[str] = []
    failed = 0
    cursor = 0

    async def client() -> None:
        nonlocal cursor, failed
        reader = writer = None
        while cursor < len(requests):
            key, payload = requests[cursor]
            cursor += 1
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                began = time.perf_counter()
                writer.write(payload)
                status, body = await asyncio.wait_for(_response(reader), 60)
                latency = (time.perf_counter() - began) * 1000.0
                document = json.loads(body) if status == 200 else None
            except (OSError, ValueError, IndexError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                failed += 1
                if writer is not None:
                    writer.close()
                reader = writer = None
                continue
            if document is None or not golden.check(
                "serve", key, response_digest(document)
            ):
                failed += 1
                continue
            latencies.append(latency)
            sources.append(document["source"])
        if writer is not None:
            writer.close()
            await writer.wait_closed()

    began = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(connections)))
    return Sweep(time.perf_counter() - began, latencies, sources, failed)


class ServeZipf:
    """The daemon under a zipf, multi-tenant, closed-loop request mix."""

    def setup(self, ctx: Context) -> List[float]:
        """Daemon spawn-to-``/healthz`` times; the first also compiles
        the native kernels the sweep uses, into the shared cache."""
        sys.path.insert(0, str(ROOT / "src"))
        from repro.serve.loadgen import build_cells, zipf_schedule

        self.cells = build_cells(
            SERVE_POPULATION, warps=SERVE_WARPS,
            instructions_per_warp=SERVE_INSTRUCTIONS, seed=SERVE_CELL_SEED,
        )
        schedule = zipf_schedule(SERVE_REQUESTS, len(self.cells),
                                 s=SERVE_ZIPF_S, seed=ctx.seed)
        self.requests = [
            (cell_key(self.cells[i]),
             _request(self.cells[i], f"tenant-{n % SERVE_TENANTS}"))
            for n, i in enumerate(schedule)
        ]
        self.native = ctx.fresh("native")
        self.daemon_cpus, self.client_cpus = cpu_split()
        samples = []
        for index in range(SETUP_SAMPLES):
            daemon = Daemon(ctx, self.native, False, self.daemon_cpus)
            samples.append(daemon.setup_s)
            if index == 0:
                # One cell per mechanism builds both kernel variants.
                warmup = [(cell_key(cell), _request(cell, "warmup"))
                          for cell in self.cells[:4]]
                asyncio.run(sweep(daemon.port, warmup, ctx.golden, 1))
            daemon.stop()
            shutil.rmtree(daemon.work)
        return samples

    def prepare(self, ctx: Context) -> None:
        pass

    def iterate(self, ctx: Context, traced: bool) -> Sample:
        daemon = Daemon(ctx, self.native, traced, self.daemon_cpus)
        stats: Dict[str, object] = {}
        try:
            with pinned(self.client_cpus):
                result = asyncio.run(
                    sweep(daemon.port, self.requests, ctx.golden)
                )
            if ctx.golden.record:
                seen = {key for key, _ in self.requests}
                rest = [(cell_key(c), _request(c, "golden"))
                        for c in self.cells if cell_key(c) not in seen]
                asyncio.run(sweep(daemon.port, rest, ctx.golden, 1))
            if traced:
                stats = json.loads(daemon.get("/stats")[1])
        finally:
            done = daemon.stop()
        failed = result.failed + (0 if daemon.clean else 1)
        lat = result.latencies_ms or [0.0]
        sample = Sample(
            metrics={
                "wall_s": result.wall_s, "cpu_s": done.cpu_s,
                "peak_rss_mb": done.peak_rss_mb,
                "p50_ms": percentile(lat, 50), "p99_ms": percentile(lat, 99),
            },
            attempted=len(self.requests),
            failed=min(failed, len(self.requests)),
        )
        if traced:
            sample.layers = layer_metrics(daemon.spans, daemon.proc.pid,
                                          daemon.started, done.wall_s)
            sample.layers.update(serve_layers(stats, result))
        shutil.rmtree(daemon.work)
        return sample


def serve_layers(stats: Dict[str, object], result: Sweep) -> Dict[str, float]:
    """Serving-plane layers: the daemon's ``/stats`` plus the client's
    latency split by response source."""
    responses = stats.get("responses", {})
    out = {
        "serve.hit_ratio": stats.get("hit_rate", 0.0),
        "serve.executed": responses.get("executed", 0),
        "serve.coalesced": responses.get("coalesced", 0),
        "serve.batch_occupancy": stats.get("batch_occupancy", 0.0),
    }
    stages = stats.get("stages", {})
    for stage in SERVE_STAGES:
        for q in ("p50", "p99"):
            out[f"serve.stage.{stage}.{q}_ms"] = (
                stages.get(stage, {}).get(q) or 0.0
            )
    for kind, hit in (("hit", True), ("miss", False)):
        values = [
            latency
            for latency, source in zip(result.latencies_ms, result.sources)
            if (source in ("memory", "disk")) == hit
        ]
        out[f"serve.client.{kind}_p50_ms"] = (
            percentile(values, 50) if values else 0.0
        )
    return out


WORKLOAD_TYPES = {
    "cold": Cold,
    "warm": Warm,
    "grid-telemetry": GridTelemetry,
    "serve-zipf": ServeZipf,
}


# ----------------------------------------------------------------------
# One run of one workload


@dataclass
class Run:
    workload: str
    seed: int
    setup_s: List[float]
    samples: List[Sample]
    untraced: List[Sample]
    seconds: float

    @property
    def attempted(self) -> int:
        return sum(s.attempted for s in self.samples + self.untraced)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.samples + self.untraced)

    def series(self, traced: bool) -> Dict[str, List[float]]:
        """Metric name -> the values of every sample."""
        if traced:
            out: Dict[str, List[float]] = {}
            for sample in self.samples:
                for name, value in sample.layers.items():
                    out.setdefault(name, []).append(value)
            walls = [s.metrics["wall_s"] for s in self.samples]
            bases = [s.metrics["wall_s"] for s in self.untraced]
            if bases:
                out["trace.overhead_frac"] = [
                    statistics.median(walls) / statistics.median(bases) - 1.0
                ]
            return out
        out = {"setup_s": list(self.setup_s)}
        for sample in self.samples:
            for name, value in sample.metrics.items():
                out.setdefault(name, []).append(value)
        return out


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 golden: Golden) -> Run:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT / "tmp"))
    ctx = Context(seed, golden, scratch)
    workload = WORKLOAD_TYPES[name]()
    try:
        setup_s = workload.setup(ctx)
        workload.prepare(ctx)
        samples: List[Sample] = []
        untraced: List[Sample] = []
        began = time.perf_counter()
        while True:
            if traced:
                untraced.append(workload.iterate(ctx, False))
            samples.append(workload.iterate(ctx, traced))
            spent = time.perf_counter() - began
            if spent + spent / len(samples) > seconds:
                break
        return Run(name, seed, setup_s, samples, untraced,
                   time.perf_counter() - began)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# Reporting


def load_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: List[float]) -> Dict[str, float]:
    return {"value": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def fidelity(blocks: Dict[str, str]) -> List[Tuple[str, float, float]]:
    """(quantity, paper, model) for the paper values the repo quotes."""
    rows: List[Tuple[str, float, float]] = []
    table3 = blocks.get("table3", "")
    if table3:
        last = table3.strip().splitlines()[-1]
        diverging = (0 if last == "all cells match the paper" else
                     len(ast.literal_eval(last.split(":", 1)[1].strip())))
        rows.append(("Table III mismatching cells",
                     PAPER["table3_mismatches"], diverging))
    fig12 = blocks.get("fig12", "")
    means = dict(re.findall(r"^(\w+): mean overhead ([\d.]+)%", fig12, re.M))
    needle = re.search(r"^needle\s+[\d.]+\s+([\d.]+)", fig12, re.M)
    if means and needle:
        rows += [
            ("Fig. 12 LMI mean overhead %", PAPER["fig12_lmi_mean_pct"],
             float(means["lmi"])),
            ("Fig. 12 Baggy mean overhead %", PAPER["fig12_baggy_mean_pct"],
             float(means["baggy"])),
            ("Fig. 12 GPUShield needle overhead %",
             PAPER["fig12_gpushield_needle_pct"],
             round((float(needle.group(1)) - 1.0) * 100.0, 2)),
        ]
    geomean = re.search(r"^geomean\s+([\d.]+)x\s+([\d.]+)x",
                        blocks.get("fig13", ""), re.M)
    if geomean:
        rows += [
            ("Fig. 13 LMI-DBI geomean x", PAPER["fig13_lmi_dbi_geomean_x"],
             float(geomean.group(1))),
            ("Fig. 13 memcheck geomean x", PAPER["fig13_memcheck_geomean_x"],
             float(geomean.group(2))),
        ]
    return rows


def fingerprint() -> Dict[str, object]:
    """The machine and source a result was measured on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def first_line(argv: List[str]) -> Optional[str]:
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        lines = done.stdout.strip().splitlines()
        return lines[0] if done.returncode == 0 and lines else None

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cc": first_line(["cc", "--version"]),
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
        "platform": platform.platform(),
    }


def print_run(run: Run, traced: bool, units: Dict[str, str]) -> None:
    kind = "traced" if traced else "untraced"
    print(f"== {run.workload}  seed={run.seed}  {kind}  "
          f"{len(run.samples)} sample(s) in {run.seconds:.1f}s ==")
    print(f"{'metric':42s} {'unit':>8s} {'median':>12s} {'min':>12s} "
          f"{'max':>12s} {'n':>5s}")
    for name, values in run.series(traced).items():
        stats = summarize(values)
        print(f"{name:42s} {units.get(name, ''):>8s} {stats['value']:12.4f} "
              f"{stats['min']:12.4f} {stats['max']:12.4f} {stats['n']:5d}")
    if run.workload == "serve-zipf" and not traced:
        walls = [s.metrics["wall_s"] for s in run.samples]
        print(f"  serve rate {SERVE_REQUESTS / statistics.median(walls):.1f} "
              f"req/s; p99 has {tail_percentile(SERVE_REQUESTS)}th-percentile"
              f" support ({SERVE_REQUESTS} requests per sweep)")
    print(f"  outputs: {run.attempted - run.failed}/{run.attempted} match "
          f"the golden digests (failed_frac "
          f"{run.failed / max(1, run.attempted):.4f})")


def print_fidelity(blocks: Dict[str, str]) -> None:
    rows = fidelity(blocks)
    if not rows:
        return
    print("== fidelity: model vs paper (model not validated against "
          "hardware) ==")
    for quantity, paper, model in rows:
        error = model - paper
        relative = f"{error / paper * 100:+.1f}%" if paper else "-"
        print(f"  {quantity:38s} paper {paper:>8} model {model:>8} "
              f"error {error:+.2f} ({relative})")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, default=OUT)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM so every child is killed, reaped and cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    traced = args.traced or args.trace == 1
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    golden = Golden(GOLDEN, record=args.write_golden)
    kind = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}

    runs: List[Run] = []
    blocks: Dict[str, str] = {}
    for index in range(args.repeat):
        for name in workloads:
            run = run_workload(name, args.seed + index, seconds, traced,
                               golden)
            runs.append(run)
            for sample in run.samples:
                blocks.update(sample.blocks)
            print_run(run, traced, units)
    print_fidelity(blocks)
    if args.write_golden:
        golden.save()
        print(f"golden digests written to {GOLDEN}")

    results = {"schema": "repro.e2e.results/v1",
               "fingerprint": fingerprint(), "traced": traced,
               "seconds": seconds, "workloads": {}}
    for run in runs:
        results["workloads"].setdefault(run.workload, {"runs": []})[
            "runs"].append({
                "seed": run.seed,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: dict(summarize(values), unit=units.get(name, ""))
                    for name, values in run.series(traced).items()
                },
            })
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(json.dumps(results, indent=1) + "\n")

    metrics = {}
    for name in workloads:
        per_run = [r.series(traced) for r in runs if r.workload == name]
        for metric in spec[kind]:
            values = [statistics.median(s.get(metric["name"], [0.0]))
                      for s in per_run]
            key = metric["name"] if len(workloads) == 1 \
                else f"{name}/{metric['name']}"
            metrics[key] = {"value": statistics.median(values),
                            "unit": metric["unit"]}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
