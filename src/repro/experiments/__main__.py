"""Run every experiment and print the full reproduction report.

Usage::

    python -m repro.experiments            # full run (~1 minute)
    python -m repro.experiments --fast     # reduced trace sizes
    python -m repro.experiments fig4 table3   # selected experiments

Performance flags::

    python -m repro.experiments fig12 --fast --jobs 4   # worker processes
    python -m repro.experiments --trace-cache out/traces  # on-disk traces

Every simulation-backed grid cell (fig12, table2) runs through one
pipeline, :func:`repro.experiments.fabric.run_grid`: in process, the
cells cross the native FFI in batched groups; ``--jobs N`` runs them
on N work-stealing worker processes instead.  Outputs are
byte-identical for any N.  ``--trace-cache DIR`` (or
``REPRO_TRACE_CACHE``) persists synthesized kernel traces, so
repeated runs skip synthesis entirely.

Experiment-fabric flags (see :mod:`repro.experiments.fabric`)::

    python -m repro.experiments fig12 --cell-cache out/cells
    python -m repro.experiments fig12 --cell-cache out/cells --resume
    python -m repro.experiments fig12 --cell-cache out/cells --shard 0/2

``--cell-cache DIR`` (or ``REPRO_CELL_CACHE``) memoizes every
completed grid cell under a content address covering its inputs *and*
the simulation code; unchanged cells are skipped on rerun and their
telemetry replayed byte-identically.  ``--shard i/N`` owns every Nth
cell and polls the shared cache (``REPRO_SHARD_WAIT`` seconds) for
the rest, so N processes/machines split one grid.  ``--resume`` is an
explicit marker for continuing an interrupted run: it requires the
cache, reports how many cells the journal already holds, and the run
recomputes exactly the missing ones.  Exports stay byte-identical for
any (jobs × shards × cache state) combination.

Observability flags (any of them switches telemetry on)::

    python -m repro.experiments fig12 --metrics out/fig12.metrics.json \
        --trace out/fig12.trace.json        # Prometheus/JSON + Perfetto
    python -m repro.experiments --fast --verbose-telemetry
    python -m repro.experiments fig12 --ledger benchmarks/out/ledger.jsonl

``--ledger PATH`` appends one structured record per experiment (git
SHA, config, ``sim.*`` counter deltas, throughput, wall time, phase
attribution) to the JSONL run ledger consumed by ``repro report`` /
``repro report --check``.  Telemetry stays on the fast columnar/native
engines; ``REPRO_TELEMETRY_SAMPLE=1/N`` thins the recorded warp-issue
events deterministically (seed-derived phase, identical for any
``--jobs``).

Live observability (the in-flight view)::

    python -m repro.experiments fig12 --fast --jobs 4 --serve 9155
    REPRO_METRICS_PORT=9155 python -m repro.experiments fig12 --fast

``--serve PORT`` (or ``REPRO_METRICS_PORT``; 0 picks an ephemeral
port) starts the observability HTTP server for the duration of the
run: ``/metrics`` (live Prometheus text), ``/healthz``, ``/progress``
(JSON + SSE stream) — watch it with ``repro top``.  The server is
read-only over telemetry state, so ``--metrics``/``--trace`` exports
stay byte-identical to a no-server run.  ``REPRO_SERVE_LINGER=SECS``
keeps the server (and process) alive that long after the experiments
finish, so scrapers racing a short run still get their snapshot.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, List, Optional

from ..telemetry.export import write_chrome_trace, write_metrics
from ..telemetry.ledger import RunLedger, git_sha
from ..telemetry.progress import PROGRESS
from ..telemetry.runtime import TELEMETRY
from ..telemetry.server import ObservabilityServer, port_from_env
from ..workloads import configure_trace_cache

from .fabric import (
    CELL_CACHE_ENV,
    SHARD_ENV,
    fabric_counters,
    resolve_cell_cache,
    resolve_shard,
)
from .feasibility_study import run_feasibility_study
from .fig1_memory_mix import run_fig1
from .fig4_fragmentation import run_fig4
from .fig12_performance import run_fig12
from .fig13_dbi import run_fig13
from .table2_comparison import run_table2
from .table3_security import mismatches, run_table3
from .table6_hardware import run_table6


def _fig1(fast: bool, jobs: int) -> str:
    scale = dict(warps=2, instructions_per_warp=400) if fast else {}
    return run_fig1(**scale).format_table()


def _fig4(fast: bool, jobs: int) -> str:
    return run_fig4().format_table()


def _fig12(fast: bool, jobs: int) -> str:
    if fast:
        result = run_fig12(warps=8, instructions_per_warp=400, jobs=jobs)
    else:
        result = run_fig12(warps=16, instructions_per_warp=1200, jobs=jobs)
    lines = [result.format_table()]
    for mechanism in ("baggy", "gpushield", "lmi"):
        worst, overhead = result.max_overhead(mechanism)
        lines.append(
            f"{mechanism}: mean overhead "
            f"{result.mean_overhead(mechanism) * 100:.2f}% "
            f"(worst {worst}: {overhead * 100:.1f}%)"
        )
    return "\n".join(lines)


def _fig13(fast: bool, jobs: int) -> str:
    return run_fig13().format_table()


def _table2(fast: bool, jobs: int) -> str:
    return run_table2(fast=True, jobs=jobs).format_table()


def _table3(fast: bool, jobs: int) -> str:
    report = run_table3()
    lines = [report.format_table()]
    diverging = mismatches(report)
    lines.append(
        "all cells match the paper" if not diverging
        else f"DIVERGENCES: {diverging}"
    )
    return "\n".join(lines)


def _table6(fast: bool, jobs: int) -> str:
    return run_table6().format_table()


def _feasibility(fast: bool, jobs: int) -> str:
    return run_feasibility_study().format_table()


EXPERIMENTS: Dict[str, Callable[[bool, int], str]] = {
    "fig1": _fig1,
    "fig4": _fig4,
    "fig12": _fig12,
    "fig13": _fig13,
    "table2": _table2,
    "table3": _table3,
    "table6": _table6,
    "feasibility": _feasibility,
}


class _CliOptions:
    """Parsed command-line state."""

    def __init__(self) -> None:
        self.fast = False
        self.verbose = False
        self.metrics_path: Optional[str] = None
        self.trace_path: Optional[str] = None
        self.ledger_path: Optional[str] = None
        self.trace_cache_dir: Optional[str] = None
        self.jobs = 1
        self.serve_port: Optional[int] = None
        self.cell_cache_dir: Optional[str] = None
        self.shard: Optional[str] = None
        self.resume = False
        self.error: Optional[str] = None
        self.selected: List[str] = []


def _parse_args(argv) -> _CliOptions:
    """Hand-rolled parse (argparse-free, as the seed CLI was)."""
    options = _CliOptions()
    value_flags = (
        "--metrics", "--trace", "--jobs", "--trace-cache",
        "--ledger", "--serve", "--cell-cache", "--shard",
    )
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg == "--fast":
            options.fast = True
        elif arg == "--verbose-telemetry":
            options.verbose = True
        elif arg == "--resume":
            options.resume = True
        elif arg in value_flags or arg.startswith(
            tuple(f"{flag}=" for flag in value_flags)
        ):
            if "=" in arg:
                flag, value = arg.split("=", 1)
            else:
                flag = arg
                if index + 1 >= len(argv):
                    metavar = (
                        "N" if flag == "--jobs"
                        else "PORT" if flag == "--serve"
                        else "PATH"
                    )
                    options.error = f"{flag} requires a {metavar} argument"
                    return options
                index += 1
                value = argv[index]
            if flag == "--metrics":
                options.metrics_path = value
            elif flag == "--trace":
                options.trace_path = value
            elif flag == "--ledger":
                options.ledger_path = value
            elif flag == "--trace-cache":
                options.trace_cache_dir = value
            elif flag == "--cell-cache":
                options.cell_cache_dir = value
            elif flag == "--shard":
                options.shard = value
            elif flag == "--serve":
                try:
                    options.serve_port = int(value)
                except ValueError:
                    options.error = (
                        f"--serve expects a port number, got {value!r}"
                    )
                    return options
                if not 0 <= options.serve_port <= 65535:
                    options.error = "--serve port must be in [0, 65535]"
                    return options
            else:  # --jobs
                try:
                    options.jobs = int(value)
                except ValueError:
                    options.error = f"--jobs expects an integer, got {value!r}"
                    return options
                if options.jobs < 1:
                    options.error = "--jobs must be >= 1"
                    return options
        elif arg.startswith("-"):
            pass  # unknown flags are ignored, as before
        else:
            options.selected.append(arg)
        index += 1
    return options


#: Registry totals tracked per experiment for the run ledger.
_LEDGER_COUNTERS = (
    "sim.instructions",
    "sim.issue_stall_cycles",
    "sim.l1_misses",
    "sim.l2_misses",
    "sim.extra_transactions",
)


def _sim_totals(registry) -> Dict[str, float]:
    """Current ``sim.*`` totals (ledger counter baseline/delta)."""
    return {name: registry.total(name) for name in _LEDGER_COUNTERS}


#: Environment variable holding the post-run server linger in seconds.
SERVE_LINGER_ENV = "REPRO_SERVE_LINGER"


def _serve_linger_seconds() -> float:
    """How long ``--serve`` keeps the server up after the run (>= 0)."""
    raw = os.environ.get(SERVE_LINGER_ENV, "").strip()
    if not raw:
        return 0.0
    try:
        return max(0.0, float(raw))
    except ValueError:
        return 0.0


def main(argv) -> int:
    options = _parse_args(argv)
    if options.error:
        print(options.error)
        return 2
    fast = options.fast
    verbose = options.verbose
    metrics_path = options.metrics_path
    trace_path = options.trace_path
    if options.trace_cache_dir:
        configure_trace_cache(disk_dir=options.trace_cache_dir)
    if options.cell_cache_dir:
        os.environ[CELL_CACHE_ENV] = options.cell_cache_dir
    if options.shard:
        os.environ[SHARD_ENV] = options.shard
        try:
            resolve_shard(options.shard)
        except ValueError as exc:
            print(str(exc))
            return 2
        if not os.environ.get(CELL_CACHE_ENV):
            print("--shard requires --cell-cache (or REPRO_CELL_CACHE): "
                  "shards coordinate through the shared cell cache")
            return 2
    if options.resume:
        cache = resolve_cell_cache()
        if cache is None:
            print("--resume requires --cell-cache (or REPRO_CELL_CACHE): "
                  "resumption replays cells from the cache journal")
            return 2
        print(f"[fabric] resuming: journal holds "
              f"{len(cache.journal_digests())} completed cell(s) "
              f"at {cache.directory}")
    names = options.selected if options.selected else list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choices: {list(EXPERIMENTS)}")
        return 2

    serve_port = options.serve_port
    if serve_port is None:
        try:
            serve_port = port_from_env()
        except ValueError as exc:
            print(str(exc))
            return 2

    ledger_path = options.ledger_path
    telemetry_wanted = bool(
        metrics_path or trace_path or verbose or ledger_path
        or serve_port is not None
    )
    if telemetry_wanted:
        TELEMETRY.configure(enabled=True, deterministic=True)
    ledger = RunLedger(ledger_path) if ledger_path else None
    sha = git_sha() if ledger is not None else None

    PROGRESS.begin_run(
        " ".join(names),
        meta={"fast": fast, "jobs": options.jobs},
    )
    server = None
    if serve_port is not None:
        server = ObservabilityServer(serve_port).start()
        print(
            f"[observability server at {server.url} "
            "(/metrics /healthz /progress)]"
        )

    run_failed = False
    try:
        for name in names:
            started = time.time()
            print("=" * 72)
            print(f"{name}  (repro of the paper's {name.replace('fig', 'Figure ').replace('table', 'Table ')})")
            print("=" * 72)
            counters_before = _sim_totals(TELEMETRY.registry)
            phases_before = PROGRESS.phase_totals()
            fabric_before = fabric_counters()
            with TELEMETRY.span(
                f"experiment:{name}", "experiment", fast=fast
            ):
                print(EXPERIMENTS[name](fast, options.jobs))
            elapsed = time.time() - started
            print(f"[{name} done in {elapsed:.1f}s]\n")
            if ledger is not None:
                counters = {
                    key: value - counters_before[key]
                    for key, value in _sim_totals(TELEMETRY.registry).items()
                }
                phases = {
                    key: value - phases_before.get(key, 0.0)
                    for key, value in PROGRESS.phase_totals().items()
                    if value - phases_before.get(key, 0.0) > 0
                }
                metrics = {}
                if counters.get("sim.instructions", 0) > 0 and elapsed > 0:
                    metrics["throughput"] = (
                        counters["sim.instructions"] / elapsed
                    )
                fabric_delta = {
                    key: value - fabric_before[key]
                    for key, value in fabric_counters().items()
                    if value - fabric_before[key] > 0
                }
                ledger.record(
                    "experiment",
                    name,
                    config={"fast": fast, "jobs": options.jobs},
                    counters=counters,
                    metrics=metrics or None,
                    wall_seconds=elapsed,
                    phases=phases or None,
                    sha=sha,
                    fabric=fabric_delta or None,
                )

        if telemetry_wanted:
            meta = {"experiments": names, "fast": fast}
            export_started = time.perf_counter()
            if metrics_path:
                write_metrics(
                    metrics_path, TELEMETRY.registry,
                    meta=meta, recorder=TELEMETRY.recorder,
                )
                print(f"[metrics written to {metrics_path}]")
            if trace_path:
                write_chrome_trace(trace_path, TELEMETRY.tracer,
                                   TELEMETRY.recorder)
                print(f"[trace written to {trace_path}]")
            if metrics_path or trace_path:
                export_seconds = time.perf_counter() - export_started
                PROGRESS.record_phase("export", export_seconds)
                if ledger is not None:
                    ledger.record(
                        "run",
                        "experiments",
                        config={"fast": fast, "jobs": options.jobs},
                        wall_seconds=export_seconds,
                        phases={"export": export_seconds},
                        sha=sha,
                    )
            if verbose:
                print(TELEMETRY.summary())
        fabric_totals = fabric_counters()
        if any(fabric_totals.values()):
            # One machine-readable line per run; the CI warm-rerun
            # check parses it to assert the cache skip rate.
            total = (
                fabric_totals["cells_executed"]
                + fabric_totals["cells_skipped"]
            )
            print(
                f"[fabric] total={total} "
                f"executed={fabric_totals['cells_executed']} "
                f"skipped={fabric_totals['cells_skipped']} "
                f"stolen={fabric_totals['cells_stolen']} "
                f"redispatched={fabric_totals['cells_redispatched']}"
            )
        if ledger is not None:
            print(f"[ledger updated at {ledger.path}]")
    except BaseException:
        run_failed = True
        raise
    finally:
        PROGRESS.end_run("failed" if run_failed else "done")
        if server is not None:
            linger = _serve_linger_seconds()
            if linger > 0 and not run_failed:
                print(
                    f"[observability server lingering {linger:.0f}s "
                    f"at {server.url}]"
                )
                time.sleep(linger)
            server.stop()
        if telemetry_wanted:
            TELEMETRY.configure(enabled=False)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
