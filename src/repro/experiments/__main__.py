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
byte-identical for any N.  ``--trace-cache DIR`` persists synthesized
kernel traces for the run, so repeated runs skip synthesis entirely.

Experiment-fabric flags (see :mod:`repro.experiments.fabric`)::

    python -m repro.experiments fig12 --cell-cache out/cells
    python -m repro.experiments fig12 --cell-cache out/cells --shard 0/2

``--cell-cache DIR`` memoizes every completed grid cell under a
content address covering its inputs *and* the simulation code;
unchanged cells are skipped on rerun and their telemetry replayed
byte-identically.  Fig. 1 keeps each benchmark's region mix there too,
so a warm rerun synthesizes no trace for it.  ``--shard i/N`` owns
every Nth cell and polls the shared cache (``REPRO_SHARD_WAIT``
seconds) for the rest, so N processes/machines split one grid.  To
continue an interrupted run, rerun the same command: finished cells
were published as they completed, so the rerun recomputes exactly the
missing ones.  Exports stay byte-identical for any (jobs × shards ×
cache state) combination.

Observability flags (any of them switches telemetry on)::

    python -m repro.experiments fig12 --metrics out/fig12.metrics.json \
        --trace out/fig12.trace.json        # Prometheus/JSON + Perfetto
    python -m repro.experiments --fast --verbose-telemetry
    python -m repro.experiments fig12 --ledger benchmarks/out/ledger.jsonl

``--ledger PATH`` appends one structured record per experiment (git
SHA, config, ``sim.*`` counter deltas, throughput, wall time, phase
attribution) to the JSONL run ledger consumed by ``repro report`` /
``repro report --check``.  Telemetry stays on the fast columnar/native
engines, which record one warp-issue event per issued run (identical
for any ``--jobs``).

Live observability (the in-flight view)::

    python -m repro.experiments fig12 --fast --jobs 4 --serve 9155

``--serve PORT`` (0 picks an ephemeral port) starts the observability
HTTP server for the duration of the run: ``/metrics`` (live
Prometheus text), ``/healthz``, ``/progress`` (JSON + SSE stream) —
watch it with ``repro top``.  The server is
read-only over telemetry state, so ``--metrics``/``--trace`` exports
stay byte-identical to a no-server run.  ``REPRO_SERVE_LINGER=SECS``
keeps the server (and process) alive that long after the experiments
finish, so scrapers racing a short run still get their snapshot.

Flags are parsed with ``argparse`` (``--help`` lists them) and
experiment names may sit anywhere between them.  An unknown flag, a
malformed value, or a malformed ``REPRO_SHARD_WAIT`` or
``REPRO_SERVE_LINGER`` exits 2 before any experiment runs.  The flags
hold for one run: :func:`main` hands the cell cache and shard to the
drivers as arguments and restores the trace cache's disk layer when it
returns.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from ..telemetry.export import write_chrome_trace, write_metrics
from ..telemetry.ledger import RunLedger, git_sha
from ..telemetry.progress import PROGRESS
from ..telemetry.runtime import TELEMETRY
from ..telemetry.server import ObservabilityServer
from ..workloads.trace_cache import TRACE_CACHE, configure_trace_cache

from .fabric import (
    env_seconds,
    fabric_counters,
    resolve_cell_cache,
    resolve_shard,
    shard_wait_seconds,
)
from .feasibility_study import run_feasibility_study
from .fig1_memory_mix import run_fig1
from .fig4_fragmentation import run_fig4
from .fig12_performance import run_fig12
from .fig13_dbi import run_fig13
from .table2_comparison import run_table2
from .table3_security import mismatches, run_table3
from .table6_hardware import run_table6

#: How the timing grid runs: the ``jobs``, ``cache`` and ``shard``
#: keywords of ``run_fig12``/``run_table2``, resolved once per run.
Grid = Dict[str, Any]


def _fig1(fast: bool, grid: Grid) -> str:
    scale = dict(warps=2, instructions_per_warp=400) if fast else {}
    return run_fig1(cache=grid["cache"], **scale).format_table()


def _fig4(fast: bool, grid: Grid) -> str:
    return run_fig4().format_table()


def _fig12(fast: bool, grid: Grid) -> str:
    if fast:
        result = run_fig12(warps=8, instructions_per_warp=400, **grid)
    else:
        result = run_fig12(warps=16, instructions_per_warp=1200, **grid)
    lines = [result.format_table()]
    for mechanism in ("baggy", "gpushield", "lmi"):
        worst, overhead = result.max_overhead(mechanism)
        lines.append(
            f"{mechanism}: mean overhead "
            f"{result.mean_overhead(mechanism) * 100:.2f}% "
            f"(worst {worst}: {overhead * 100:.1f}%)"
        )
    return "\n".join(lines)


def _fig13(fast: bool, grid: Grid) -> str:
    return run_fig13().format_table()


def _table2(fast: bool, grid: Grid) -> str:
    return run_table2(fast=True, **grid).format_table()


def _table3(fast: bool, grid: Grid) -> str:
    report = run_table3()
    lines = [report.format_table()]
    diverging = mismatches(report)
    lines.append(
        "all cells match the paper" if not diverging
        else f"DIVERGENCES: {diverging}"
    )
    return "\n".join(lines)


def _table6(fast: bool, grid: Grid) -> str:
    return run_table6().format_table()


def _feasibility(fast: bool, grid: Grid) -> str:
    return run_feasibility_study().format_table()


EXPERIMENTS: Dict[str, Callable[[bool, Grid], str]] = {
    "fig1": _fig1,
    "fig4": _fig4,
    "fig12": _fig12,
    "fig13": _fig13,
    "table2": _table2,
    "table3": _table3,
    "table6": _table6,
    "feasibility": _feasibility,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiments and print the "
        "reproduction report (see the module docstring for details).",
        allow_abbrev=False,
    )
    parser.add_argument(
        "names", nargs="*", metavar="EXPERIMENT",
        help=f"experiments to run (default all: {' '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--fast", action="store_true", help="reduced trace sizes"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="work-stealing worker processes for the grid cells "
        "(default 1: in process)",
    )
    parser.add_argument(
        "--trace-cache", metavar="DIR", help="persist synthesized traces"
    )
    parser.add_argument(
        "--cell-cache", metavar="DIR",
        help="memoize grid cells and Fig. 1's region mixes",
    )
    parser.add_argument(
        "--shard", metavar="I/N",
        help="own every N-th cell of the grid; needs --cell-cache",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", help="write the metrics export"
    )
    parser.add_argument(
        "--trace", metavar="PATH", help="write the Perfetto trace export"
    )
    parser.add_argument(
        "--ledger", metavar="PATH",
        help="append one record per experiment to the run ledger",
    )
    parser.add_argument(
        "--verbose-telemetry", action="store_true",
        help="print the telemetry summary",
    )
    parser.add_argument(
        "--serve", type=int, metavar="PORT",
        help="serve the live observability plane during the run "
        "(0 picks a free port)",
    )
    return parser


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


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    try:
        # Intermixed: experiment names may sit between flags.
        options = parser.parse_intermixed_args(argv)
        if options.jobs < 1:
            parser.error("--jobs must be >= 1")
        if options.serve is not None and not 0 <= options.serve <= 65535:
            parser.error("--serve port must be in [0, 65535]")
    except SystemExit as exc:  # --help (0) or a usage error (2)
        return exc.code
    try:
        # Read again by the grid; fail before it runs.
        shard_wait_seconds()
        linger = env_seconds(SERVE_LINGER_ENV)
        shard = resolve_shard(options.shard)
    except ValueError as exc:
        print(str(exc))
        return 2
    fast = options.fast
    verbose = options.verbose_telemetry
    metrics_path = options.metrics
    trace_path = options.trace
    serve_port = options.serve
    cache = resolve_cell_cache(options.cell_cache)
    if options.shard and cache is None:
        print("--shard requires --cell-cache: "
              "shards coordinate through the shared cell cache")
        return 2
    grid: Grid = {"jobs": options.jobs, "cache": cache, "shard": shard}
    names = options.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choices: {list(EXPERIMENTS)}")
        return 2

    ledger_path = options.ledger
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

    disk_dir = TRACE_CACHE.disk_dir
    run_failed = False
    try:
        if options.trace_cache:
            configure_trace_cache(disk_dir=options.trace_cache)
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
                print(EXPERIMENTS[name](fast, grid))
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
        configure_trace_cache(disk_dir=disk_dir or "")  # "" turns it off
        PROGRESS.end_run("failed" if run_failed else "done")
        if server is not None:
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
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader hung up (`... | head`): send the rest of the output
        # nowhere and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
