"""Bench: experiment-engine throughput → ``BENCH_engine.json``.

Measures the three performance layers this repo's engine stacks:

1. **Scheduler throughput** — simulator instructions/second of
   ``SmSimulator``'s fast path, alongside the linear-scan reference
   oracle so its speedup is tracked release over release.
2. **Trace cache** — lookups over a fig12-style (benchmark ×
   mechanism) grid, where four mechanisms share each synthesis: one
   miss per distinct trace.
3. **Process fan-out** — wall-clock of ``run_fig12`` at ``jobs=1``
   vs ``jobs=4`` (the speedup is machine-dependent: on single-CPU CI
   runners the engine deliberately collapses to the serial path and
   the ratio is ~1.0, which the JSON records via
   ``effective_workers``).

``REPRO_BENCH_FAST=1`` shrinks trace sizes for CI smoke runs.  The
archived document lands in ``benchmarks/out/BENCH_engine.json``.
"""

from __future__ import annotations

import json
import os
import time

from conftest import OUT_DIR

from repro.experiments import run_fig12
from repro.experiments.engine import _effective_workers
from repro.sim import SmSimulator, reference_simulate
from repro.telemetry.runtime import TELEMETRY
from repro.workloads import configure_trace_cache, synthesize_trace
from repro.workloads.trace_cache import TRACE_CACHE

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

#: Trace sizes: (warps, instructions/warp) per measurement section.
SIM_SIZE = (8, 800) if FAST else (16, 2000)
GRID_SIZE = (4, 300) if FAST else (8, 800)
GRID_BENCHMARKS = ("gaussian", "needle", "LSTM", "bert")


def _timed(fn):
    """(seconds, result) with telemetry off, best of three."""
    saved = TELEMETRY.enabled
    TELEMETRY.enabled = False
    try:
        best, result = float("inf"), None
        for _ in range(3 if FAST else 2):
            started = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - started)
        return best, result
    finally:
        TELEMETRY.enabled = saved


def test_engine_throughput():
    warps, instructions = SIM_SIZE
    trace = synthesize_trace(
        "gaussian", warps=warps, instructions_per_warp=instructions
    )

    # 1. Scheduler throughput, production vs reference.
    sim_seconds, sim_result = _timed(lambda: SmSimulator().run(trace))
    ref_seconds, ref_result = _timed(lambda: reference_simulate(trace))
    assert sim_result.cycles == ref_result.cycles  # equivalence, again
    executed = sim_result.stats.instructions
    sim_ips = executed / sim_seconds
    ref_ips = ref_result.stats.instructions / ref_seconds

    # 2. Trace-cache lookups over a (benchmark × mechanism) grid.
    grid_warps, grid_instructions = GRID_SIZE
    configure_trace_cache(clear=True)
    grid_seconds, _ = _timed(
        lambda: run_fig12(
            GRID_BENCHMARKS,
            warps=grid_warps,
            instructions_per_warp=grid_instructions,
            jobs=1,
        )
    )
    cache_stats = TRACE_CACHE.stats
    # Four mechanisms per benchmark share one synthesis, and the
    # repeats from _timed hit the cache: one miss per distinct trace.
    assert cache_stats.misses == len(GRID_BENCHMARKS)

    # 3. jobs=1 vs jobs=4 wall clock (cache warm for both by now).
    jobs1_seconds, _ = _timed(
        lambda: run_fig12(
            GRID_BENCHMARKS,
            warps=grid_warps,
            instructions_per_warp=grid_instructions,
            jobs=1,
        )
    )
    jobs4_seconds, _ = _timed(
        lambda: run_fig12(
            GRID_BENCHMARKS,
            warps=grid_warps,
            instructions_per_warp=grid_instructions,
            jobs=4,
        )
    )

    document = {
        "benchmark": "engine_throughput",
        "fast": FAST,
        "scheduler": {
            "trace": {"warps": warps, "instructions_per_warp": instructions},
            "instructions_per_second": round(sim_ips),
            "reference_instructions_per_second": round(ref_ips),
            "speedup_vs_reference": round(sim_ips / ref_ips, 3),
        },
        "trace_cache": {
            "lookups": cache_stats.lookups,
            "hits": cache_stats.hits,
            "misses": cache_stats.misses,
            "hit_rate": round(cache_stats.hit_rate, 4),
            "disk_hits": cache_stats.disk_hits,
        },
        "jobs": {
            "grid": {
                "benchmarks": list(GRID_BENCHMARKS),
                "warps": grid_warps,
                "instructions_per_warp": grid_instructions,
            },
            "cold_grid_seconds": round(grid_seconds, 4),
            "jobs1_seconds": round(jobs1_seconds, 4),
            "jobs4_seconds": round(jobs4_seconds, 4),
            "jobs4_speedup": round(jobs1_seconds / jobs4_seconds, 3),
            "effective_workers": _effective_workers(4, len(GRID_BENCHMARKS) * 4),
            "cpu_count": os.cpu_count(),
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\n[engine_throughput] archived to {path}")
    print(json.dumps(document, indent=2, sort_keys=True))

    # Sanity floors only — absolute numbers are machine-dependent.
    assert sim_ips > 0 and ref_ips > 0
    assert sim_ips >= ref_ips  # the rewrite must never be slower
    assert jobs4_seconds > 0
