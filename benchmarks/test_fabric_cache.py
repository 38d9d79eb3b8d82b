"""Bench: experiment-fabric cell cache → ``BENCH_fabric.json``.

Times the content-addressed cell cache over a fig12 sub-grid:

1. **Cold.**  A fresh cache directory: every cell synthesizes its
   trace, simulates, and publishes its record (atomic tmp +
   ``os.replace``).
2. **Warm.**  The same grid again: every cell must be served from the
   cache (skip count == grid size, zero executions) and the rerun must
   be **≥10× faster** than the cold run — the fabric's headline
   number.  The regenerated table must equal the cold run's exactly.
3. **Sharded.**  ``--shard 0/2`` against a second fresh cache with no
   peer running and a zero wait: the owned half executes normally and
   the foreign half is computed locally as a steal of last resort, so
   the archived steal count equals half the grid.  A follow-up
   ``--shard 1/2`` pass over the now-complete cache must skip
   everything — the two-shard merge picture in one process.

The document lands in ``benchmarks/out/BENCH_fabric.json`` with the
wall times, speedup, cache hit/miss/store statistics, and the
skip/steal/redispatch counters per phase.  ``REPRO_BENCH_FAST=1``
shrinks the grid for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from conftest import OUT_DIR, record_run

from repro.experiments import run_fig12
from repro.experiments.fabric import (
    CellCache,
    fabric_counters,
    reset_fabric_counters,
)
from repro.telemetry.runtime import TELEMETRY

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

BENCHMARKS = (
    ("gaussian", "needle", "LSTM") if FAST
    else ("gaussian", "needle", "LSTM", "bert", "hotspot", "bfs")
)
WARPS, INSTRUCTIONS = (8, 600) if FAST else (16, 1200)
CELLS = len(BENCHMARKS) * 4  # mechanisms: baseline, baggy, gpushield, lmi

#: The warm rerun must beat the cold run by at least this factor.
WARM_SPEEDUP_FLOOR = 10.0


def _grid(cache, shard=None):
    started = time.perf_counter()
    result = run_fig12(
        BENCHMARKS, warps=WARPS, instructions_per_warp=INSTRUCTIONS,
        jobs=1, cache=cache, shard=shard,
    )
    return result.format_table(), time.perf_counter() - started


def test_fabric_cache():
    saved_enabled = TELEMETRY.enabled
    # Telemetry off: the phases must time the data plane (simulate vs
    # load-from-cache), not per-issue event capture; the fabric's
    # telemetry replay equivalence is locked by tests/test_fabric.py.
    TELEMETRY.enabled = False
    try:
        with tempfile.TemporaryDirectory(prefix="fabric-bench-") as tmp:
            cache = CellCache(os.path.join(tmp, "cells"))

            reset_fabric_counters()
            cold_table, cold_seconds = _grid(cache)
            cold_counts = fabric_counters()

            reset_fabric_counters()
            warm_table, warm_seconds = _grid(cache)
            warm_counts = fabric_counters()
            cache_stats = cache.stats

            # Sharded phase: fresh cache, no peer, zero wait — the
            # foreign half is taken over locally and counted stolen.
            shard_cache = CellCache(os.path.join(tmp, "shard-cells"))
            reset_fabric_counters()
            shard_table, shard_seconds = _grid(shard_cache, (0, 2))
            shard_counts = fabric_counters()

            reset_fabric_counters()
            merged_table, merged_seconds = _grid(shard_cache, (1, 2))
            merged_counts = fabric_counters()
    finally:
        TELEMETRY.enabled = saved_enabled

    speedup = cold_seconds / warm_seconds
    document = {
        "benchmark": "fabric_cache",
        "fast": FAST,
        "grid": {
            "benchmarks": list(BENCHMARKS),
            "warps": WARPS,
            "instructions_per_warp": INSTRUCTIONS,
            "cells": CELLS,
        },
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(speedup, 2),
        "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
        "cache": {
            "hits": cache_stats.hits,
            "misses": cache_stats.misses,
            "stores": cache_stats.stores,
            "corrupt": cache_stats.corrupt,
        },
        "phases": {
            "cold": cold_counts,
            "warm": warm_counts,
            "shard_0_of_2": dict(
                shard_counts, wall_seconds=round(shard_seconds, 4)
            ),
            "shard_1_of_2_merged": dict(
                merged_counts, wall_seconds=round(merged_seconds, 4)
            ),
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_fabric.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\n[fabric_cache] archived to {path}")
    print(json.dumps(document, indent=2, sort_keys=True))

    record_run(
        "fabric_cache",
        config={"fast": FAST, "cells": CELLS},
        counters=dict(warm_counts),
        metrics={
            "throughput": CELLS / warm_seconds,
            "warm_speedup": speedup,
        },
        wall_seconds=cold_seconds,
    )

    # The cache must be invisible in the results...
    assert warm_table == cold_table
    assert shard_table == cold_table
    assert merged_table == cold_table
    # ...fully effective on the rerun...
    assert cold_counts["cells_executed"] == CELLS
    assert warm_counts["cells_skipped"] == CELLS
    assert warm_counts["cells_executed"] == 0
    # ...correctly attributed in shard mode...
    assert shard_counts["cells_executed"] == CELLS
    assert shard_counts["cells_stolen"] == CELLS // 2
    assert merged_counts["cells_skipped"] == CELLS
    # ...and worth its keep.
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm rerun only {speedup:.1f}x faster than cold "
        f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s); "
        f"floor is {WARM_SPEEDUP_FLOOR}x"
    )
