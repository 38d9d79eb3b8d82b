"""Per-cell native codegen suite.

:mod:`repro.sim.codegen` generates one specialized C kernel per
(timing-model, mechanism) cell and caches the compiled object on disk.
This suite locks the contracts the fast path depends on:

* **Spec determinism** — equal :class:`CellSpec`\\ s generate
  byte-identical sources (and therefore share one ``.so``); the
  probe-free mechanisms of one config all collapse to a single cell.
* **Observable fallbacks** — every refusal to run natively is counted
  on :data:`repro.sim.native.NATIVE_DIAG` with a machine-readable
  reason (``no-toolchain``, ``compile-failed``, ``kernel-error``), and
  results stay correct either way.
* **Race-safe disk cache** — concurrent builds of one cell into a
  shared cache directory all succeed (per-key build lock + atomic
  publish), and warm loads never re-invoke the compiler.
* **Custom model coverage** — attribute-only :class:`TimingModel`
  subclasses ride the generated kernels (equivalence vs the locked
  reference, warm-state round-trip, >64-warp wide-mask cells).
* **Batched FFI** — ``run_native_batch`` is result/state/event
  identical to sequential ``run_native``, also when Python threads
  cross the FFI at once, as the serve daemon's executors do.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from repro.common.config import DEFAULT_GPU_CONFIG
from repro.experiments.engine import model_factory
from repro.sim import SmSimulator, native_available
from repro.sim import codegen
from repro.sim.codegen import (
    CACHE_ENV,
    CODEGEN_STATS,
    CellSpec,
    CompiledCell,
    generate_cell_source,
    load_cell,
)
from repro.sim.native import (
    cell_spec_for,
    fallback_counts,
    run_native,
    run_native_batch,
)
from repro.sim.reference import ReferenceSmSimulator
from repro.sim.timing import LmiTiming
from repro.sim.core import SimStats
from repro.workloads import synthesize_trace


def _delta(before, after):
    """Reason → growth between two fallback_counts() snapshots."""
    return {
        reason: after[reason] - before.get(reason, 0)
        for reason in after
        if after[reason] != before.get(reason, 0)
    }


def _plan_for(simulator, trace):
    return simulator._fast_plan(trace)


# ----------------------------------------------------------------------
# Spec determinism and cell sharing.


def test_equal_specs_generate_identical_source():
    spec = CellSpec(
        has_probes=True, l1_ways=4, l1_latency=30, l2_ways=24,
        l2_latency=200, dram_latency=350, line_cycles=4, tx_cycles=4,
        rc_ways=4,
    )
    twin = CellSpec(
        has_probes=True, l1_ways=4, l1_latency=30, l2_ways=24,
        l2_latency=200, dram_latency=350, line_cycles=4, tx_cycles=4,
        rc_ways=4,
    )
    assert generate_cell_source(spec) == generate_cell_source(twin)


def test_probe_free_mechanisms_share_one_cell():
    """baseline/lmi/baggy fold to the same kernel; gpushield differs."""
    trace = synthesize_trace("gaussian", warps=3, instructions_per_warp=120)
    specs = {}
    for mechanism in ("baseline", "lmi", "baggy", "gpushield"):
        sim = SmSimulator(DEFAULT_GPU_CONFIG, model_factory(mechanism))
        specs[mechanism] = cell_spec_for(sim, _plan_for(sim, trace))
    assert specs["baseline"] == specs["lmi"] == specs["baggy"]
    assert not specs["baseline"].has_probes
    assert specs["gpushield"].has_probes
    assert specs["gpushield"].rc_ways > 0


def test_latencies_fold_into_source():
    spec = CellSpec(
        has_probes=False, l1_ways=2, l1_latency=17, l2_ways=8,
        l2_latency=123, dram_latency=777, line_cycles=9, tx_cycles=5,
    )
    source = generate_cell_source(spec)
    for literal in ("17", "123", "777"):
        assert literal in source
    # The probe-free cell elides the RCache/metadata machinery
    # entirely instead of branching around it.
    assert "rc_tags" not in source


# ----------------------------------------------------------------------
# Observable fallbacks.


def test_no_toolchain_fallback_is_counted(monkeypatch, fresh_memo):
    monkeypatch.setattr(codegen, "_find_cc", lambda: None)
    trace = synthesize_trace("needle", warps=2, instructions_per_warp=100)
    sim = SmSimulator(DEFAULT_GPU_CONFIG, model_factory("baseline"))
    before = fallback_counts()
    result = sim.run(trace)
    grown = _delta(before, fallback_counts())
    assert grown.get("no-toolchain", 0) >= 1
    want = ReferenceSmSimulator(
        DEFAULT_GPU_CONFIG, model_factory("baseline")
    ).run(trace)
    assert result.cycles == want.cycles
    assert result.stats == want.stats


# ----------------------------------------------------------------------
# Disk cache: atomic publish, build lock, warm loads.


def test_concurrent_builds_race_safely(tmp_path, monkeypatch, fresh_memo):
    if codegen._find_cc() is None:
        pytest.skip("no C toolchain")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    spec = CellSpec(
        has_probes=False, l1_ways=4, l1_latency=31, l2_ways=8,
        l2_latency=201, dram_latency=351, line_cycles=4, tx_cycles=4,
    )
    failures_before = CODEGEN_STATS.failures
    results = [None] * 6
    # _load_uncached bypasses the memo, so every thread races the
    # compiler for the same cache key; the per-key build lock plus
    # tmp-file + os.replace publish must keep them all coherent.
    threads = [
        threading.Thread(
            target=lambda i=i: results.__setitem__(
                i, codegen._load_uncached(spec)
            )
        )
        for i in range(len(results))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(isinstance(cell, CompiledCell) for cell in results)
    assert len({cell.digest for cell in results}) == 1
    assert os.path.exists(results[0].so_path)
    assert CODEGEN_STATS.failures == failures_before


def test_cold_load_runs_cc_once(tmp_path, monkeypatch, fresh_memo):
    """One flag set: no fallback ladder of compile attempts."""
    if codegen._find_cc() is None:
        pytest.skip("no C toolchain")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    calls = []
    run = codegen.subprocess.run

    def counting_run(argv, **kwargs):
        calls.append(argv)
        return run(argv, **kwargs)

    monkeypatch.setattr(codegen.subprocess, "run", counting_run)
    spec = CellSpec(
        has_probes=True, l1_ways=4, l1_latency=33, l2_ways=8,
        l2_latency=203, dram_latency=353, line_cycles=4, tx_cycles=4,
        rc_ways=4,
    )
    assert isinstance(load_cell(spec), CompiledCell)
    [argv] = calls
    assert argv[1:4] == ["-O2", "-shared", "-fPIC"]
    assert argv[4] == "-o"


def test_warm_load_never_recompiles(tmp_path, monkeypatch, fresh_memo):
    if codegen._find_cc() is None:
        pytest.skip("no C toolchain")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    spec = CellSpec(
        has_probes=True, l1_ways=4, l1_latency=32, l2_ways=8,
        l2_latency=202, dram_latency=352, line_cycles=4, tx_cycles=4,
        rc_ways=4,
    )
    compiles_before = CODEGEN_STATS.compiles
    first = load_cell(spec)
    assert isinstance(first, CompiledCell)
    assert CODEGEN_STATS.compiles > compiles_before
    # A fresh process (simulated by dropping the memo) must come up
    # from the .so on disk without touching the compiler.
    codegen._reset_memo()
    compiles_before = CODEGEN_STATS.compiles
    disk_hits_before = CODEGEN_STATS.disk_hits
    warm = load_cell(spec)
    assert isinstance(warm, CompiledCell)
    assert warm.digest == first.digest
    assert CODEGEN_STATS.compiles == compiles_before
    assert CODEGEN_STATS.disk_hits > disk_hits_before
    # Third load inside the same process is a pure memo hit.
    memo_before = CODEGEN_STATS.memo_hits
    assert load_cell(spec) is warm
    assert CODEGEN_STATS.memo_hits > memo_before


# ----------------------------------------------------------------------
# Custom TimingModel subclasses through the generated kernels.


class RelabeledLmi(LmiTiming):
    """Attribute-only subclass: keeps every decode-relevant hook."""

    name = "lmi-relabeled"

    def __init__(self):
        super().__init__()
        self.runs_seen = 0  # extra bookkeeping must not break the key


def _native_or_skip():
    if not native_available():
        pytest.skip("no C toolchain for the native executor")


@pytest.mark.parametrize("warps", [5, 70], ids=["small-mask", "wide-mask"])
def test_custom_subclass_rides_generated_kernel(warps):
    """An attribute-only subclass keeps the native path (one and two
    ready-mask words) and matches the reference cycle-for-cycle over
    warm runs."""
    _native_or_skip()
    assert RelabeledLmi().columnar_plan_key() == ("lmi", 3)
    trace = synthesize_trace(
        "gaussian", warps=warps, instructions_per_warp=60
    )
    sim = SmSimulator(DEFAULT_GPU_CONFIG, RelabeledLmi())
    ref = ReferenceSmSimulator(DEFAULT_GPU_CONFIG, RelabeledLmi())
    before = fallback_counts()
    for _ in range(2):  # second run replays against warm native state
        got = sim.run(trace)
        want = ref.run(trace)
        assert got.cycles == want.cycles
        assert got.stats == want.stats
    assert not _delta(before, fallback_counts())
    assert (sim.l1.stats.hits, sim.l1.stats.misses) == (
        ref.l1.stats.hits, ref.l1.stats.misses
    )
    assert (sim.l2.stats.hits, sim.l2.stats.misses) == (
        ref.l2.stats.hits, ref.l2.stats.misses
    )


# ----------------------------------------------------------------------
# Batched FFI entry point.


def _prepare_requests(mechanisms, traces):
    requests = []
    for mechanism, trace in zip(mechanisms, traces):
        sim = SmSimulator(DEFAULT_GPU_CONFIG, model_factory(mechanism))
        plan = _plan_for(sim, trace)
        requests.append((sim, plan, SimStats(), []))
    return requests


_BATCH_MECHANISMS = [
    "baseline", "lmi", "gpushield", "baggy", "lmi", "gpushield",
]
_BATCH_BENCHMARKS = ["gaussian", "needle", "LSTM", "bfs", "hotspot", "lud_cuda"]


def _batch_traces():
    return [
        synthesize_trace(name, warps=4, instructions_per_warp=120)
        for name in _BATCH_BENCHMARKS
    ]


def _assert_same_runs(want_requests, got_requests):
    """Equal stats, issue events, cache and DRAM state, request by
    request."""
    for (sim_a, _, stats_a, events_a), (
        sim_b, _, stats_b, events_b
    ) in zip(want_requests, got_requests):
        assert stats_a == stats_b
        (rows_a,), (rows_b,) = events_a, events_b
        assert rows_a.dtype == np.int64 and rows_a.shape[1:] == (3,)
        assert np.array_equal(rows_a, rows_b)
        assert (sim_a.l1.stats.hits, sim_a.l1.stats.misses) == (
            sim_b.l1.stats.hits, sim_b.l1.stats.misses
        )
        assert (sim_a.l2.stats.hits, sim_a.l2.stats.misses) == (
            sim_b.l2.stats.hits, sim_b.l2.stats.misses
        )
        assert sim_a.dram.channel_free_at == sim_b.dram.channel_free_at


@pytest.mark.parametrize(
    "threads",
    [
        None,
        2,
        pytest.param(2 * (os.cpu_count() or 1) + 1, id="oversubscribed"),
    ],
)
def test_batch_matches_sequential(threads):
    """run_native_batch == [run_native(*r) for r in requests]: cycles,
    stats, cache state and issue events, over eight rounds of batches.
    With ``threads`` set, that many Python threads each run their own
    rounds at once (cffi releases the GIL for the call, as for the
    serve daemon's executors); None runs them in the test's thread.
    More threads than cores overlaps the crossings most reliably."""
    _native_or_skip()
    traces = _batch_traces()
    sequential = _prepare_requests(_BATCH_MECHANISMS, traces)
    want = [run_native(*request) for request in sequential]
    assert all(cycles is not None for cycles in want)
    # Every round prepared up front and a short switch interval: the
    # threads' crossings overlap.
    rounds = [
        [_prepare_requests(_BATCH_MECHANISMS, traces) for _ in range(8)]
        for _ in range(threads or 1)
    ]
    if threads is None:
        got = [[run_native_batch(requests) for requests in rounds[0]]]
    else:
        got = [[] for _ in rounds]
        start = threading.Barrier(threads)

        def run(index):
            start.wait()
            for requests in rounds[index]:
                got[index].append(run_native_batch(requests))

        workers = [
            threading.Thread(target=run, args=(i,)) for i in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
    for index, thread_rounds in enumerate(rounds):
        assert got[index] == [want] * len(thread_rounds)
        for requests in thread_rounds:
            _assert_same_runs(sequential, requests)


def test_batch_counts_into_codegen_stats():
    _native_or_skip()
    traces = [
        synthesize_trace("gaussian", warps=3, instructions_per_warp=80),
        synthesize_trace("needle", warps=3, instructions_per_warp=80),
    ]
    requests = _prepare_requests(["baseline", "lmi"], traces)
    calls_before = CODEGEN_STATS.batch_calls
    cells_before = CODEGEN_STATS.batch_cells
    cycles = run_native_batch(requests)
    assert all(value is not None for value in cycles)
    assert CODEGEN_STATS.batch_calls > calls_before
    assert CODEGEN_STATS.batch_cells >= cells_before + 2
