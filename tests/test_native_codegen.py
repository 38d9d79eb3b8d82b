"""The native units and their one loader.

:mod:`repro.sim.codegen` builds, caches and loads the three fixed C
units through :func:`~repro.sim.codegen.load_cell`, and
:mod:`repro.sim.native` runs issue plans through the simulator kernel,
``sim/kernel.c``.  This suite locks the contracts the fast path
depends on:

* **One layout** — the kernel's slot, scalar and output enums name
  what :mod:`repro.sim.native` packs, in the order it packs them;
* **One kernel for every machine** — once loaded, the kernel runs a
  machine with every cache and DRAM value changed without a compile,
  and matches the oracle;
* **Observable fallbacks** — every refusal to run natively is counted
  on :data:`repro.sim.native.NATIVE_DIAG` with a machine-readable
  reason (``no-toolchain``, ``compile-failed``, ``kernel-error``), and
  results stay correct either way; with no cffi nothing is compiled;
* **Race-safe disk cache** — concurrent loads of one unit into a
  shared cache directory compile it once (per-key build lock + atomic
  publish), a cold load runs ``cc`` once, and warm loads never
  re-invoke the compiler;
* **Custom model coverage** — attribute-only :class:`TimingModel`
  subclasses ride the kernel (equivalence vs the locked reference,
  warm-state round-trip, >64-warp wide-mask cells);
* **Batched FFI** — ``run_native_batch`` is result/state/event
  identical to sequential ``run_native``, also when Python threads
  cross the FFI at once, as the serve daemon's executors do.
"""

from __future__ import annotations

import dataclasses
import os
import re
import sys
import threading

import numpy as np
import pytest

from repro.common.config import DEFAULT_GPU_CONFIG, CacheConfig
from repro.experiments.engine import model_factory
from repro.sim import SmSimulator, native_available
from repro.sim import codegen
from repro.sim.codegen import CACHE_ENV, CODEGEN_STATS, load_cell
from repro.sim.columnar import PLAN_COLUMNS, PROBE_COLUMNS
from repro.sim.native import (
    KERNEL_SOURCE,
    NPTRS,
    NSCALARS,
    OUT_SLOTS,
    OUTPUTS,
    SCALARS,
    STATE_SLOTS,
    fallback_counts,
    run_native,
    run_native_batch,
)
from repro.sim.reference import ReferenceSmSimulator
from repro.sim.timing import (
    BaggyBoundsTiming,
    BaselineTiming,
    GPUShieldTiming,
    LmiTiming,
)
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
# One layout, one kernel for every machine.


def _enum(source, first, last):
    """The names of *source*'s enum that runs from *first* to *last*."""
    body = re.search(rf"enum \{{\s*({first}\b.*?),\s*{last}\b", source, re.S)
    return re.split(r",\s*", body.group(1))


def test_kernel_layout_is_the_native_layout():
    source = KERNEL_SOURCE.read_text("utf-8")
    slots = _enum(source, "RUN_START", "NPTRS")
    assert slots == [
        name.upper() for name in PLAN_COLUMNS + PROBE_COLUMNS + STATE_SLOTS
    ]
    assert len(slots) == NPTRS
    scalars = _enum(source, "WARP_COUNT", "NSCALARS")
    assert scalars == [name.upper() for name in SCALARS]
    assert len(scalars) == NSCALARS
    outputs = _enum(source, "L1_HITS", "OUT_SLOTS")
    assert outputs == [name.upper() for name in OUTPUTS]
    assert len(outputs) == OUT_SLOTS


#: Every value the kernel reads from a cell's machine, changed.
_OTHER_MACHINE = dataclasses.replace(
    DEFAULT_GPU_CONFIG,
    l1=CacheConfig(size_bytes=16 * 1024, line_bytes=64, ways=2,
                   hit_latency=17),
    l2=CacheConfig(size_bytes=384 * 1024, line_bytes=64, ways=12,
                   hit_latency=123),
    dram_latency=777,
    dram_channels=4,
    dram_bandwidth_bytes_per_cycle=32,
)

_OTHER_MODELS = (
    BaselineTiming,
    LmiTiming,
    BaggyBoundsTiming,
    lambda: GPUShieldTiming(rcache_bytes=128, rcache_ways=2),
)


def test_any_machine_runs_without_a_compile(tmp_path, monkeypatch, fresh_memo):
    """After the first load, a machine with every cache and DRAM value
    changed, and an RCache of other ways, builds nothing and matches
    the oracle."""
    if codegen._find_cc() is None:
        pytest.skip("no C toolchain")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    trace = synthesize_trace("needle", warps=6, instructions_per_warp=200)
    SmSimulator(DEFAULT_GPU_CONFIG, GPUShieldTiming()).run(trace)
    compiles = CODEGEN_STATS.compiles
    before = fallback_counts()
    for make in _OTHER_MODELS:
        got = SmSimulator(_OTHER_MACHINE, make()).run(trace)
        want = ReferenceSmSimulator(_OTHER_MACHINE, make()).run(trace)
        assert (got.cycles, got.stats) == (want.cycles, want.stats)
    assert CODEGEN_STATS.compiles == compiles
    assert not _delta(before, fallback_counts())


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


def test_no_cffi_means_no_compile(tmp_path, monkeypatch, fresh_memo):
    """Without cffi nothing could load a build, so nothing is built:
    every unit is a ``no-toolchain`` fallback, and the Python paths
    give the oracle's answer."""
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    monkeypatch.setitem(sys.modules, "cffi", None)
    compiles = CODEGEN_STATS.compiles
    before = fallback_counts()
    assert not native_available()
    trace = synthesize_trace("needle", warps=2, instructions_per_warp=100)
    got = SmSimulator(DEFAULT_GPU_CONFIG, GPUShieldTiming()).run(trace)
    want = ReferenceSmSimulator(DEFAULT_GPU_CONFIG, GPUShieldTiming()).run(
        trace
    )
    assert (got.cycles, got.stats) == (want.cycles, want.stats)
    assert CODEGEN_STATS.compiles == compiles
    assert set(_delta(before, fallback_counts())) == {"no-toolchain"}
    assert not list(tmp_path.iterdir())


# ----------------------------------------------------------------------
# Disk cache: atomic publish, build lock, warm loads.


def test_concurrent_builds_race_safely(tmp_path, monkeypatch, fresh_memo):
    if codegen._find_cc() is None:
        pytest.skip("no C toolchain")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    failures = CODEGEN_STATS.failures
    compiles = CODEGEN_STATS.compiles
    results = [None] * 6
    start = threading.Barrier(len(results))

    # Every thread passes the empty memo before the first build ends,
    # so all race the compiler for one cache key; the per-key build
    # lock plus tmp-file + os.replace publish must keep them coherent.
    def load(index):
        start.wait()
        results[index] = load_cell(KERNEL_SOURCE)

    threads = [
        threading.Thread(target=load, args=(i,)) for i in range(len(results))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not any(isinstance(loaded, str) for loaded in results)
    assert CODEGEN_STATS.compiles == compiles + 1
    assert len(list(tmp_path.glob("kernel_*.so"))) == 1
    assert CODEGEN_STATS.failures == failures


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
    assert not isinstance(load_cell(KERNEL_SOURCE), str)
    [argv] = calls
    assert argv[1:4] == ["-O2", "-shared", "-fPIC"]
    assert argv[4] == "-o"


def test_warm_load_never_recompiles(tmp_path, monkeypatch, fresh_memo):
    if codegen._find_cc() is None:
        pytest.skip("no C toolchain")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    compiles = CODEGEN_STATS.compiles
    assert not isinstance(load_cell(KERNEL_SOURCE), str)
    assert CODEGEN_STATS.compiles == compiles + 1
    digest = CODEGEN_STATS.cells["kernel"]
    # A fresh process (simulated by dropping the memo) must come up
    # from the .so on disk without touching the compiler.
    codegen._reset_memo()
    compiles = CODEGEN_STATS.compiles
    disk_hits = CODEGEN_STATS.disk_hits
    warm = load_cell(KERNEL_SOURCE)
    assert not isinstance(warm, str)
    assert CODEGEN_STATS.cells["kernel"] == digest
    assert CODEGEN_STATS.compiles == compiles
    assert CODEGEN_STATS.disk_hits == disk_hits + 1
    # Third load inside the same process is a pure memo hit.
    memo_hits = CODEGEN_STATS.memo_hits
    assert load_cell(KERNEL_SOURCE) is warm
    assert CODEGEN_STATS.memo_hits == memo_hits + 1


def test_unit_without_declarations_fails_to_build(
    tmp_path, monkeypatch, fresh_memo
):
    if codegen._find_cc() is None:
        pytest.skip("no C toolchain")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    unit = tmp_path / "bare.c"
    unit.write_text("int bare(void) { return 1; }\n")
    assert load_cell(unit) == "compile-failed"
    assert load_cell(tmp_path / "missing.c") == "compile-failed"
    assert not (tmp_path / "cache").exists()


# ----------------------------------------------------------------------
# Custom TimingModel subclasses through the kernel.


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
    """Traces of any mechanisms and machines cross the FFI together."""
    _native_or_skip()
    trace = synthesize_trace("gaussian", warps=3, instructions_per_warp=80)
    requests = _prepare_requests(["baseline", "gpushield"], [trace, trace])
    other = SmSimulator(_OTHER_MACHINE, model_factory("lmi"))
    requests.append((other, _plan_for(other, trace), SimStats(), None))
    calls_before = CODEGEN_STATS.batch_calls
    cells_before = CODEGEN_STATS.batch_cells
    cycles = run_native_batch(requests)
    assert all(value is not None for value in cycles)
    assert CODEGEN_STATS.batch_calls == calls_before + 1
    assert CODEGEN_STATS.batch_cells == cells_before + 3
