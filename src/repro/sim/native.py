"""Native executor for columnar issue plans, built on per-cell codegen.

The fast path's pure-Python issue loop (:func:`repro.sim.
columnar.run_columnar`) bottoms out at CPython bytecode dispatch;
this module removes that floor when a C toolchain is present.  The
issue plan's flat ``int64`` columns (:class:`~repro.sim.columnar.
IssuePlan`) are handed — as a pointer slab, without a copy — to a
kernel *generated for the exact (timing-model, mechanism) cell* by
:mod:`repro.sim.codegen`: latencies and cache way counts are
compile-time constants, the GPUShield probe path is compiled out of
cells that never take it, and every cell's scheduler keeps a
multi-word ready mask, so wide traces no longer fall back to Python.

Design constraints:

* **ABI-only.**  Kernels are plain C compiled with ``cc -O2 -shared``
  and loaded through :mod:`cffi`'s ``dlopen`` mode — no Python
  headers or build backends; builds are cached on disk keyed by
  (source digest, compiler identity) with an atomic, lock-guarded
  publish (see :mod:`repro.sim.codegen`).
* **Shared state, not shadow state.**  Kernels operate on the
  simulator's :meth:`~repro.sim.cache.ArrayLruCache.native_export`
  arrays and the DRAM channel-free timeline.  The dense tag arrays
  stay authoritative between native runs (committed via
  :meth:`~repro.sim.cache.ArrayLruCache.native_commit`); dict rows
  are rebuilt lazily — and only for touched sets — when Python next
  reads them.  Warm-cache reruns and executor interleaving therefore
  behave identically to the Python loop.
* **Batching.**  :func:`run_native_batch` ships N independent traces
  through **one** FFI crossing per cell group; the kernel runs them
  one after another.  Callers on separate Python threads (the serve
  daemon's executors) run at once: cffi releases the GIL for the
  call, and each request brings its own simulator state.
* **Observable refusal.**  Every plan the kernels refuse (no
  toolchain, compile failure, kernel error) is counted in
  :data:`NATIVE_DIAG` (``sim.native_fallback{reason=…}``) and logged
  once per reason per process.  The diagnostics registry
  is deliberately separate from the main telemetry registry: exported
  ``--metrics`` snapshots must stay byte-identical across executors,
  batch sizes and ``--jobs`` values, so executor-selection diagnostics
  cannot ride in them.

The generated scheduler mirrors the Python loop's semantics exactly:
a ready bitmask (oldest warp = lowest set bit, GTO keeps the current
warp on ties), per-warp wake times with an exact ``next_wake``
minimum, the single-ready fast-forward, and the sign-encoded
``comp_delta`` recovery for runs ending in a stateful memory
instruction — locked cell by cell against :mod:`repro.sim.reference`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.registry import MetricsRegistry
from .codegen import (
    CODEGEN_STATS,
    NPTRS,
    NSCALARS,
    OUT_SLOTS,
    CellSpec,
    CompiledCell,
    load_cell,
)
from .timing import TRANSACTION_CYCLES

__all__ = [
    "NATIVE_DIAG",
    "cell_spec_for",
    "fallback_counts",
    "native_available",
    "note_fallback",
    "run_native",
    "run_native_batch",
]

log = logging.getLogger("repro.sim.native")

#: Diagnostics registry for executor-selection observability
#: (``sim.native_fallback{reason=…}`` counters).  Separate from the
#: exported telemetry registry on purpose — see the module docstring.
NATIVE_DIAG = MetricsRegistry()

#: One explanatory log line per reason per process.
_FALLBACK_LOGGED: set = set()

_FALLBACK_DETAIL = {
    "no-toolchain": "no C compiler (cc/gcc/clang) on PATH",
    "compile-failed": "the generated cell failed to compile",
    "kernel-error": "generated kernel refused (allocation failure)",
}


def note_fallback(reason: str) -> None:
    """Count (and once per reason, log) a native-path fallback."""
    NATIVE_DIAG.counter("sim.native_fallback", reason=reason).inc()
    if reason not in _FALLBACK_LOGGED:
        _FALLBACK_LOGGED.add(reason)
        log.info(
            "native executor fallback (%s): %s",
            reason,
            _FALLBACK_DETAIL.get(reason, reason),
        )


def fallback_counts() -> Dict[str, int]:
    """Reason → count snapshot of every fallback noted so far."""
    counts: Dict[str, int] = {}
    for instrument in NATIVE_DIAG:
        if instrument.name != "sim.native_fallback":
            continue
        reason = dict(instrument.labels).get("reason", "?")
        counts[reason] = counts.get(reason, 0) + int(instrument.value)
    return counts


def cell_spec_for(simulator, plan) -> CellSpec:
    """The codegen cell of *simulator*'s config under *plan*'s shape.

    Everything here is folded into the generated C as a literal: the
    latencies and way counts specialize the kernel, and plans without
    probe tables select the probe-free variant.  (Set counts, line
    bits and channel interleave are baked into the *plan*'s
    pre-resolved geometry columns, not the kernel.)
    """
    config = simulator.config
    dram = simulator.dram
    has_probes = plan.has_probes
    return CellSpec(
        has_probes=has_probes,
        l1_ways=config.l1.ways,
        l1_latency=config.l1.hit_latency,
        l2_ways=config.l2.ways,
        l2_latency=config.l2.hit_latency,
        dram_latency=dram.latency,
        line_cycles=dram.line_cycles,
        tx_cycles=TRANSACTION_CYCLES,
        rc_ways=simulator.model.rcache.config.ways if has_probes else 0,
    )


def native_available() -> bool:
    """True when generated cells can be compiled and loaded.

    Probes the default-config baseline cell (memoized), so a ``True``
    answer means an actual kernel is resident — not merely that a
    compiler binary exists.
    """
    from ..common.config import DEFAULT_GPU_CONFIG
    from .dram import DramModel

    dram = DramModel(DEFAULT_GPU_CONFIG)
    spec = CellSpec(
        has_probes=False,
        l1_ways=DEFAULT_GPU_CONFIG.l1.ways,
        l1_latency=DEFAULT_GPU_CONFIG.l1.hit_latency,
        l2_ways=DEFAULT_GPU_CONFIG.l2.ways,
        l2_latency=DEFAULT_GPU_CONFIG.l2.hit_latency,
        dram_latency=dram.latency,
        line_cycles=dram.line_cycles,
        tx_cycles=TRANSACTION_CYCLES,
    )
    return isinstance(load_cell(spec), CompiledCell)


#: Placeholder RCache arrays for probe-free cells: the generated
#: kernel contains no code that reads slab slots 22/25, so one shared
#: (never-dereferenced) pair serves every cell — including cells
#: running at once on separate caller threads.
_DUMMY_TAGS = np.zeros(1, dtype=np.int64)
_DUMMY_TOUCHED = np.zeros(1, dtype=np.uint8)


@dataclass
class _PreparedCell:
    """One trace marshalled for a generated kernel, pre-invocation."""

    simulator: object
    plan: object
    stats: object
    events: Optional[list]
    scalars: np.ndarray  # int64[NSCALARS]
    slab: np.ndarray  # uint64[NPTRS] of raw pointers
    out: np.ndarray  # int64[OUT_SLOTS]
    ev_buf: Optional[np.ndarray]
    l1_state: Tuple[np.ndarray, np.ndarray]
    l2_state: Tuple[np.ndarray, np.ndarray]
    rc_state: Optional[Tuple[np.ndarray, np.ndarray]]
    free_at: np.ndarray


def _prepare(
    simulator, plan, stats, events: Optional[list]
) -> _PreparedCell:
    """Export state and build the pointer slab for one trace.

    Slots 0–19 point straight at the plan's columns.
    """
    l1_state = simulator.l1.native_export()
    l2_state = simulator.l2.native_export()
    if plan.has_probes:
        rc_state = simulator.model.rcache.native_export()
    else:
        rc_state = None
    free_at = np.asarray(simulator.dram.channel_free_at, dtype=np.int64)
    out = np.zeros(OUT_SLOTS, dtype=np.int64)
    if events is not None:
        ev_cap = int(plan.run_start[-1])  # one row per issued run
        ev_buf = np.empty(ev_cap * 3, dtype=np.int64)
        ev_addr = ev_buf.ctypes.data
    else:
        ev_cap = 0
        ev_buf = None
        ev_addr = 0
    slab = np.empty(NPTRS, dtype=np.uint64)
    slab[:20] = plan.pointers
    slab[20] = l1_state[0].ctypes.data
    slab[21] = l2_state[0].ctypes.data
    slab[23] = l1_state[1].ctypes.data
    slab[24] = l2_state[1].ctypes.data
    if rc_state is not None:
        slab[22] = rc_state[0].ctypes.data
        slab[25] = rc_state[1].ctypes.data
    else:
        slab[22] = _DUMMY_TAGS.ctypes.data
        slab[25] = _DUMMY_TOUCHED.ctypes.data
    slab[26] = free_at.ctypes.data
    slab[27] = ev_addr
    slab[28] = out.ctypes.data
    scalars = np.array([plan.warp_count, ev_cap], dtype=np.int64)
    return _PreparedCell(
        simulator=simulator,
        plan=plan,
        stats=stats,
        events=events,
        scalars=scalars,
        slab=slab,
        out=out,
        ev_buf=ev_buf,
        l1_state=l1_state,
        l2_state=l2_state,
        rc_state=rc_state,
        free_at=free_at,
    )


def _invoke(cell: CompiledCell, preps: Sequence[_PreparedCell]) -> None:
    """One FFI crossing for the whole *preps* group."""
    n = len(preps)
    if n == 1:
        scalars = preps[0].scalars
        slab = preps[0].slab
    else:
        scalars = np.concatenate([p.scalars for p in preps])
        slab = np.concatenate([p.slab for p in preps])
    ffi = cell.ffi
    cell.lib.lmi_cell_run_batch(
        n,
        ffi.cast("const int64_t *", scalars.ctypes.data),
        ffi.cast("void **", slab.ctypes.data),
    )
    stats = CODEGEN_STATS
    stats.batch_calls += 1
    stats.batch_cells += n
    if n > stats.max_batch:
        stats.max_batch = n


def _commit(prep: _PreparedCell) -> int:
    """Fold a finished kernel's outputs back into simulator state."""
    (
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        dram_requests,
        dram_queue_delay,
        rc_hits,
        rc_misses,
        p_l2_hits,
        p_l2_misses,
        stall_cycles,
        finish,
        ev_count,
        _status,
    ) = prep.out.tolist()

    simulator = prep.simulator
    simulator.l1.native_commit(*prep.l1_state)
    simulator.l2.native_commit(*prep.l2_state)
    if prep.rc_state is not None:
        simulator.model.rcache.native_commit(*prep.rc_state)
    dram = simulator.dram
    dram.channel_free_at[:] = prep.free_at.tolist()

    if prep.events is not None:
        prep.events.append(prep.ev_buf[: ev_count * 3].reshape(ev_count, 3))

    plan = prep.plan
    stats = prep.stats
    stats.instructions = plan.total_instructions
    stats.issue_stall_cycles = stall_cycles
    stats.extra_transactions = plan.extra_transactions
    stats.lsu_serialization_cycles = plan.lsu_serialization_cycles
    stats.l1_hits = l1_hits
    stats.l1_misses = l1_misses
    stats.l2_hits = l2_hits
    stats.l2_misses = l2_misses
    simulator.l1.stats.hits += l1_hits
    simulator.l1.stats.misses += l1_misses
    simulator.l2.stats.hits += l2_hits + p_l2_hits
    simulator.l2.stats.misses += l2_misses + p_l2_misses
    dram.stats.requests += dram_requests
    dram.stats.queue_delay_cycles += dram_queue_delay
    if prep.rc_state is not None:
        rc_stats = simulator.model.rcache.stats
        rc_stats.hits += rc_hits
        rc_stats.misses += rc_misses
    return int(finish)


def run_native(
    simulator, plan, stats, events: Optional[List] = None
) -> Optional[int]:
    """Run *plan* through its generated kernel; ``None`` → Python loop.

    A batch of one: see :func:`run_native_batch`.  *stats* and the
    simulator's cache/DRAM state are mutated exactly like
    :func:`repro.sim.columnar.run_columnar` mutates them, and only when
    the kernel runs.  When *events* is a list, it receives one
    ``(n, 3)`` ``int64`` array: a view of the kernel's event buffer
    holding one ``(issue_cycle, warp, run_length)`` row per issued
    run, as the Python loop records them, so the C and Python fast
    paths produce equal arrays.
    """
    return run_native_batch([(simulator, plan, stats, events)])[0]


def run_native_batch(requests: Sequence[Tuple]) -> List[Optional[int]]:
    """Run many traces natively with one FFI crossing per cell group.

    *requests* is a sequence of ``(simulator, plan, stats, events)``
    tuples — the :func:`run_native` signature, one per trace.
    Requests are grouped by codegen cell; each group crosses the FFI
    once, and the kernel runs its traces in order.  Simulators must be
    distinct objects: each trace's exported cache state is bound
    before the crossing and committed after it.

    Returns one finish-cycle (or ``None`` for any trace whose cell is
    unavailable or whose kernel refused —
    :func:`repro.sim.core.run_plans` runs those through the Python
    loop; the refusal is recorded via :func:`note_fallback`).  All
    refusal checks — and the scheduler's scratch allocation — happen
    before any state is touched.
    Per-trace results, state mutations and event arrays are identical
    to ``[run_native(*r) for r in requests]``.
    """
    results: List[Optional[int]] = [None] * len(requests)
    if not requests:
        return results
    groups: Dict[CellSpec, List[int]] = {}
    for index, request in enumerate(requests):
        spec = cell_spec_for(request[0], request[1])
        groups.setdefault(spec, []).append(index)
    for spec, indices in groups.items():
        cell = load_cell(spec)
        if not isinstance(cell, CompiledCell):
            for _ in indices:
                note_fallback(cell)
            continue
        preps = [_prepare(*requests[i]) for i in indices]
        _invoke(cell, preps)
        for i, prep in zip(indices, preps):
            if prep.out[13]:
                note_fallback("kernel-error")
                continue
            results[i] = _commit(prep)
    return results
