"""Native executor for columnar issue plans.

The fast path's pure-Python issue loop (:func:`repro.sim.
columnar.run_columnar`) bottoms out at CPython bytecode dispatch;
this module removes that floor when a C toolchain is present.  The
issue plan's flat ``int64`` columns (:class:`~repro.sim.columnar.
IssuePlan`) are handed — as a pointer slab, without a copy — to one
fixed C kernel, ``kernel.c``, built and loaded through
:func:`repro.sim.codegen.load_cell`.  Each cell's machine (cache ways
and hit latencies, DRAM timing, LSU transaction cycles, RCache ways,
whether the plan probes) rides in its scalar block, so any
:class:`~repro.common.config.GpuConfig` runs without a compile, and
the scheduler keeps a multi-word ready mask, so wide traces keep the
native path.

Design constraints:

* **ABI-only.**  The kernel is plain C compiled with ``cc -O2
  -shared`` and loaded through :mod:`cffi`'s ``dlopen`` mode — no
  Python headers or build backends.
* **One layout.**  A cell is a scalar block (:data:`SCALARS`), a
  pointer slab (the plan's :data:`~repro.sim.columnar.PLAN_COLUMNS` +
  :data:`~repro.sim.columnar.PROBE_COLUMNS`, then
  :data:`STATE_SLOTS`) and an output block (:data:`OUTPUTS`), in the
  order ``kernel.c``'s enums name them.
* **Shared state, not shadow state.**  The kernel operates on the
  simulator's :meth:`~repro.sim.cache.ArrayLruCache.native_export`
  arrays and the DRAM channel-free timeline.  The dense tag arrays
  stay authoritative between native runs (committed via
  :meth:`~repro.sim.cache.ArrayLruCache.native_commit`); dict rows
  are rebuilt lazily — and only for touched sets — when Python next
  reads them.  Warm-cache reruns and executor interleaving therefore
  behave identically to the Python loop.
* **Batching.**  :func:`run_native_batch` ships N independent traces,
  of any machines and mechanisms, through **one** FFI crossing; the
  kernel runs them one after another.  Callers on separate Python
  threads (the serve daemon's executors) run at once: cffi releases
  the GIL for the call, and each request brings its own simulator
  state.
* **Observable refusal.**  Every plan the kernel refuses (no
  toolchain, compile failure, kernel error) is counted in
  :data:`NATIVE_DIAG` (``sim.native_fallback{reason=…}``) and logged
  once per reason per process; so is every trace the native
  synthesizer of :mod:`repro.workloads.synthetic` leaves to its Python
  loop, and every plan the native decoder of :mod:`repro.sim.plan`
  leaves to NumPy.  The diagnostics registry
  is deliberately separate from the main telemetry registry: exported
  ``--metrics`` snapshots must stay byte-identical across executors,
  batch sizes and ``--jobs`` values, so executor-selection diagnostics
  cannot ride in them.

The kernel's scheduler mirrors the Python loop's semantics exactly:
a ready bitmask (oldest warp = lowest set bit, GTO keeps the current
warp on ties), per-warp wake times with an exact ``next_wake``
minimum, the single-ready fast-forward, and the sign-encoded
``comp_delta`` recovery for runs ending in a stateful memory
instruction — locked cell by cell against :mod:`repro.sim.reference`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.registry import MetricsRegistry
from .codegen import CODEGEN_STATS, load_cell
from .columnar import PLAN_COLUMNS, PROBE_COLUMNS
from .timing import TRANSACTION_CYCLES

__all__ = [
    "KERNEL_SOURCE",
    "NATIVE_DIAG",
    "NPTRS",
    "NSCALARS",
    "OUTPUTS",
    "OUT_SLOTS",
    "SCALARS",
    "STATE_SLOTS",
    "fallback_counts",
    "native_available",
    "note_fallback",
    "run_native",
    "run_native_batch",
]

log = logging.getLogger("repro.sim.native")

#: The simulator kernel's source.
KERNEL_SOURCE = Path(__file__).with_name("kernel.c")

#: Pointer-slab slots after the plan's columns: the simulator state
#: the kernel reads and writes, its event buffer and its output block.
STATE_SLOTS = (
    "l1_tags", "l2_tags", "rc_tags", "l1_touched", "l2_touched",
    "rc_touched", "free_at", "ev_buf", "out",
)

#: Pointer-slab slots per cell.
NPTRS = len(PLAN_COLUMNS) + len(PROBE_COLUMNS) + len(STATE_SLOTS)

#: Scalar slots per cell: the trace's shape, then the cell's machine.
SCALARS = (
    "warp_count", "ev_cap", "has_probes",
    "l1_ways", "l1_latency", "l2_ways", "l2_latency",
    "dram_latency", "line_cycles", "tx_cycles", "rc_ways",
)
NSCALARS = len(SCALARS)

#: ``int64`` output slots per cell: the run's counters, then a status
#: word (non-zero when the kernel refused the cell).
OUTPUTS = (
    "l1_hits", "l1_misses", "l2_hits", "l2_misses",
    "dram_requests", "dram_queue_delay",
    "rc_hits", "rc_misses", "probe_l2_hits", "probe_l2_misses",
    "stall_cycles", "finish", "ev_count", "status",
)
OUT_SLOTS = len(OUTPUTS)

#: Diagnostics registry for executor-selection observability
#: (``sim.native_fallback{reason=…}`` counters).  Separate from the
#: exported telemetry registry on purpose — see the module docstring.
NATIVE_DIAG = MetricsRegistry()

#: One explanatory log line per reason per process.
_FALLBACK_LOGGED: set = set()

_FALLBACK_DETAIL = {
    "no-toolchain": "no C compiler (cc/gcc/clang) on PATH, or no cffi to"
    " load what one builds",
    "compile-failed": "the simulator kernel, the trace synthesizer or the"
    " plan decoder failed to compile",
    "kernel-error": "the simulator kernel refused a cell (allocation"
    " failure)",
    "wide-draws": "a profile needs random draws wider than 32 bits, which"
    " only the Python trace synthesizer makes",
    "plan-values": "a trace holds a column of another dtype, or a GPUShield"
    " buffer id outside [0, 2**61 - 1) or past the metadata address range,"
    " which only the NumPy plan decode reads",
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


def native_available() -> bool:
    """True when the simulator kernel builds and loads here.

    Loads the kernel (memoized), so a ``True`` answer means it is
    resident — not merely that a compiler binary exists.
    """
    return not isinstance(load_cell(KERNEL_SOURCE), str)


@dataclass
class _PreparedCell:
    """One trace marshalled for the kernel, pre-invocation."""

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
    """Export state and build the scalar block and pointer slab for
    one trace.  Probe-free cells pass null RCache arrays."""
    config = simulator.config
    dram = simulator.dram
    l1_state = simulator.l1.native_export()
    l2_state = simulator.l2.native_export()
    rc_state, rc_ways = None, 0
    if plan.has_probes:
        rcache = simulator.model.rcache
        rc_state = rcache.native_export()
        rc_ways = rcache.config.ways
    free_at = np.asarray(dram.channel_free_at, dtype=np.int64)
    out = np.zeros(OUT_SLOTS, dtype=np.int64)
    if events is not None:
        ev_cap = int(plan.run_start[-1])  # one row per issued run
        ev_buf = np.empty(ev_cap * 3, dtype=np.int64)
    else:
        ev_cap = 0
        ev_buf = None
    slab = np.empty(NPTRS, dtype=np.uint64)
    slab[:20] = plan.pointers
    slab[20:] = [
        l1_state[0].ctypes.data,
        l2_state[0].ctypes.data,
        rc_state[0].ctypes.data if rc_state else 0,
        l1_state[1].ctypes.data,
        l2_state[1].ctypes.data,
        rc_state[1].ctypes.data if rc_state else 0,
        free_at.ctypes.data,
        ev_buf.ctypes.data if ev_buf is not None else 0,
        out.ctypes.data,
    ]
    scalars = np.array(
        [
            plan.warp_count,
            ev_cap,
            plan.has_probes,
            config.l1.ways,
            config.l1.hit_latency,
            config.l2.ways,
            config.l2.hit_latency,
            dram.latency,
            dram.line_cycles,
            TRANSACTION_CYCLES,
            rc_ways,
        ],
        dtype=np.int64,
    )
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


def _invoke(kernel, preps: Sequence[_PreparedCell]) -> None:
    """One FFI crossing of *kernel*, ``(ffi, lib)``, for all *preps*."""
    n = len(preps)
    if n == 1:
        scalars = preps[0].scalars
        slab = preps[0].slab
    else:
        scalars = np.concatenate([p.scalars for p in preps])
        slab = np.concatenate([p.slab for p in preps])
    ffi, lib = kernel
    lib.lmi_cell_run_batch(
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
    """Fold a finished cell's outputs (:data:`OUTPUTS`) back into
    simulator state."""
    (
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        dram_requests,
        dram_queue_delay,
        rc_hits,
        rc_misses,
        probe_l2_hits,
        probe_l2_misses,
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
    simulator.l2.stats.hits += l2_hits + probe_l2_hits
    simulator.l2.stats.misses += l2_misses + probe_l2_misses
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
    """Run *plan* through the kernel; ``None`` → Python loop.

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
    """Run many traces natively with one FFI crossing.

    *requests* is a sequence of ``(simulator, plan, stats, events)``
    tuples — the :func:`run_native` signature, one per trace, of any
    machines and mechanisms.  The whole batch crosses the FFI once,
    and the kernel runs its traces in order.  Simulators must be
    distinct objects: each trace's exported cache state is bound
    before the crossing and committed after it.

    Returns one finish-cycle (or ``None`` for every trace when the
    kernel is unavailable, and for any trace the kernel refused —
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
    kernel = load_cell(KERNEL_SOURCE)
    if isinstance(kernel, str):
        for _ in requests:
            note_fallback(kernel)
        return results
    preps = [_prepare(*request) for request in requests]
    _invoke(kernel, preps)
    for index, prep in enumerate(preps):
        if prep.out[-1]:
            note_fallback("kernel-error")
            continue
        results[index] = _commit(prep)
    return results
