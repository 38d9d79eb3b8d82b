"""Columnar trace substrate and the fast path's issue plans and
pure-Python issue loop.

The oracle (:mod:`repro.sim.reference`) walks Python lists of frozen
:class:`~repro.sim.trace.TraceInstruction` dataclasses — one attribute
lookup per field per dynamic instruction.  This module rebuilds that
data plane as structure-of-arrays:

* :class:`ColumnarTrace` — NumPy columns for op-class codes, dependency
  and checked flags, plus CSR-packed per-instruction coalesced line
  addresses and buffer ids, validated on construction, with lossless
  converters from/to the dataclass form (and derived columns:
  transaction counts, base latencies).  Every
  :class:`~repro.sim.trace.KernelTrace` is backed by one; the
  dataclass lists are built only for the readers that walk them.
* **Vectorized stream expansion** — the Baggy Bounds family, the one
  rewriting :class:`~repro.sim.timing.TimingModel` with a plan
  lowering, lowers to per-instruction replication counts applied with
  ``np.repeat`` (one original plus its check chain).
* :class:`IssuePlan` — pre-decoded issue descriptors, held as flat
  ``int64`` columns in exactly the layout the C kernel of
  :mod:`repro.sim.native` reads.  The GTO scheduler issues *runs*:
  maximal sequences of instructions the current warp executes
  back-to-back (a run ends exactly where the next instruction depends
  on an in-flight result, or at stream end).  Run boundaries, fixed
  result latencies (ALU, shared memory, the state-free model penalties
  such as the LMI OCU cycles), per-transaction cache/DRAM geometry and
  the LSU-serialization / extra-transaction statistics are all
  functions of trace content alone, so they are computed once per run,
  before the simulation.  :func:`plan_for` decodes a fresh plan on
  every call and keeps nothing: the caller holds the plan for its one
  run and then drops it.  Two decoders write the same plan:

  - **the native decoder** (:mod:`repro.sim.plan`, one fixed C
    translation unit built and loaded on first use) walks the trace's
    columns once, in place, emitting Baggy's check chain during the
    walk and GPUShield's probes in CPython's ``set()`` order;
  - **the NumPy decode** (:func:`expand_columnar` plus
    :func:`decode_issue_plan`) is its oracle, and the path when no C
    compiler is present, the build fails, or the trace holds values
    outside the native decoder's exact range; each such plan is
    counted through :func:`repro.sim.native.note_fallback`.
* :func:`run_columnar` — the pure-Python issue loop over the same
  columns, which executes a plan when the C kernel is
  unavailable (no C toolchain).  Only genuinely stateful work remains
  serial: L1/L2/DRAM interactions of global/local memory transactions
  (inlined against :class:`~repro.sim.cache.ArrayLruCache` rows) and
  GPUShield RCache probes.  Everything else — entire ALU/shared runs —
  collapses to O(1) per run.

Cycle-for-cycle and stat-for-stat equivalence of both plan executors
with the linear-scan oracle in :mod:`repro.sim.reference` is locked by
``tests/test_sim_columnar_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import SimulationError, TraceFormatError
from .timing import (
    ALU_LATENCY_CYCLES,
    SHARED_LATENCY_CYCLES,
    TRANSACTION_CYCLES,
    TimingModel,
)
from .trace import OP_ORDER, KernelTrace, TraceInstruction

# ----------------------------------------------------------------------
# Op-class codes (the columnar encoding of OpClass; the code order is
# :data:`~repro.sim.trace.OP_ORDER`).

OP_CODE = {op: code for code, op in enumerate(OP_ORDER)}
(OP_INT, OP_FP, OP_LDG, OP_STG, OP_LDS, OP_STS, OP_LDL, OP_STL) = range(8)

#: A :class:`ColumnarTrace`'s eight columns, in field order, with the
#: dtypes :meth:`ColumnarTrace.from_trace` gives them.
TRACE_DTYPES = {
    "ops": np.uint8,
    "depends": np.bool_,
    "checked": np.bool_,
    "warp_offsets": np.int64,
    "line_offsets": np.int64,
    "lines": np.int64,
    "buffer_offsets": np.int64,
    "buffers": np.int64,
}


@dataclass
class ColumnarTrace:
    """Structure-of-arrays form of a :class:`KernelTrace`.

    Instruction columns are warp-major (warp 0's stream first);
    ``warp_offsets`` is the CSR index of warp boundaries into them,
    and ``line_offsets`` / ``buffer_offsets`` are CSR indices of each
    instruction's coalesced line addresses / buffer ids into the
    flattened ``lines`` / ``buffers`` columns.  The converters are
    lossless: ``to_trace(from_trace(t)) == t`` for every field,
    including default buffer ids on ALU records.

    Construction validates the columns, so a bad trace is rejected
    where it is built or loaded: the CSR offset arrays start at 0,
    never decrease and end at their column's length; op codes index
    :data:`~repro.sim.trace.OP_ORDER`; and the
    :class:`~repro.sim.trace.TraceInstruction` record rules hold for
    every row.
    """

    name: str
    ops: np.ndarray            #: uint8 op-class codes, [n]
    depends: np.ndarray        #: bool dependency flags, [n]
    checked: np.ndarray        #: bool LMI A-hint flags, [n]
    warp_offsets: np.ndarray   #: int64 CSR warp boundaries, [warps + 1]
    line_offsets: np.ndarray   #: int64 CSR into ``lines``, [n + 1]
    lines: np.ndarray          #: int64 flattened line addresses
    buffer_offsets: np.ndarray  #: int64 CSR into ``buffers``, [n + 1]
    buffers: np.ndarray        #: int64 flattened buffer ids

    def __post_init__(self) -> None:
        ops = self.ops
        n = len(ops)
        if len(self.depends) != n or len(self.checked) != n:
            raise TraceFormatError("columnar flag columns disagree on length")
        if len(self.line_offsets) != n + 1 or len(self.buffer_offsets) != n + 1:
            raise TraceFormatError("columnar CSR offsets disagree on length")
        for label, offsets, size, end in (
            ("warp", self.warp_offsets, n, "the record count"),
            ("line", self.line_offsets, len(self.lines), "len(lines)"),
            ("buffer", self.buffer_offsets, len(self.buffers), "len(buffers)"),
        ):
            if len(offsets) == 0 or offsets[0] != 0:
                raise TraceFormatError(f"{label} offsets must start at 0")
            if np.any(offsets[1:] < offsets[:-1]):
                raise TraceFormatError(f"{label} offsets must not decrease")
            if offsets[-1] != size:
                raise TraceFormatError(f"{label} offsets must end at {end}")
        if n and (int(ops.min()) < 0 or int(ops.max()) >= len(OP_ORDER)):
            raise TraceFormatError(f"op codes must be below {len(OP_ORDER)}")
        # TraceInstruction's record rules, one vectorized pass each.
        memory = ops > OP_FP
        transactions = np.diff(self.line_offsets)
        if np.any(self.checked & (ops != OP_INT)):
            raise TraceFormatError("only INT ops can carry the A hint")
        if np.any(transactions[~memory]):
            raise TraceFormatError("ALU ops cannot carry memory transactions")
        if not np.all(transactions[memory]):
            raise TraceFormatError("memory ops need at least one transaction")
        if not np.all(np.diff(self.buffer_offsets)[memory]):
            raise TraceFormatError("memory ops need at least one buffer id")

    # ------------------------------------------------------------------

    @property
    def warp_count(self) -> int:
        """Number of warps."""
        return len(self.warp_offsets) - 1

    @property
    def total_instructions(self) -> int:
        """Dynamic instruction count."""
        return len(self.ops)

    def transaction_counts(self) -> np.ndarray:
        """Coalesced transactions per instruction (0 for ALU ops)."""
        return np.diff(self.line_offsets)

    def base_latencies(self) -> np.ndarray:
        """State-free base result latency per instruction.

        ALU and shared-memory records have fixed latencies; records on
        the L1/L2/DRAM path are marked ``-1`` (their latency depends on
        live cache state).
        """
        ops = self.ops
        extra = self.transaction_counts() - 1
        np.maximum(extra, 0, out=extra)
        lat = np.full(len(ops), -1, dtype=np.int64)
        alu = ops <= OP_FP
        lat[alu] = ALU_LATENCY_CYCLES
        shared = (ops == OP_LDS) | (ops == OP_STS)
        lat[shared] = SHARED_LATENCY_CYCLES + TRANSACTION_CYCLES * extra[shared]
        return lat

    def nbytes(self) -> int:
        """Total array payload in bytes."""
        return sum(getattr(self, name).nbytes for name in TRACE_DTYPES)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return self.name == other.name and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in TRACE_DTYPES
        )

    # ------------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: KernelTrace) -> "ColumnarTrace":
        """Lossless dataclass → columnar conversion."""
        ops: List[int] = []
        depends: List[bool] = []
        checked: List[bool] = []
        warp_offsets: List[int] = [0]
        line_offsets: List[int] = [0]
        lines: List[int] = []
        buffer_offsets: List[int] = [0]
        buffers: List[int] = []
        op_code = OP_CODE
        for stream in trace.warps:
            for instr in stream:
                ops.append(op_code[instr.op])
                depends.append(instr.depends)
                checked.append(instr.checked)
                lines.extend(instr.lines)
                line_offsets.append(len(lines))
                buffers.extend(instr.buffer_ids)
                buffer_offsets.append(len(buffers))
            warp_offsets.append(len(ops))
        return cls(
            name=trace.name,
            ops=np.asarray(ops, dtype=np.uint8),
            depends=np.asarray(depends, dtype=bool),
            checked=np.asarray(checked, dtype=bool),
            warp_offsets=np.asarray(warp_offsets, dtype=np.int64),
            line_offsets=np.asarray(line_offsets, dtype=np.int64),
            lines=np.asarray(lines, dtype=np.int64),
            buffer_offsets=np.asarray(buffer_offsets, dtype=np.int64),
            buffers=np.asarray(buffers, dtype=np.int64),
        )

    def to_trace(self) -> KernelTrace:
        """The column-backed :class:`KernelTrace` over these columns.

        No instruction object is built: the trace's ``warps`` lists are
        made from the columns (:meth:`streams`) only if a reader asks.
        """
        return KernelTrace(self.name, columnar=self)

    def streams(self) -> List[List[TraceInstruction]]:
        """Lossless columnar → per-warp :class:`TraceInstruction` lists."""
        ops = self.ops.tolist()
        depends = self.depends.tolist()
        checked = self.checked.tolist()
        lof = self.line_offsets.tolist()
        lines = self.lines.tolist()
        bof = self.buffer_offsets.tolist()
        buffers = self.buffers.tolist()
        order = OP_ORDER
        warps: List[List[TraceInstruction]] = []
        offsets = self.warp_offsets.tolist()
        for w in range(len(offsets) - 1):
            stream: List[TraceInstruction] = []
            append = stream.append
            for i in range(offsets[w], offsets[w + 1]):
                append(
                    TraceInstruction(
                        op=order[ops[i]],
                        depends=depends[i],
                        checked=checked[i],
                        lines=tuple(lines[lof[i]:lof[i + 1]]),
                        buffer_ids=tuple(buffers[bof[i]:bof[i + 1]]),
                    )
                )
            warps.append(stream)
        return warps


# ----------------------------------------------------------------------
# Vectorized stream expansion.


def expand_columnar(
    columnar: ColumnarTrace, model: TimingModel
) -> ColumnarTrace:
    """Apply *model*'s stream rewriting in columnar form.

    Identity models return the input unchanged.  The Baggy Bounds
    family lowers to per-instruction replication counts applied with
    ``np.repeat`` (each checked record becomes itself plus its
    serially-dependent check chain).  Any other rewriting has no
    columnar lowering and raises :class:`SimulationError`; the oracle
    simulates such models.
    """
    key = model.expansion_key()
    if key == ("identity",):
        return columnar
    if isinstance(key, tuple) and key and key[0] == "baggy":
        return _expand_checked_chain(columnar, int(key[1]))
    raise SimulationError(
        f"timing model {type(model).__qualname__} has no columnar "
        f"expansion (expansion_key() is {key!r}); simulate it with "
        "repro.sim.reference.reference_simulate"
    )


def _expand_checked_chain(
    columnar: ColumnarTrace, check_count: int
) -> ColumnarTrace:
    """``np.repeat`` lowering of the Baggy Bounds check injection."""
    n = columnar.total_instructions
    if n == 0 or check_count <= 0 or not bool(columnar.checked.any()):
        return columnar
    counts = np.where(columnar.checked, 1 + check_count, 1).astype(np.int64)
    cumulative = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts))
    )
    total = int(cumulative[-1])
    src = np.repeat(np.arange(n, dtype=np.int64), counts)
    starts = cumulative[:-1]  # output slot of each original record
    first = np.zeros(total, dtype=bool)
    first[starts] = True
    ops = np.where(first, columnar.ops[src], OP_INT).astype(np.uint8)
    depends = np.where(first, columnar.depends[src], True)
    checked = np.where(first, columnar.checked[src], False)
    # Injected checks carry no memory transactions, so the flattened
    # line column is unchanged — only the offsets are re-spread.
    line_counts = np.diff(columnar.line_offsets)
    out_line_counts = np.where(first, line_counts[src], 0)
    line_offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(out_line_counts))
    )
    # Injected checks take the default (0,) buffer id; original buffer
    # runs are scattered to their new offsets in one fancy-index store.
    buffer_counts = np.diff(columnar.buffer_offsets)
    out_buffer_counts = np.where(first, buffer_counts[src], 1)
    buffer_offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(out_buffer_counts))
    )
    buffers = np.zeros(int(buffer_offsets[-1]), dtype=np.int64)
    within = np.arange(len(columnar.buffers), dtype=np.int64) - np.repeat(
        columnar.buffer_offsets[:-1], buffer_counts
    )
    targets = np.repeat(buffer_offsets[starts], buffer_counts) + within
    buffers[targets] = columnar.buffers
    return ColumnarTrace(
        name=columnar.name,
        ops=ops,
        depends=depends,
        checked=checked,
        warp_offsets=cumulative[columnar.warp_offsets],
        line_offsets=line_offsets,
        lines=columnar.lines.copy(),
        buffer_offsets=buffer_offsets,
        buffers=buffers,
    )


# ----------------------------------------------------------------------
# Issue plans: flat int64 columns in the C kernel's slab order.

#: The columns of every plan, in pointer-slab order: slots 0–13 of the
#: C kernel's slab, under these names in ``sim/kernel.c``.
PLAN_COLUMNS: Tuple[str, ...] = (
    "run_start", "run_length", "run_comp", "run_mem_lo", "run_mem_hi",
    "rec_base", "rec_rel", "rec_line_start",
    "line_l1s", "line_l1t", "line_l2s", "line_l2t", "line_ch", "line_txo",
)

#: GPUShield's RCache probe columns: slab slots 14–19.
PROBE_COLUMNS: Tuple[str, ...] = (
    "rec_probe_start",
    "probe_rcs", "probe_rct", "probe_mls", "probe_mlt", "probe_mch",
)

#: An empty column: one ``0``, so every slab pointer is valid.
_EMPTY = np.zeros(1, dtype=np.int64)
_EMPTY.flags.writeable = False


def _column(values: Sequence[int]) -> np.ndarray:
    """*values* as a C-contiguous ``int64`` plan column."""
    if len(values) == 0:
        return _EMPTY
    return np.ascontiguousarray(values, dtype=np.int64)


@dataclass
class IssuePlan:
    """Issue descriptors for one (trace, model, geometry) tuple.

    Every table is a C-contiguous ``int64`` column, and both executors
    read the same arrays: the C kernel through its pointer
    slab (:attr:`pointers`), the Python loop through lists it makes
    once per call.

    **Runs**, warp-major and in issue order within a warp: warp *w*
    owns runs ``run_start[w]:run_start[w + 1]`` (``run_start`` has
    ``warps + 1`` entries).  Run *r* issues ``run_length[r]``
    instructions back-to-back.  ``run_comp[r]`` is ``length - 1 +
    final_latency`` when the run's final result latency is state-free
    (ALU, shared memory, the LMI OCU penalty), or ``-(1 + extra)``
    when its final instruction rides the stateful L1/L2/DRAM path
    with a state-free latency addend ``extra``.  The run's memory
    records are ``run_mem_lo[r]:run_mem_hi[r]``, counted from its
    warp's first: record *m* of warp *w* is row ``rec_base[w] + m``.

    **Memory records** (global/local instructions, warp-major):
    ``rec_rel`` is the record's issue offset within its run, and
    ``rec_line_start`` (``records + 1`` entries) indexes its coalesced
    transactions in the line columns, each pre-resolved to L1 set and
    tag (``line_l1s``, ``line_l1t``), L2 set and tag (``line_l2s``,
    ``line_l2t``), DRAM channel (``line_ch``) and LSU serialization
    offset (``line_txo``), so the issue loops do no address
    arithmetic.

    **RCache probes** (GPUShield, ``has_probes``): ``rec_probe_start``
    indexes each record's probes in the probe columns, one per
    distinct buffer id in the oracle's ``set()`` iteration order:
    RCache set and tag (``probe_rcs``, ``probe_rct``), the metadata
    line's L2 set and tag (``probe_mls``, ``probe_mlt``) and its DRAM
    channel (``probe_mch``).

    An empty column holds one ``0``, as do the probe columns of plans
    without probes, so every slab pointer is valid.
    """

    total_instructions: int
    extra_transactions: int
    lsu_serialization_cycles: int
    has_probes: bool
    run_start: np.ndarray
    run_length: np.ndarray
    run_comp: np.ndarray
    run_mem_lo: np.ndarray
    run_mem_hi: np.ndarray
    rec_base: np.ndarray
    rec_rel: np.ndarray
    rec_line_start: np.ndarray
    line_l1s: np.ndarray
    line_l1t: np.ndarray
    line_l2s: np.ndarray
    line_l2t: np.ndarray
    line_ch: np.ndarray
    line_txo: np.ndarray
    rec_probe_start: np.ndarray
    probe_rcs: np.ndarray
    probe_rct: np.ndarray
    probe_mls: np.ndarray
    probe_mlt: np.ndarray
    probe_mch: np.ndarray

    @property
    def warp_count(self) -> int:
        """Number of warps."""
        return len(self.run_start) - 1

    @cached_property
    def pointers(self) -> np.ndarray:
        """Every column's address, in pointer-slab order (slots 0–19).

        Computed once per plan: the columns never move while it lives.
        """
        return np.array(
            [
                getattr(self, name).ctypes.data
                for name in PLAN_COLUMNS + PROBE_COLUMNS
            ],
            dtype=np.uint64,
        )


#: Cache/DRAM geometry baked into a plan: ``(l1_line_bits, l1_sets,
#: l2_line_bits, l2_sets, dram_channels)``.
PlanGeometry = Tuple[int, int, int, int, int]


def plan_geometry(config) -> PlanGeometry:
    """The decode-relevant geometry of a :class:`GpuConfig`."""
    from ..common.bitops import log2_exact

    return (
        log2_exact(config.l1.line_bytes),
        config.l1.num_sets,
        log2_exact(config.l2.line_bytes),
        config.l2.num_sets,
        config.dram_channels,
    )


def decode_issue_plan(
    columnar: ColumnarTrace, plan_key: Tuple, geometry: PlanGeometry
) -> IssuePlan:
    """Vectorized decode of *columnar* into an :class:`IssuePlan`.

    *plan_key* is a :meth:`TimingModel.columnar_plan_key` value; the
    caller is responsible for expanding rewriting models first.
    *geometry* bakes the cache/DRAM address mapping into the plan.
    """
    family = plan_key[0]
    ops = columnar.ops
    n = len(ops)
    wo = columnar.warp_offsets

    latencies = columnar.base_latencies()
    final_extra = None
    if family == "lmi":
        # The OCU penalty rides on *every* checked instruction
        # (LmiTiming.extra_latency adds it regardless of op class).  Fixed-latency
        # records absorb it here; checked records on the stateful
        # L1-path carry it through the sign-encoded ``run_comp``.
        ocu = int(plan_key[1])
        checked = columnar.checked
        latencies[checked & (latencies >= 0)] += ocu
        final_extra = np.where(checked, ocu, 0).astype(np.int64)

    transaction_extra = columnar.transaction_counts() - 1
    np.maximum(transaction_extra, 0, out=transaction_extra)
    extra_transactions = int(transaction_extra.sum())

    # Run segmentation: a run starts at every warp boundary and at
    # every dependent instruction (its predecessor's run ends there).
    run_start_mask = columnar.depends.copy()
    warp_starts = wo[:-1]
    run_start_mask[warp_starts[warp_starts < n]] = True
    run_starts = np.nonzero(run_start_mask)[0]
    run_bounds = np.append(run_starts, n)
    run_lengths = np.diff(run_bounds)
    run_ends = run_bounds[1:] - 1
    run_last_latency = latencies[run_ends]
    # run_comp: completion cycle of the run's final instruction
    # relative to the run's first issue cycle.  Negative values flag a
    # stateful (L1-path) final record and encode its state-free extra
    # latency addend as ``-(1 + extra)`` (plain ``-1`` when none).
    if final_extra is None:
        run_comp = np.where(
            run_last_latency < 0, -1, run_lengths - 1 + run_last_latency
        )
    else:
        run_comp = np.where(
            run_last_latency < 0,
            -1 - final_extra[run_ends],
            run_lengths - 1 + run_last_latency,
        )

    # Memory records: only L1-path records stay stateful.  Run bounds
    # into them are warp-local, offset by the warp's ``rec_base``.
    l1_mask = (
        (ops == OP_LDG) | (ops == OP_STG) | (ops == OP_LDL) | (ops == OP_STL)
    )
    mem_positions = np.nonzero(l1_mask)[0]
    run_id = np.cumsum(run_start_mask) - 1
    rec_rel = mem_positions - run_starts[run_id[mem_positions]]
    rec_base = np.searchsorted(mem_positions, warp_starts)
    run_warp = np.searchsorted(wo, run_starts, side="right") - 1
    run_rec_base = rec_base[run_warp]
    run_mem_lo = np.searchsorted(mem_positions, run_starts) - run_rec_base
    run_mem_hi = np.searchsorted(mem_positions, run_ends + 1) - run_rec_base

    # Pre-resolved geometry of every memory record's coalesced lines:
    # set indices, tags, DRAM channel and LSU serialization offset.
    l1_bits, l1_sets, l2_bits, l2_sets, channels = geometry
    line_offsets = columnar.line_offsets
    line_counts = np.diff(line_offsets)
    rec_line_start = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(line_counts[mem_positions]))
    )
    on_l1_path = np.repeat(l1_mask, line_counts)
    lines = columnar.lines[on_l1_path]
    line_index = np.arange(len(columnar.lines), dtype=np.int64) - np.repeat(
        line_offsets[:-1], line_counts
    )
    shifted1 = lines >> l1_bits
    shifted2 = lines >> l2_bits

    if family == "gpushield":
        probes = _decode_probes(columnar, mem_positions, plan_key, geometry)
    else:
        probes = dict.fromkeys(PROBE_COLUMNS, _EMPTY)

    return IssuePlan(
        total_instructions=n,
        extra_transactions=extra_transactions,
        lsu_serialization_cycles=TRANSACTION_CYCLES * extra_transactions,
        has_probes=family == "gpushield",
        run_start=_column(np.searchsorted(run_starts, wo)),
        run_length=_column(run_lengths),
        run_comp=_column(run_comp),
        run_mem_lo=_column(run_mem_lo),
        run_mem_hi=_column(run_mem_hi),
        rec_base=_column(rec_base),
        rec_rel=_column(rec_rel),
        rec_line_start=_column(rec_line_start),
        line_l1s=_column(shifted1 % l1_sets),
        line_l1t=_column(shifted1 // l1_sets),
        line_l2s=_column(shifted2 % l2_sets),
        line_l2t=_column(shifted2 // l2_sets),
        line_ch=_column(shifted2 % channels),
        line_txo=_column(line_index[on_l1_path] * TRANSACTION_CYCLES),
        **probes,
    )


def _decode_probes(
    columnar: ColumnarTrace,
    mem_positions: np.ndarray,
    plan_key: Tuple,
    geometry: PlanGeometry,
) -> Dict[str, np.ndarray]:
    """GPUShield's probe columns for the records at *mem_positions*.

    A record probes each distinct buffer id once, in the iteration
    order of a ``set`` built from its ids in trace order — the order of
    the oracle's ``set(instr.buffer_ids)``, so the RCache state
    sequence matches.  That order is hash-slot order, not sorted
    order, so here the deduplication is a Python loop over real sets,
    and the geometry is vectorized; the native decoder replays
    CPython's hash-table walk instead (``set_order`` in ``plan.c``).
    """
    _, entry_bytes, rc_sets, metadata_base = plan_key
    _, _, l2_bits, l2_sets, channels = geometry
    buffers = columnar.buffers.tolist()
    offsets = columnar.buffer_offsets.tolist()
    ids: List[int] = []
    starts = [0]
    for j in mem_positions.tolist():
        ids.extend(set(buffers[offsets[j]:offsets[j + 1]]))
        starts.append(len(ids))
    bids = np.asarray(ids, dtype=np.int64)
    meta_line = metadata_base + bids * entry_bytes
    meta_shift = meta_line >> l2_bits
    return {
        "rec_probe_start": _column(starts),
        "probe_rcs": _column(bids % rc_sets),
        "probe_rct": _column(bids // rc_sets),
        "probe_mls": _column(meta_shift % l2_sets),
        "probe_mlt": _column(meta_shift // l2_sets),
        "probe_mch": _column(meta_shift % channels),
    }


def plan_for(
    trace: KernelTrace, model: TimingModel, config
) -> Optional[IssuePlan]:
    """Decode the issue plan for *model* on *trace* under *config*.

    Returns ``None`` for models without a columnar lowering (user
    subclasses overriding a decode-relevant hook), which
    :class:`~repro.sim.core.SmSimulator` refuses at construction.
    The native decoder writes the plan when it loads and takes the
    trace's values; otherwise rewriting models (the Baggy Bounds
    family) expand the columns and :func:`decode_issue_plan` decodes
    them.  Both give equal plans.  Nothing is kept on the trace: every
    call decodes afresh.
    """
    from .plan import native_plan

    plan_key = model.columnar_plan_key()
    if plan_key is None:
        return None
    geometry = plan_geometry(config)
    plan = native_plan(trace.columnar, plan_key, geometry)
    if plan is not None:
        return plan
    columnar = trace.columnar
    if plan_key[0] == "baggy":
        columnar = expand_columnar(columnar, model)
    return decode_issue_plan(columnar, plan_key, geometry)


# ----------------------------------------------------------------------
# The columnar issue loop.


def _rows(*columns: np.ndarray) -> List[tuple]:
    """One tuple of plain ints per row of *columns*."""
    return list(zip(*(column.tolist() for column in columns)))


def run_columnar(
    simulator,
    plan: IssuePlan,
    stats,
    events: Optional[List[np.ndarray]] = None,
) -> int:
    """Simulate *plan* on *simulator*: the C kernel's Python twin.

    Fills *stats* (a :class:`~repro.sim.core.SimStats`) and returns the
    finish cycle.  Requires the simulator's L1/L2 (and, for GPUShield,
    the model's RCache) to be :class:`~repro.sim.cache.ArrayLruCache`
    instances — their dense rows are manipulated inline;
    :class:`~repro.sim.core.SmSimulator` and
    :class:`~repro.sim.timing.GPUShieldTiming` build them that way.

    When *events* is a list, the loop appends one ``(n, 3)`` ``int64``
    array to it, with one ``(issue_cycle, warp, run_length)`` row per
    issued run, in issue order.  The native executor's C
    kernel (:mod:`repro.sim.native`) records the same rows for the
    same run sequence, so both fast paths produce equal event arrays.

    Loop structure
    --------------
    The loop indexes the plan's columns as the C kernel does:
    warp *w*'s next run is ``ridx[w]``, and its memory record *m* is
    row ``rec_base[w] + m``.  It first turns the columns into plain
    Python lists (NumPy scalars are ~3x slower in the loop), zipping
    the run, line and probe columns into one tuple per run,
    transaction and probe; nothing it builds outlives the call.

    The scheduler state is a *ready bitmask* (oldest ready warp =
    lowest set bit) plus wake *buckets*: a dict mapping completion
    cycle to the bitmask of warps waking then, with a min-heap over
    the distinct bucket cycles.  Waking ORs a whole bucket into the
    ready mask at once (simultaneous wakes are one event, and warp
    order within the mask preserves the oracle's oldest-first
    tie-break), so wake handling is O(parks), independent of elapsed
    simulated cycles.  Each iteration issues one whole run:
    fixed-latency runs collapse to O(1); runs touching global/local
    memory walk only their memory records through the pre-resolved
    geometry.  When the issuing warp is the only ready one and
    nothing wakes before its dependency resolves, the clock
    fast-forwards in place instead of a park round-trip (GTO gives
    the current warp priority on ties, so this is exact).
    """
    config = simulator.config
    l1 = simulator.l1
    l2 = simulator.l2
    dram = simulator.dram
    model = simulator.model

    # Hot-loop locals: dense cache state and fixed latencies.
    l1_rows = l1.rows
    l1_ways = l1._ways
    l1_lat = config.l1.hit_latency
    l2_rows = l2.rows
    l2_ways = l2._ways
    l2_lat = config.l2.hit_latency
    free_at = dram.channel_free_at
    dram_latency = dram.latency
    line_cycles = dram.line_cycles
    tx = TRANSACTION_CYCLES

    # The plan's columns as per-call Python lists.
    run_start = plan.run_start.tolist()
    run_rows = _rows(
        plan.run_length, plan.run_comp, plan.run_mem_lo, plan.run_mem_hi
    )
    rec_base = plan.rec_base.tolist()
    rec_rel = plan.rec_rel.tolist()
    rec_line_start = plan.rec_line_start.tolist()
    line_rows = _rows(
        plan.line_l1s, plan.line_l1t, plan.line_l2s, plan.line_l2t,
        plan.line_ch, plan.line_txo,
    )
    gpushield = plan.has_probes
    rc_hits = rc_misses = p_l2_hits = p_l2_misses = 0
    if gpushield:
        rcache = model.rcache
        rc_rows = rcache.rows
        rc_ways = rcache._ways
        rec_probe_start = plan.rec_probe_start.tolist()
        probe_rows = _rows(
            plan.probe_rcs, plan.probe_rct, plan.probe_mls, plan.probe_mlt,
            plan.probe_mch,
        )

    # Run-issue event recording (telemetry fast path).
    issued: List[Tuple[int, int, int]] = []
    ev_append = issued.append if events is not None else None

    # Warp w issues run ridx[w] next and retires after run_end[w] - 1.
    ridx = run_start[:-1]
    run_end = run_start[1:]
    warp_count = len(ridx)
    finals = [0] * warp_count
    ready_mask = 0
    live = 0
    for w in range(warp_count):
        if ridx[w] < run_end[w]:
            ready_mask |= 1 << w
            live += 1

    # Wake buckets: ``buckets[cycle]`` is the ready bitmask of warps
    # whose dependency resolves at *cycle*, and ``bheap`` holds each
    # live bucket cycle exactly once (pushed on bucket creation,
    # popped on drain), so ``next_wake`` is always the exact earliest
    # outstanding wake.  Draining therefore costs one dict pop per
    # *distinct* completion cycle — O(parks), never O(elapsed cycles)
    # like a per-cycle timing-wheel scan — and simultaneous wakes
    # merge into a single event.
    buckets: Dict[int, int] = {}
    buckets_get = buckets.get
    buckets_pop = buckets.pop
    bheap: List[int] = []
    heappush_ = heappush
    heappop_ = heappop
    NEVER = 1 << 62
    next_wake = NEVER
    clock = 0
    current = 0
    current_bit = 1
    stall_cycles = 0
    l1_hits = l1_misses = l2_hits = l2_misses = 0
    dram_requests = 0
    dram_queue_delay = 0

    while live:
        if next_wake <= clock:
            ready_mask |= buckets_pop(next_wake)
            heappop_(bheap)
            next_wake = bheap[0] if bheap else NEVER
            while next_wake <= clock:
                ready_mask |= buckets_pop(next_wake)
                heappop_(bheap)
                next_wake = bheap[0] if bheap else NEVER
        if ready_mask:
            # Greedy-then-oldest: stick with the current warp while it
            # is ready, else the lowest set (oldest) ready bit.
            if not ready_mask & current_bit:
                current_bit = ready_mask & -ready_mask
                current = current_bit.bit_length() - 1
            w = current
        else:
            # No warp ready: jump straight to the earliest wake (the
            # top of the loop drains its bucket).
            if next_wake == NEVER:
                raise SimulationError(
                    "columnar scheduler wedged (wake accounting)"
                )
            stall_cycles += next_wake - clock
            clock = next_wake
            continue

        ri = ridx[w]
        ridx[w] = ri + 1
        length, comp_delta, mem_lo, mem_hi = run_rows[ri]

        if ev_append is not None:
            ev_append((clock, w, length))

        if mem_lo != mem_hi:
            # Stateful portion: walk the run's global/local memory
            # records through L1 → L2 → HBM at their exact issue
            # cycles.  Only the run-final record's latency is consumed
            # (earlier completions are overwritten by later issues);
            # mid-run records still mutate cache/DRAM state and the
            # hit/miss counters, exactly as the oracle does.
            base = rec_base[w]
            last = base + (mem_hi if comp_delta >= 0 else mem_hi - 1)
            for rec in range(base + mem_lo, last):
                # State-only memory record (result latency discarded).
                # Cache rows are insertion-ordered dicts whose stored
                # value is always ``None``, so a single ``pop`` both
                # answers "was it resident?" (``None`` vs the ``0``
                # default) and unlinks it for the MRU reinsert.
                for l1s, l1t, l2s, l2t, ch, txo in line_rows[
                    rec_line_start[rec]:rec_line_start[rec + 1]
                ]:
                    row = l1_rows[l1s]
                    if row.pop(l1t, 0) is None:
                        row[l1t] = None
                        l1_hits += 1
                    else:
                        l1_misses += 1
                        row[l1t] = None
                        if len(row) > l1_ways:
                            del row[next(iter(row))]
                        row2 = l2_rows[l2s]
                        if row2.pop(l2t, 0) is None:
                            row2[l2t] = None
                            l2_hits += 1
                        else:
                            l2_misses += 1
                            row2[l2t] = None
                            if len(row2) > l2_ways:
                                del row2[next(iter(row2))]
                            now = clock + rec_rel[rec]
                            free = free_at[ch]
                            start = now if now >= free else free
                            free_at[ch] = start + line_cycles
                            dram_requests += 1
                            dram_queue_delay += start - now
                if gpushield:
                    for rcs, rct, mls, mlt, mch in probe_rows[
                        rec_probe_start[rec]:rec_probe_start[rec + 1]
                    ]:
                        rrow = rc_rows[rcs]
                        if rrow.pop(rct, 0) is None:
                            rrow[rct] = None
                            rc_hits += 1
                            continue
                        rc_misses += 1
                        rrow[rct] = None
                        if len(rrow) > rc_ways:
                            del rrow[next(iter(rrow))]
                        row2 = l2_rows[mls]
                        if row2.pop(mlt, 0) is None:
                            row2[mlt] = None
                            p_l2_hits += 1
                        else:
                            p_l2_misses += 1
                            row2[mlt] = None
                            if len(row2) > l2_ways:
                                del row2[next(iter(row2))]
                            now = clock + rec_rel[rec]
                            free = free_at[mch]
                            start = now if now >= free else free
                            free_at[mch] = start + line_cycles
                            dram_requests += 1
                            dram_queue_delay += start - now
            if comp_delta < 0:
                # Run-final memory record: its slowest transaction
                # (plus the LSU serialization offset, plus GPUShield's
                # probe penalty) is the run's completion latency.
                now = clock + rec_rel[last]
                slowest = 0
                for l1s, l1t, l2s, l2t, ch, txo in line_rows[
                    rec_line_start[last]:rec_line_start[last + 1]
                ]:
                    row = l1_rows[l1s]
                    if row.pop(l1t, 0) is None:
                        row[l1t] = None
                        l1_hits += 1
                        latency = l1_lat
                    else:
                        l1_misses += 1
                        row[l1t] = None
                        if len(row) > l1_ways:
                            del row[next(iter(row))]
                        row2 = l2_rows[l2s]
                        if row2.pop(l2t, 0) is None:
                            row2[l2t] = None
                            l2_hits += 1
                            latency = l2_lat
                        else:
                            l2_misses += 1
                            row2[l2t] = None
                            if len(row2) > l2_ways:
                                del row2[next(iter(row2))]
                            free = free_at[ch]
                            start = now if now >= free else free
                            free_at[ch] = start + line_cycles
                            dram_requests += 1
                            dram_queue_delay += start - now
                            latency = start + dram_latency - now
                    candidate = latency + txo
                    if candidate > slowest:
                        slowest = candidate
                if gpushield:
                    extra_misses = 0
                    probe_slowest = 0
                    for rcs, rct, mls, mlt, mch in probe_rows[
                        rec_probe_start[last]:rec_probe_start[last + 1]
                    ]:
                        rrow = rc_rows[rcs]
                        if rrow.pop(rct, 0) is None:
                            rrow[rct] = None
                            rc_hits += 1
                            continue
                        rc_misses += 1
                        rrow[rct] = None
                        if len(rrow) > rc_ways:
                            del rrow[next(iter(rrow))]
                        extra_misses += 1
                        row2 = l2_rows[mls]
                        if row2.pop(mlt, 0) is None:
                            row2[mlt] = None
                            p_l2_hits += 1
                            probe_latency = l2_lat
                        else:
                            p_l2_misses += 1
                            row2[mlt] = None
                            if len(row2) > l2_ways:
                                del row2[next(iter(row2))]
                            free = free_at[mch]
                            start = now if now >= free else free
                            free_at[mch] = start + line_cycles
                            dram_requests += 1
                            dram_queue_delay += start - now
                            probe_latency = start + dram_latency - now
                        if probe_latency > probe_slowest:
                            probe_slowest = probe_latency
                    if extra_misses > 1:
                        # Metadata fills serialize at the RCache port.
                        probe_slowest += tx * (extra_misses - 1)
                    slowest += probe_slowest
                # ``-1 - comp_delta`` recovers the state-free extra
                # latency addend encoded by the decode (0 for -1).
                comp_delta = length - 2 + slowest - comp_delta

        complete = clock + comp_delta
        clock += length
        if ri + 1 == run_end[w]:
            # Warp retired; only its final completion matters for the
            # finish cycle.
            live -= 1
            ready_mask ^= current_bit
            finals[w] = complete
        elif complete > clock:
            # Next run opens on a dependent instruction: park until
            # the final result lands — unless no other warp can claim
            # an issue slot first, in which case the clock
            # fast-forwards in place (ties keep the current warp).
            if ready_mask == current_bit and next_wake >= complete:
                stall_cycles += complete - clock
                clock = complete
            else:
                ready_mask ^= current_bit
                prev = buckets_get(complete)
                if prev is None:
                    buckets[complete] = current_bit
                    heappush_(bheap, complete)
                    if complete < next_wake:
                        next_wake = complete
                else:
                    buckets[complete] = prev | current_bit
        # Otherwise the warp stays ready (and current): the dependent
        # result completes within the issue cycle, matching the
        # oracle's ``earliest_issue <= clock`` readiness test.

    stats.instructions = plan.total_instructions
    stats.issue_stall_cycles = stall_cycles
    stats.extra_transactions = plan.extra_transactions
    stats.lsu_serialization_cycles = plan.lsu_serialization_cycles
    stats.l1_hits = l1_hits
    stats.l1_misses = l1_misses
    stats.l2_hits = l2_hits
    stats.l2_misses = l2_misses
    l1_stats = l1.stats
    l1_stats.hits += l1_hits
    l1_stats.misses += l1_misses
    l2_stats = l2.stats
    l2_stats.hits += l2_hits + p_l2_hits
    l2_stats.misses += l2_misses + p_l2_misses
    dram_stats = dram.stats
    dram_stats.requests += dram_requests
    dram_stats.queue_delay_cycles += dram_queue_delay
    if gpushield:
        rc_stats = rcache.stats
        rc_stats.hits += rc_hits
        rc_stats.misses += rc_misses
    if events is not None:
        events.append(np.array(issued, dtype=np.int64).reshape(-1, 3))

    finish = 0
    for value in finals:
        if value > finish:
            finish = value
    return finish
