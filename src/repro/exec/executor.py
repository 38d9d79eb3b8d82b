"""Functional SIMT executor.

Interprets compiled IR modules thread by thread against the sparse
memory, with a pluggable safety :class:`~repro.mechanisms.base.Mechanism`
hooked into allocation, pointer arithmetic, and every memory access.
A ground-truth :class:`~repro.memory.tracker.AllocationTracker` oracle
classifies every access in parallel, so launches report both what the
program *actually did* and what the mechanism *detected* — the raw
material of the paper's Table III.

Threads execute sequentially (block 0 thread 0 first), which preserves
producer→consumer ordering across a single barrier phase and is
sufficient for the security and fragmentation experiments; timing is
the job of :mod:`repro.sim`.

Execution engine
----------------
:class:`GpuExecutor` owns host-side allocation, launch orchestration,
shared-memory setup, per-thread stacks and the oracle, and hands
per-thread *stepping* to the interpreter in
:mod:`repro.exec.reference`.  Table III, the only artefact that
launches kernels, makes 168 launches that step 785 IR instructions in
all, so the engine is kept simple rather than fast.

Design notes
------------
* Pointer *comparisons* operate on translated (address) bits, not raw
  tagged words.  This mirrors how a bounds-tagged ISA must compare
  pointers, and is what makes the paper's delayed-termination example
  (Figure 14) exit its loop normally even after the OCU has cleared
  the extent of the one-past-the-end pointer.
* ``free`` / invalid-free / double-free bookkeeping lives in the
  allocators and is shared by all mechanisms — the paper notes these
  two temporal classes are "provided by basic CUDA functions".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..allocator.aligned import AlignedAllocator
from ..allocator.baseline import BaselineAllocator
from ..allocator.device_malloc import DeviceHeapAllocator
from ..allocator.rss import FootprintMeter
from ..allocator.shared import SharedAllocator
from ..allocator.stack import StackAllocator
from ..common.errors import (
    MemorySafetyViolation,
    MemorySpace,
    SimulationError,
    ViolationKind,
)
from ..compiler.ir import Module
from ..memory import layout
from ..memory.sparse import SparseMemory
from ..memory.tracker import AllocationRecord, AllocationTracker, FieldLayout
from ..mechanisms.base import ExecContext, Mechanism
from ..telemetry import EventKind
from ..telemetry.runtime import TELEMETRY
from . import reference
from .result import LaunchResult, OracleEvent

#: Span given to the global and heap allocators (64 MiB is plenty for
#: test kernels while keeping buddy bookkeeping snappy).
_ARENA_SPAN = 64 * 1024 * 1024
#: Per-block shared window size actually handed to the allocator.
_SHARED_SPAN = 1 << layout.SHARED_WINDOW_BITS
#: Per-thread local window size.
_LOCAL_SPAN = 1 << layout.LOCAL_WINDOW_BITS
#: Headroom kept above the stack top inside each local window: spill
#: slots, ABI scratch and driver data live there on a real GPU, so an
#: upward stack-buffer overflow stays *inside* the thread's local
#: window (which is why region-granular schemes miss it).
_STACK_HEADROOM = 64 * 1024

class GpuExecutor:
    """Functional executor for one module + mechanism pairing."""

    def __init__(
        self,
        module: Module,
        mechanism: Optional[Mechanism] = None,
        *,
        grid_blocks: int = 1,
        block_threads: int = 1,
        max_steps: int = 200_000,
    ) -> None:
        if grid_blocks <= 0 or block_threads <= 0:
            raise SimulationError("grid/block dimensions must be positive")
        module.verify()
        self.module = module
        self.mechanism = mechanism if mechanism is not None else Mechanism()
        self.grid_blocks = grid_blocks
        self.block_threads = block_threads
        self.max_steps = max_steps

        self.memory = SparseMemory()
        self.tracker = AllocationTracker()
        self.global_meter = FootprintMeter()
        self.heap_meter = FootprintMeter()

        mech = self.mechanism
        if mech.aligned_global:
            self._global_alloc = AlignedAllocator(
                layout.GLOBAL_BASE,
                _ARENA_SPAN,
                meter=self.global_meter,
                space=MemorySpace.GLOBAL,
            )
        else:
            self._global_alloc = BaselineAllocator(
                layout.GLOBAL_BASE,
                _ARENA_SPAN,
                meter=self.global_meter,
                space=MemorySpace.GLOBAL,
            )
        if mech.aligned_heap:
            self._heap_alloc = AlignedAllocator(
                layout.HEAP_BASE,
                _ARENA_SPAN,
                meter=self.heap_meter,
                space=MemorySpace.HEAP,
            )
        else:
            self._heap_alloc = DeviceHeapAllocator(
                layout.HEAP_BASE, _ARENA_SPAN, meter=self.heap_meter
            )

        self._stacks: Dict[int, StackAllocator] = {}
        self._stack_records: Dict[int, AllocationRecord] = {}  # base -> record
        self._shared_ptrs: Dict[Tuple[int, str], Tuple[int, AllocationRecord]] = {}
        self._dyn_shared_ptr: Dict[int, Tuple[int, AllocationRecord]] = {}
        self._host_records: Dict[int, AllocationRecord] = {}
        self._arg_provenance: Dict[str, AllocationRecord] = {}
        self._shared_ready = False
        self._oracle_events: List[OracleEvent] = []
        self._steps = 0

        mech.bind(ExecContext(memory=self.memory, tracker=self.tracker))

    # ------------------------------------------------------------------
    # Host-side API (cudaMalloc / cudaFree analogues)

    def host_alloc(
        self,
        size: int,
        *,
        fields: Tuple[Tuple[str, int, int], ...] = (),
    ) -> int:
        """Allocate a global buffer before launch; returns the tagged
        pointer to pass as a kernel argument."""
        pre, post = self.mechanism.padding(size, MemorySpace.GLOBAL)
        block = self._global_alloc.alloc(size + pre + post)
        base = block.base + pre
        record = self.tracker.on_alloc(
            base,
            size,
            MemorySpace.GLOBAL,
            fields=tuple(FieldLayout(*f) for f in fields),
        )
        pointer = self.mechanism.tag_pointer(
            base, size, MemorySpace.GLOBAL, record=record
        )
        self._host_records[pointer] = record
        return pointer

    def host_free(self, pointer: int) -> int:
        """Free a global buffer (``cudaFree``).

        Returns the pointer value after the runtime's invalidation —
        under LMI the extent is nullified, so passing the returned
        value to a later kernel faults at the EC; stale *copies* of the
        pre-free value do not (Figure 11's limitation).
        """
        raw = self.mechanism.translate(pointer)
        pre, _ = self.mechanism.padding(
            self._requested_size(raw), MemorySpace.GLOBAL
        )
        record = self.tracker.live_at(raw)
        if record is None:
            self._record_bad_free(raw, MemorySpace.GLOBAL, thread=-1)
        self._global_alloc.free(raw - pre)
        freed = self.tracker.on_free(raw)
        self.mechanism.on_free(pointer, raw, freed)
        return self.mechanism.on_invalidate(pointer)

    def host_record(self, pointer: int) -> Optional[AllocationRecord]:
        """Allocation record behind a host-allocated pointer value."""
        return self._host_records.get(pointer)

    def _requested_size(self, base: int) -> int:
        record = self.tracker.live_at(base)
        return record.size if record is not None else 0

    def _record_bad_free(
        self, raw: int, space: MemorySpace, thread: int
    ) -> None:
        """Oracle record for an invalid or double free.

        The allocator raises right after; classify by whether the base
        was ever a live allocation (O(1) via the tracker's
        ever-allocated index).
        """
        ever = self.tracker.ever_allocated(raw)
        kind = ViolationKind.DOUBLE_FREE if ever else ViolationKind.INVALID_FREE
        self._oracle_events.append(
            OracleEvent(
                kind=kind,
                address=raw,
                width=0,
                thread=thread,
                space=space,
                description="double free" if ever else "invalid free",
            )
        )

    # ------------------------------------------------------------------
    # Launch

    def launch(
        self,
        args: Optional[Dict[str, Union[int, float]]] = None,
        *,
        provenance: Optional[Dict[str, AllocationRecord]] = None,
    ) -> LaunchResult:
        """Run the kernel over the whole grid.

        ``provenance`` optionally pins the oracle's idea of which
        allocation a pointer argument refers to — needed when a *stale*
        pointer is passed after its memory was freed and reused, since
        an untagged bit pattern alone cannot distinguish old from new.
        """
        args = dict(args or {})
        self._arg_provenance = dict(provenance or {})
        kernel = self.module.kernel
        missing = [p.name for p in kernel.params if p.name not in args]
        if missing:
            raise SimulationError(f"missing kernel arguments: {missing}")

        telem = TELEMETRY
        oracle_start = len(self._oracle_events)
        steps_start = self._steps
        if telem.enabled:
            telem.emit(
                EventKind.KERNEL_BEGIN,
                kernel=kernel.name,
                mechanism=self.mechanism.name,
                grid_blocks=self.grid_blocks,
                block_threads=self.block_threads,
            )
        self._setup_shared()
        threads_done = 0
        violation: Optional[MemorySafetyViolation] = None
        with telem.span(
            f"launch:{kernel.name}",
            "launch",
            kernel=kernel.name,
            mechanism=self.mechanism.name,
            grid_blocks=self.grid_blocks,
            block_threads=self.block_threads,
        ):
            try:
                for block_id in range(self.grid_blocks):
                    runners = [
                        self._make_runner(
                            block_id * self.block_threads + lane, block_id, args
                        )
                        for lane in range(self.block_threads)
                    ]
                    # Phase-stepped execution: every thread runs to the
                    # next barrier (or completion) before any proceeds
                    # past it -- __syncthreads semantics.
                    pending = runners
                    while pending:
                        still_running = []
                        for runner in pending:
                            if runner.run_phase() == "barrier":
                                still_running.append(runner)
                            else:
                                threads_done += 1
                        pending = still_running
                self.mechanism.on_kernel_end()
            except MemorySafetyViolation as caught:
                violation = caught
        result = LaunchResult(
            completed=violation is None,
            violation=violation,
            oracle_events=self._oracle_events[oracle_start:],
            steps=self._steps - steps_start,
            threads_completed=threads_done,
            mechanism=self.mechanism.name,
            mechanism_stats=self.mechanism.stats.snapshot(),
        )
        if telem.enabled:
            self._publish_launch_telemetry(telem, kernel.name, result)
        return result

    def _publish_launch_telemetry(
        self, telem, kernel_name: str, result: LaunchResult
    ) -> None:
        """Roll launch counters/events up into the global telemetry hub."""
        mech_name = self.mechanism.name
        self.mechanism.publish_stats(telem.registry)
        telem.counter("exec.launches", mechanism=mech_name).inc()
        telem.counter("exec.steps", mechanism=mech_name).inc(result.steps)
        for event in result.oracle_events:
            telem.emit(
                EventKind.ORACLE_VIOLATION,
                kernel=kernel_name,
                violation_kind=event.kind.value,
                address=event.address,
                width=event.width,
                thread=event.thread,
                space=event.space,
                description=event.description,
            )
            telem.counter(
                "oracle.violations",
                kind=event.kind.value,
                space=str(event.space),
            ).inc()
        mismatch = None
        if result.false_positive:
            mismatch = "false_positive"
        elif result.false_negative:
            mismatch = "false_negative"
        if mismatch is not None:
            telem.emit(
                EventKind.ORACLE_MISMATCH,
                kernel=kernel_name,
                mechanism=mech_name,
                mismatch=mismatch,
            )
            telem.counter(
                "oracle.mismatches", mechanism=mech_name, kind=mismatch
            ).inc()
        if result.violation is not None:
            telem.emit(
                EventKind.DETECTION,
                kernel=kernel_name,
                mechanism=mech_name,
                violation=type(result.violation).__name__,
            )
        telem.emit(
            EventKind.KERNEL_END,
            kernel=kernel_name,
            mechanism=mech_name,
            completed=result.completed,
            steps=result.steps,
        )

    def _setup_shared(self) -> None:
        if self._shared_ready:
            return
        self._shared_ready = True
        mech = self.mechanism
        for block_id in range(self.grid_blocks):
            allocator = SharedAllocator(
                layout.shared_window(block_id),
                _SHARED_SPAN,
                lmi_aligned=mech.aligned_shared,
            )
            for decl in self.module.shared_arrays:
                buffer = allocator.alloc_static(decl.size)
                record = self.tracker.on_alloc(
                    buffer.base, decl.size, MemorySpace.SHARED, block=block_id
                )
                pointer = mech.tag_pointer(
                    buffer.base,
                    decl.size,
                    MemorySpace.SHARED,
                    block=block_id,
                    record=record,
                )
                self._shared_ptrs[(block_id, decl.name)] = (pointer, record)
            if self.module.dynamic_shared_bytes:
                pool = allocator.alloc_dynamic_pool(self.module.dynamic_shared_bytes)
                record = self.tracker.on_alloc(
                    pool.base,
                    self.module.dynamic_shared_bytes,
                    MemorySpace.SHARED,
                    block=block_id,
                )
                pointer = mech.tag_pointer(
                    pool.base,
                    pool.rounded,
                    MemorySpace.SHARED,
                    block=block_id,
                    coarse=True,
                    record=record,
                )
                self._dyn_shared_ptr[block_id] = (pointer, record)

    # ------------------------------------------------------------------
    # Per-thread execution

    def _stack_for(self, thread: int) -> StackAllocator:
        stack = self._stacks.get(thread)
        if stack is None:
            stack = StackAllocator(
                layout.local_window(thread),
                _LOCAL_SPAN - _STACK_HEADROOM,
                lmi_aligned=self.mechanism.aligned_stack,
            )
            self._stacks[thread] = stack
        return stack

    def _make_runner(
        self, thread: int, block_id: int, args: Dict[str, Union[int, float]]
    ):
        """Build the per-thread interpreter runner."""
        return reference.make_runner(self, thread, block_id, args)

    # ------------------------------------------------------------------
    # Scope lifecycle

    def _close_scope(self, frame, stack: StackAllocator, thread: int) -> None:
        if frame.open_scopes <= 0:
            raise SimulationError("scope end without matching begin")
        frame.open_scopes -= 1
        dying = stack.pop_frame()
        records = []
        for buffer in dying:
            record = self._stack_records.pop(buffer.base, None)
            if record is not None and record.live:
                self.tracker.on_free(buffer.base)
                records.append(record)
        if records:
            self.mechanism.on_scope_exit(records, thread=thread)
