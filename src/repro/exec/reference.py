"""SIMT interpreter: the functional executor's one engine.

:class:`~repro.exec.executor.GpuExecutor` steps every thread through
this module.  It re-decides the instruction class with an
``isinstance`` ladder on every step, keeps thread state in
``id(Value)``-keyed dict environments, and re-derives
type/direction/telemetry labels on every memory access.
``tests/test_executor_fingerprints.py`` pins what it observably does:
oracle events, violations, mechanism stats, step counts, final memory
digests and the telemetry a launch publishes.

Do not "optimise" this module: its value is being the slow, obviously
correct implementation, and its traffic does not pay for anything
faster.  Table III, the only artefact that launches kernels, makes 168
launches that step 785 IR instructions in all, too few for a compile
pass per launched program to pay for itself.
``_goto`` resolves labels through the precomputed
:meth:`~repro.compiler.ir.Function.block_indices` map instead of a
per-jump linear scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..common.errors import MemorySpace, SimulationError, ViolationKind
from ..compiler.ir import (
    Alloca,
    Barrier,
    BinOp,
    BinOpKind,
    BlockIdx,
    Branch,
    Call,
    Cmp,
    CmpKind,
    Const,
    DynSharedRef,
    Free,
    Function,
    Instr,
    IntToPtr,
    IRType,
    InvalidateExtent,
    Jump,
    Load,
    Malloc,
    Operand,
    PtrAdd,
    PtrToInt,
    Ret,
    ScopeBegin,
    ScopeEnd,
    SharedRef,
    Store,
    ThreadIdx,
    Value,
)
from ..memory import layout
from ..memory.tracker import AllocationRecord, FieldLayout
from ..telemetry import EventKind
from ..telemetry.runtime import TELEMETRY
from .result import OracleEvent


@dataclass
class _Frame:
    """One interpreter call frame."""

    function: Function
    block_index: int = 0
    instr_index: int = 0
    env: Dict[int, Union[int, float]] = field(default_factory=dict)
    #: Pointer provenance: IR value id -> originating allocation.
    prov: Dict[int, Optional[AllocationRecord]] = field(default_factory=dict)
    #: Value to receive the callee's return (set in the *caller*).
    pending_result: Optional[Value] = None
    #: Stack-allocator frames opened by this call frame (function entry
    #: plus any lexical scopes currently open).
    open_scopes: int = 0


def make_runner(executor, thread: int, block_id: int, args) -> "ReferenceThreadRunner":
    """Build a reference runner with the entry frame populated."""
    kernel = executor.module.kernel
    stack = executor._stack_for(thread)
    entry = _Frame(function=kernel)
    for param in kernel.params:
        value = args[param.name]
        entry.env[id(param)] = value
        if param.type is IRType.PTR and isinstance(value, int):
            pinned = executor._arg_provenance.get(param.name)
            entry.prov[id(param)] = (
                pinned if pinned is not None else executor._host_records.get(value)
            )
    stack.push_frame()
    entry.open_scopes = 1
    return ReferenceThreadRunner(
        executor=executor,
        thread=thread,
        block_id=block_id,
        stack=stack,
        frames=[entry],
        budget=executor.max_steps,
    )


# ----------------------------------------------------------------------
# Operand evaluation


def _value(frame: _Frame, operand: Operand) -> Union[int, float]:
    if isinstance(operand, Const):
        return operand.value
    try:
        return frame.env[id(operand)]
    except KeyError:
        raise SimulationError(
            f"use of undefined value %{operand.name} in "
            f"{frame.function.name!r}"
        ) from None


def _prov(frame: _Frame, operand: Operand) -> Optional[AllocationRecord]:
    """Provenance of a pointer operand (None for constants/forged)."""
    if isinstance(operand, Const):
        return None
    return frame.prov.get(id(operand))


# ----------------------------------------------------------------------
# Instruction semantics


def _execute(
    executor,
    instr: Instr,
    frame: _Frame,
    frames: List[_Frame],
    stack,
    thread: int,
    block_id: int,
) -> Optional[str]:
    mech = executor.mechanism
    env = frame.env

    if isinstance(instr, Alloca):
        buffer = stack.alloca(instr.size)
        record = executor.tracker.on_alloc(
            buffer.base,
            instr.size,
            MemorySpace.LOCAL,
            thread=thread,
            fields=tuple(FieldLayout(*f) for f in instr.fields),
        )
        executor._stack_records[buffer.base] = record
        frame.prov[id(instr.result)] = record
        env[id(instr.result)] = mech.tag_pointer(
            buffer.base,
            instr.size,
            MemorySpace.LOCAL,
            thread=thread,
            record=record,
        )
        return

    if isinstance(instr, Malloc):
        size = int(_value(frame, instr.size))
        if mech.aligned_heap:
            block = executor._heap_alloc.alloc(size)
            base = block.base
        else:
            block = executor._heap_alloc.alloc(size, thread)
            base = block.base
        record = executor.tracker.on_alloc(
            base,
            size,
            MemorySpace.HEAP,
            thread=thread,
            fields=tuple(FieldLayout(*f) for f in instr.fields),
        )
        frame.prov[id(instr.result)] = record
        env[id(instr.result)] = mech.tag_pointer(
            base, size, MemorySpace.HEAP, thread=thread, record=record
        )
        return

    if isinstance(instr, Free):
        pointer = int(_value(frame, instr.ptr))
        raw = mech.translate(pointer)
        record = executor.tracker.live_at(raw)
        if record is None:
            executor._record_bad_free(raw, MemorySpace.HEAP, thread)
        executor._heap_alloc.free(raw)  # raises on invalid/double free
        freed = executor.tracker.on_free(raw)
        mech.on_free(pointer, raw, freed, thread=thread)
        return

    if isinstance(instr, PtrAdd):
        pointer = int(_value(frame, instr.ptr))
        offset = int(_value(frame, instr.offset))
        raw_result = (pointer + offset) & ((1 << 64) - 1)
        frame.prov[id(instr.result)] = _prov(frame, instr.ptr)
        env[id(instr.result)] = mech.on_ptr_arith(
            pointer,
            raw_result,
            activated=instr.hint_activate,
            thread=thread,
        )
        if TELEMETRY.enabled:
            TELEMETRY.emit(
                EventKind.PTR_ARITH,
                thread=thread,
                activated=instr.hint_activate,
                offset=offset,
            )
            TELEMETRY.counter(
                "exec.ptr_arith",
                activated=str(instr.hint_activate).lower(),
            ).inc()
        return

    if isinstance(instr, (Load, Store)):
        _memory_access(executor, instr, frame, thread)
        return

    if isinstance(instr, BinOp):
        lhs = _value(frame, instr.lhs)
        rhs = _value(frame, instr.rhs)
        env[id(instr.result)] = _apply_binop(instr.op, lhs, rhs)
        return

    if isinstance(instr, Cmp):
        lhs = _comparable(executor, frame, instr.lhs)
        rhs = _comparable(executor, frame, instr.rhs)
        env[id(instr.result)] = int(_apply_cmp(instr.op, lhs, rhs))
        return

    if isinstance(instr, ThreadIdx):
        env[id(instr.result)] = thread % executor.block_threads
        return

    if isinstance(instr, BlockIdx):
        env[id(instr.result)] = block_id
        return

    if isinstance(instr, SharedRef):
        pointer, record = executor._shared_ptrs[(block_id, instr.array)]
        env[id(instr.result)] = pointer
        frame.prov[id(instr.result)] = record
        return

    if isinstance(instr, DynSharedRef):
        try:
            pointer, record = executor._dyn_shared_ptr[block_id]
        except KeyError:
            raise SimulationError(
                "kernel uses dynamic shared memory but none was launched"
            ) from None
        env[id(instr.result)] = pointer
        frame.prov[id(instr.result)] = record
        return

    if isinstance(instr, IntToPtr):
        env[id(instr.result)] = int(_value(frame, instr.value))
        return

    if isinstance(instr, PtrToInt):
        env[id(instr.result)] = int(_value(frame, instr.ptr))
        return

    if isinstance(instr, InvalidateExtent):
        if isinstance(instr.ptr, Value) and id(instr.ptr) in env:
            env[id(instr.ptr)] = mech.on_invalidate(
                int(env[id(instr.ptr)]), thread=thread
            )
        return

    if isinstance(instr, ScopeBegin):
        stack.push_frame()
        frame.open_scopes += 1
        return

    if isinstance(instr, ScopeEnd):
        executor._close_scope(frame, stack, thread)
        return

    if isinstance(instr, Barrier):
        return "barrier"

    if isinstance(instr, Call):
        callee = executor.module.functions.get(instr.callee)
        if callee is None:
            raise SimulationError(f"call to unknown function {instr.callee!r}")
        if len(callee.params) != len(instr.args):
            raise SimulationError(
                f"arity mismatch calling {instr.callee!r}"
            )
        new_frame = _Frame(function=callee)
        for param, arg in zip(callee.params, instr.args):
            value = _value(frame, arg)
            if param.type is IRType.PTR:
                value = mech.on_call_boundary(int(value))
                new_frame.prov[id(param)] = _prov(frame, arg)
            new_frame.env[id(param)] = value
        frame.pending_result = instr.result
        stack.push_frame()
        new_frame.open_scopes = 1
        frames.append(new_frame)
        return

    if isinstance(instr, Ret):
        value = (
            _value(frame, instr.value) if instr.value is not None else None
        )
        ret_prov = (
            _prov(frame, instr.value)
            if instr.value is not None
            else None
        )
        while frame.open_scopes:
            executor._close_scope(frame, stack, thread)
        frames.pop()
        if frames:
            caller = frames[-1]
            target = caller.pending_result
            caller.pending_result = None
            if target is not None:
                if value is None:
                    raise SimulationError(
                        f"{frame.function.name!r} returned no value to a "
                        "value-expecting call"
                    )
                if target.type is IRType.PTR:
                    value = mech.on_call_boundary(int(value))
                    caller.prov[id(target)] = ret_prov
                caller.env[id(target)] = value
        return

    if isinstance(instr, Branch):
        cond = int(_value(frame, instr.cond))
        target = instr.if_true if cond else instr.if_false
        _goto(frame, target)
        return

    if isinstance(instr, Jump):
        _goto(frame, instr.target)
        return

    raise SimulationError(f"unhandled IR instruction {type(instr).__name__}")


def _goto(frame: _Frame, label: str) -> None:
    index = frame.function.block_indices().get(label)
    if index is None:
        raise SimulationError(f"branch to unknown label {label!r}")
    frame.block_index = index
    frame.instr_index = 0


def _comparable(executor, frame: _Frame, operand: Operand) -> Union[int, float]:
    """Operand value for comparisons: pointers compare by address."""
    value = _value(frame, operand)
    if isinstance(operand, Value) and operand.type is IRType.PTR:
        return executor.mechanism.translate(int(value))
    if isinstance(operand, Const) and operand.type is IRType.PTR:
        return executor.mechanism.translate(int(value))
    return value


# ----------------------------------------------------------------------
# Memory accesses


def _memory_access(
    executor, instr: Union[Load, Store], frame: _Frame, thread: int
) -> None:
    mech = executor.mechanism
    is_store = isinstance(instr, Store)
    pointer = int(_value(frame, instr.ptr))
    raw = mech.translate(pointer)
    space = layout.space_of(raw)
    width = instr.width

    if TELEMETRY.enabled:
        TELEMETRY.counter(
            "exec.accesses",
            space=str(space),
            kind="store" if is_store else "load",
        ).inc()
        TELEMETRY.emit(
            EventKind.ACCESS_CHECK,
            thread=thread,
            address=raw,
            width=width,
            space=space,
            store=is_store,
        )

    verdict = executor.tracker.classify_provenanced(
        raw,
        width,
        _prov(frame, instr.ptr),
        expected_field=instr.expected_field,
    )
    if verdict.is_violation:
        if verdict.use_after_free:
            kind = ViolationKind.TEMPORAL
            description = "use after free/scope"
        elif verdict.intra_object_overflow:
            kind = ViolationKind.SPATIAL
            description = "intra-object overflow"
        else:
            kind = ViolationKind.SPATIAL
            description = "out-of-bounds access"
        executor._oracle_events.append(
            OracleEvent(
                kind=kind,
                address=raw,
                width=width,
                thread=thread,
                space=space,
                is_store=is_store,
                intra_object=verdict.intra_object_overflow,
                description=description,
            )
        )

    mech.check_access(
        pointer, raw, width, space, thread=thread, is_store=is_store
    )

    if is_store:
        value = _value(frame, instr.value)
        value_type = (
            instr.value.type
            if isinstance(instr.value, (Value, Const))
            else None
        )
        if value_type is IRType.F32 or isinstance(value, float):
            executor.memory.store_f32(raw, float(value))
        else:
            if value_type is IRType.PTR:
                mech.on_pointer_store(raw, int(value), thread=thread)
            executor.memory.store(raw, int(value), width)
    else:
        if instr.type is IRType.F32:
            frame.env[id(instr.result)] = executor.memory.load_f32(raw)
        else:
            loaded = executor.memory.load(raw, width)
            if instr.type is IRType.PTR:
                loaded = mech.on_pointer_load(raw, loaded, thread=thread)
                frame.prov[id(instr.result)] = executor.tracker.find_live(
                    mech.translate(loaded)
                )
            frame.env[id(instr.result)] = loaded


@dataclass
class ReferenceThreadRunner:
    """Resumable per-thread interpreter state.

    ``run_phase`` executes until the next block-wide barrier (returns
    "barrier") or until the thread finishes (returns "done").  The
    launch loop interleaves runners phase by phase, giving correct
    ``__syncthreads`` producer/consumer ordering.
    """

    executor: object
    thread: int
    block_id: int
    stack: object
    frames: List[_Frame]
    budget: int

    def run_phase(self) -> str:
        executor = self.executor
        while self.frames:
            frame = self.frames[-1]
            block = frame.function.blocks[frame.block_index]
            if frame.instr_index >= len(block.instrs):
                raise SimulationError(
                    f"fell off block {block.label!r} in "
                    f"{frame.function.name!r}"
                )
            instr = block.instrs[frame.instr_index]
            frame.instr_index += 1
            self.budget -= 1
            executor._steps += 1
            if self.budget <= 0:
                raise SimulationError(
                    f"thread {self.thread} exceeded "
                    f"{executor.max_steps} steps"
                )
            signal = _execute(
                executor, instr, frame, self.frames, self.stack, self.thread,
                self.block_id,
            )
            if signal == "barrier":
                return "barrier"
        return "done"


def _apply_binop(
    op: BinOpKind, lhs: Union[int, float], rhs: Union[int, float]
) -> Union[int, float]:
    if op is BinOpKind.ADD:
        return lhs + rhs
    if op is BinOpKind.SUB:
        return lhs - rhs
    if op is BinOpKind.MUL:
        return lhs * rhs
    if op is BinOpKind.AND:
        return int(lhs) & int(rhs)
    if op is BinOpKind.OR:
        return int(lhs) | int(rhs)
    if op is BinOpKind.XOR:
        return int(lhs) ^ int(rhs)
    if op is BinOpKind.SHL:
        return int(lhs) << int(rhs)
    if op is BinOpKind.SHR:
        return int(lhs) >> int(rhs)
    if op is BinOpKind.FADD:
        return float(lhs) + float(rhs)
    if op is BinOpKind.FMUL:
        return float(lhs) * float(rhs)
    raise SimulationError(f"unhandled binop {op}")


def _apply_cmp(op: CmpKind, lhs, rhs) -> bool:
    if op is CmpKind.EQ:
        return lhs == rhs
    if op is CmpKind.NE:
        return lhs != rhs
    if op is CmpKind.LT:
        return lhs < rhs
    if op is CmpKind.LE:
        return lhs <= rhs
    if op is CmpKind.GT:
        return lhs > rhs
    if op is CmpKind.GE:
        return lhs >= rhs
    raise SimulationError(f"unhandled comparison {op}")


__all__ = ["ReferenceThreadRunner", "make_runner"]
