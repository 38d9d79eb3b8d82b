"""Mini kernel IR — the LLVM-IR analogue the LMI compiler pass works on.

The IR is deliberately close to what ``clang -O0`` emits for CUDA
kernels: typed values, ``alloca``-backed locals instead of SSA phis,
explicit ``ptradd`` (getelementptr) for pointer arithmetic, and
``inttoptr`` / ``ptrtoint`` casts that exist *only* so the LMI pass can
reject them (paper section XII-B).

A :class:`Module` holds functions; the entry function is the kernel.
Statically-declared shared arrays are module-level declarations placed
by the driver at launch (paper section V-B), referenced from code with
:class:`SharedRef`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..common.errors import CompileError


class IRType(enum.Enum):
    """Value types."""

    I32 = "i32"
    I64 = "i64"
    F32 = "f32"
    PTR = "ptr"

    @property
    def width(self) -> int:
        """Byte width of the type."""
        return {IRType.I32: 4, IRType.I64: 8, IRType.F32: 4, IRType.PTR: 8}[self]


_value_ids = itertools.count(1)


@dataclass(frozen=True, eq=False)
class Value:
    """An IR value (instruction result or function parameter)."""

    name: str
    type: IRType

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"%{self.name}:{self.type.value}"


@dataclass(frozen=True)
class Const:
    """A literal operand."""

    value: Union[int, float]
    type: IRType = IRType.I64

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value}:{self.type.value}"


Operand = Union[Value, Const]


def operand_type(operand: Operand) -> IRType:
    """Type of a value or constant operand."""
    return operand.type


class BinOpKind(enum.Enum):
    """Arithmetic/logic operators for :class:`BinOp`."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    FADD = "fadd"
    FMUL = "fmul"


class CmpKind(enum.Enum):
    """Comparison predicates for :class:`Cmp`."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"


@dataclass(eq=False)
class Instr:
    """Base class for IR instructions.

    ``hint_activate`` / ``hint_select`` are written by the LMI pass and
    consumed by codegen (they become microcode bits) and by the
    functional executor (they trigger the OCU hook).
    """

    result: Optional[Value] = field(default=None, init=False)
    hint_activate: bool = field(default=False, init=False)
    hint_select: int = field(default=0, init=False)

    def operands(self) -> Tuple[Operand, ...]:
        """Operands read by this instruction (overridden per class)."""
        return ()


def _mk_result(instr: Instr, name: str, type_: IRType) -> Value:
    value = Value(name=name, type=type_)
    instr.result = value
    return value


@dataclass(eq=False)
class Alloca(Instr):
    """Reserve a stack (local-memory) buffer; result is its pointer.

    ``fields`` optionally declares a sub-object layout for the
    intra-object security tests.
    """

    size: int
    name: str = "buf"
    fields: Tuple[Tuple[str, int, int], ...] = ()  # (name, offset, size)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise CompileError("alloca size must be positive")
        _mk_result(self, self.name, IRType.PTR)


@dataclass(eq=False)
class Malloc(Instr):
    """Device-heap allocation (in-kernel ``malloc``).

    ``fields`` optionally declares a sub-object layout for the
    intra-object security tests, mirroring :class:`Alloca`.
    """

    size: Operand
    name: str = "heap"
    fields: Tuple[Tuple[str, int, int], ...] = ()

    def __post_init__(self) -> None:
        _mk_result(self, self.name, IRType.PTR)

    def operands(self) -> Tuple[Operand, ...]:
        return (self.size,)


@dataclass(eq=False)
class Free(Instr):
    """Device-heap ``free``."""

    ptr: Operand

    def operands(self) -> Tuple[Operand, ...]:
        return (self.ptr,)


@dataclass(eq=False)
class PtrAdd(Instr):
    """Pointer arithmetic: ``result = ptr + offset_bytes`` (GEP)."""

    ptr: Operand
    offset: Operand
    name: str = "gep"

    def __post_init__(self) -> None:
        if operand_type(self.ptr) is not IRType.PTR:
            raise CompileError("ptradd base must be a pointer")
        _mk_result(self, self.name, IRType.PTR)

    def operands(self) -> Tuple[Operand, ...]:
        return (self.ptr, self.offset)


@dataclass(eq=False)
class Load(Instr):
    """Memory load of ``width`` bytes through a pointer.

    ``expected_field`` names the sub-object the source program intends
    to access (consumed by the security oracle only).
    """

    ptr: Operand
    width: int = 4
    name: str = "ld"
    type: IRType = IRType.I64
    expected_field: Optional[str] = None

    def __post_init__(self) -> None:
        if operand_type(self.ptr) is not IRType.PTR:
            raise CompileError("load address must be a pointer")
        _mk_result(self, self.name, self.type)

    def operands(self) -> Tuple[Operand, ...]:
        return (self.ptr,)


@dataclass(eq=False)
class Store(Instr):
    """Memory store of ``width`` bytes through a pointer."""

    ptr: Operand
    value: Operand
    width: int = 4
    expected_field: Optional[str] = None

    def __post_init__(self) -> None:
        if operand_type(self.ptr) is not IRType.PTR:
            raise CompileError("store address must be a pointer")

    def operands(self) -> Tuple[Operand, ...]:
        return (self.ptr, self.value)


@dataclass(eq=False)
class BinOp(Instr):
    """Binary arithmetic on integers or floats."""

    op: BinOpKind
    lhs: Operand
    rhs: Operand
    name: str = "tmp"
    type: IRType = IRType.I64

    def __post_init__(self) -> None:
        _mk_result(self, self.name, self.type)

    def operands(self) -> Tuple[Operand, ...]:
        return (self.lhs, self.rhs)


@dataclass(eq=False)
class Cmp(Instr):
    """Integer comparison producing an i32 boolean."""

    op: CmpKind
    lhs: Operand
    rhs: Operand
    name: str = "cmp"

    def __post_init__(self) -> None:
        _mk_result(self, self.name, IRType.I32)

    def operands(self) -> Tuple[Operand, ...]:
        return (self.lhs, self.rhs)


@dataclass(eq=False)
class ThreadIdx(Instr):
    """Read the flat thread index within the block."""

    name: str = "tid"

    def __post_init__(self) -> None:
        _mk_result(self, self.name, IRType.I64)


@dataclass(eq=False)
class BlockIdx(Instr):
    """Read the block index within the grid."""

    name: str = "bid"

    def __post_init__(self) -> None:
        _mk_result(self, self.name, IRType.I64)


@dataclass(eq=False)
class SharedRef(Instr):
    """Pointer to a statically-declared shared array."""

    array: str
    name: str = "sref"

    def __post_init__(self) -> None:
        _mk_result(self, self.name, IRType.PTR)


@dataclass(eq=False)
class DynSharedRef(Instr):
    """Pointer to the dynamic (extern) shared pool."""

    name: str = "dynshared"

    def __post_init__(self) -> None:
        _mk_result(self, self.name, IRType.PTR)


@dataclass(eq=False)
class IntToPtr(Instr):
    """Forge a pointer from an integer — rejected by the LMI pass."""

    value: Operand
    name: str = "forged"

    def __post_init__(self) -> None:
        _mk_result(self, self.name, IRType.PTR)

    def operands(self) -> Tuple[Operand, ...]:
        return (self.value,)


@dataclass(eq=False)
class PtrToInt(Instr):
    """Expose a pointer as an integer — rejected by the LMI pass."""

    ptr: Operand
    name: str = "asint"

    def __post_init__(self) -> None:
        _mk_result(self, self.name, IRType.I64)

    def operands(self) -> Tuple[Operand, ...]:
        return (self.ptr,)


@dataclass(eq=False)
class InvalidateExtent(Instr):
    """Nullify a pointer's extent field (inserted by the LMI pass).

    On non-LMI mechanisms this is a no-op, matching how the nullify
    instruction only has meaning when extents exist.
    """

    ptr: Operand

    def operands(self) -> Tuple[Operand, ...]:
        return (self.ptr,)


@dataclass(eq=False)
class ScopeBegin(Instr):
    """Open a lexical scope (``{`` in C).

    Allocas between a ScopeBegin and its matching ScopeEnd die at the
    ScopeEnd, not at function return — the basis of the
    use-after-scope security tests.
    """


@dataclass(eq=False)
class ScopeEnd(Instr):
    """Close the innermost lexical scope, killing its allocas.

    The LMI pass additionally inserts extent nullification for the
    dying buffers right before this point.
    """


@dataclass(eq=False)
class Call(Instr):
    """Direct call to another function in the module."""

    callee: str
    args: Tuple[Operand, ...] = ()
    name: str = "call"
    type: IRType = IRType.I64
    returns_value: bool = True

    def __post_init__(self) -> None:
        if self.returns_value:
            _mk_result(self, self.name, self.type)

    def operands(self) -> Tuple[Operand, ...]:
        return tuple(self.args)


@dataclass(eq=False)
class Ret(Instr):
    """Return from the current function."""

    value: Optional[Operand] = None

    def operands(self) -> Tuple[Operand, ...]:
        return () if self.value is None else (self.value,)


@dataclass(eq=False)
class Branch(Instr):
    """Conditional branch on a nonzero condition."""

    cond: Operand
    if_true: str
    if_false: str

    def operands(self) -> Tuple[Operand, ...]:
        return (self.cond,)


@dataclass(eq=False)
class Jump(Instr):
    """Unconditional branch."""

    target: str


@dataclass(eq=False)
class Barrier(Instr):
    """Block-wide synchronization (``__syncthreads``)."""


@dataclass
class BasicBlock:
    """A labelled straight-line sequence of instructions."""

    label: str
    instrs: List[Instr] = field(default_factory=list)

    def append(self, instr: Instr) -> Instr:
        """Append an instruction and return it."""
        self.instrs.append(instr)
        return instr

    @property
    def terminator(self) -> Optional[Instr]:
        """The final control-flow instruction, if present."""
        if self.instrs and isinstance(self.instrs[-1], (Branch, Jump, Ret)):
            return self.instrs[-1]
        return None


@dataclass
class Function:
    """One IR function with parameters and basic blocks."""

    name: str
    params: List[Value] = field(default_factory=list)
    blocks: List[BasicBlock] = field(default_factory=list)

    def block(self, label: str) -> BasicBlock:
        """Find a block by label."""
        for block in self.blocks:
            if block.label == label:
                return block
        raise CompileError(f"no block {label!r} in function {self.name!r}")

    def block_indices(self) -> Dict[str, int]:
        """``label -> block index`` map, built once and cached.

        Replaces the per-jump linear label scan the executor used to
        do.  The cache is invalidated automatically when blocks are
        appended (builders grow functions incrementally), keyed on the
        block count.  First occurrence wins on duplicate labels,
        matching the old first-match scan; :meth:`verify` rejects
        duplicates anyway.
        """
        cached = getattr(self, "_label_cache", None)
        if cached is not None and cached[0] == len(self.blocks):
            return cached[1]
        mapping: Dict[str, int] = {}
        for index, block in enumerate(self.blocks):
            if block.label not in mapping:
                mapping[block.label] = index
        self._label_cache = (len(self.blocks), mapping)
        return mapping

    @property
    def entry(self) -> BasicBlock:
        """The first basic block."""
        if not self.blocks:
            raise CompileError(f"function {self.name!r} has no blocks")
        return self.blocks[0]

    def instructions(self):
        """Iterate over all instructions in layout order."""
        for block in self.blocks:
            yield from block.instrs

    def allocas(self) -> List[Alloca]:
        """All stack allocations in this function."""
        return [i for i in self.instructions() if isinstance(i, Alloca)]

    def verify(self) -> None:
        """Structural sanity checks: labels resolve, blocks terminate."""
        labels = {block.label for block in self.blocks}
        if len(labels) != len(self.blocks):
            raise CompileError(f"duplicate block labels in {self.name!r}")
        for block in self.blocks:
            terminator = block.terminator
            if terminator is None:
                raise CompileError(
                    f"block {block.label!r} in {self.name!r} has no terminator"
                )
            for instr in block.instrs[:-1]:
                if isinstance(instr, (Branch, Jump, Ret)):
                    raise CompileError(
                        f"terminator in the middle of block {block.label!r}"
                    )
            if isinstance(terminator, Branch):
                targets = (terminator.if_true, terminator.if_false)
            elif isinstance(terminator, Jump):
                targets = (terminator.target,)
            else:
                targets = ()
            for target in targets:
                if target not in labels:
                    raise CompileError(
                        f"branch to unknown label {target!r} in {self.name!r}"
                    )


@dataclass(frozen=True)
class SharedArrayDecl:
    """A statically-declared ``__shared__`` array."""

    name: str
    size: int


@dataclass
class Module:
    """A compiled kernel module."""

    name: str
    functions: Dict[str, Function] = field(default_factory=dict)
    entry: str = "kernel"
    shared_arrays: List[SharedArrayDecl] = field(default_factory=list)
    dynamic_shared_bytes: int = 0

    def add_function(self, function: Function) -> Function:
        """Register a function (names must be unique)."""
        if function.name in self.functions:
            raise CompileError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    @property
    def kernel(self) -> Function:
        """The entry (kernel) function."""
        try:
            return self.functions[self.entry]
        except KeyError:
            raise CompileError(f"no entry function {self.entry!r}") from None

    def verify(self) -> None:
        """Verify every function and cross-function references."""
        for function in self.functions.values():
            function.verify()
            for instr in function.instructions():
                if isinstance(instr, Call) and instr.callee not in self.functions:
                    raise CompileError(f"call to unknown function {instr.callee!r}")
                if isinstance(instr, SharedRef) and not any(
                    d.name == instr.array for d in self.shared_arrays
                ):
                    raise CompileError(f"unknown shared array {instr.array!r}")
