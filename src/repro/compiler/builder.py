"""Fluent builder for constructing IR kernels.

The security test suite and the examples construct dozens of small
kernels; the builder keeps them readable::

    b = KernelBuilder("overflow_demo", params=[("data", IRType.PTR)])
    idx = b.thread_idx()
    p = b.ptradd(b.param("data"), b.mul(idx, 4))
    b.store(p, b.const(42), width=4)
    b.ret()
    module = b.module()
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from ..common.errors import CompileError
from .ir import (
    Alloca,
    Barrier,
    BasicBlock,
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
    Module,
    Operand,
    PtrAdd,
    PtrToInt,
    Ret,
    ScopeBegin,
    ScopeEnd,
    SharedArrayDecl,
    SharedRef,
    Store,
    ThreadIdx,
    Value,
)


class FunctionBuilder:
    """Builds one function block by block."""

    def __init__(self, name: str, params: Sequence[Tuple[str, IRType]] = ()) -> None:
        self.function = Function(
            name=name,
            params=[Value(name=n, type=t) for n, t in params],
        )
        self._block = BasicBlock(label="entry")
        self.function.blocks.append(self._block)
        self._counter = 0

    # ------------------------------------------------------------------
    # Infrastructure

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def param(self, name: str) -> Value:
        """Look up a function parameter by name."""
        for value in self.function.params:
            if value.name == name:
                return value
        raise CompileError(f"no parameter {name!r} in {self.function.name!r}")

    def const(self, value: Union[int, float], type_: IRType = IRType.I64) -> Const:
        """Create a literal operand."""
        return Const(value=value, type=type_)

    def new_block(self, label: str) -> BasicBlock:
        """Create a block and make it the insertion point."""
        block = BasicBlock(label=label)
        self.function.blocks.append(block)
        self._block = block
        return block

    def switch_to(self, label: str) -> BasicBlock:
        """Move the insertion point to an existing block."""
        self._block = self.function.block(label)
        return self._block

    def emit(self, instr: Instr) -> Instr:
        """Append a raw instruction at the insertion point."""
        return self._block.append(instr)

    # ------------------------------------------------------------------
    # Allocation

    def alloca(
        self,
        size: int,
        name: str = "buf",
        fields: Tuple[Tuple[str, int, int], ...] = (),
    ) -> Value:
        """Stack buffer; returns its pointer."""
        instr = Alloca(size=size, name=self._fresh(name), fields=fields)
        self.emit(instr)
        return instr.result

    def malloc(
        self,
        size: Union[int, Operand],
        name: str = "heap",
        fields: Tuple[Tuple[str, int, int], ...] = (),
    ) -> Value:
        """Device-heap allocation; returns its pointer."""
        operand = self.const(size) if isinstance(size, int) else size
        instr = Malloc(size=operand, name=self._fresh(name), fields=fields)
        self.emit(instr)
        return instr.result

    def free(self, ptr: Operand) -> None:
        """Device-heap free."""
        self.emit(Free(ptr=ptr))

    def shared(self, array: str) -> Value:
        """Pointer to a statically-declared shared array."""
        instr = SharedRef(array=array, name=self._fresh("sref"))
        self.emit(instr)
        return instr.result

    def dyn_shared(self) -> Value:
        """Pointer to the dynamic shared pool."""
        instr = DynSharedRef(name=self._fresh("dyn"))
        self.emit(instr)
        return instr.result

    # ------------------------------------------------------------------
    # Arithmetic & pointers

    def ptradd(self, ptr: Operand, offset: Union[int, Operand], name: str = "gep") -> Value:
        """Pointer arithmetic in bytes."""
        operand = self.const(offset) if isinstance(offset, int) else offset
        instr = PtrAdd(ptr=ptr, offset=operand, name=self._fresh(name))
        self.emit(instr)
        return instr.result

    def _binop(
        self,
        op: BinOpKind,
        a: Union[int, float, Operand],
        b: Union[int, float, Operand],
        type_: IRType,
    ) -> Value:
        lhs = self.const(a, type_) if isinstance(a, (int, float)) else a
        rhs = self.const(b, type_) if isinstance(b, (int, float)) else b
        instr = BinOp(op=op, lhs=lhs, rhs=rhs, name=self._fresh("t"), type=type_)
        self.emit(instr)
        return instr.result

    def add(self, a, b, type_: IRType = IRType.I64) -> Value:
        """Integer/float add."""
        return self._binop(BinOpKind.ADD, a, b, type_)

    def sub(self, a, b, type_: IRType = IRType.I64) -> Value:
        """Integer subtract."""
        return self._binop(BinOpKind.SUB, a, b, type_)

    def mul(self, a, b, type_: IRType = IRType.I64) -> Value:
        """Integer multiply."""
        return self._binop(BinOpKind.MUL, a, b, type_)

    def shl(self, a, b, type_: IRType = IRType.I64) -> Value:
        """Logical shift left."""
        return self._binop(BinOpKind.SHL, a, b, type_)

    def shr(self, a, b, type_: IRType = IRType.I64) -> Value:
        """Logical shift right."""
        return self._binop(BinOpKind.SHR, a, b, type_)

    def fadd(self, a, b) -> Value:
        """Float add."""
        return self._binop(BinOpKind.FADD, a, b, IRType.F32)

    def fmul(self, a, b) -> Value:
        """Float multiply."""
        return self._binop(BinOpKind.FMUL, a, b, IRType.F32)

    def cmp(
        self, op: CmpKind, a: Union[int, Operand], b: Union[int, Operand]
    ) -> Value:
        """Comparison yielding an i32 boolean."""
        lhs = self.const(a) if isinstance(a, int) else a
        rhs = self.const(b) if isinstance(b, int) else b
        instr = Cmp(op=op, lhs=lhs, rhs=rhs, name=self._fresh("c"))
        self.emit(instr)
        return instr.result

    def inttoptr(self, value: Operand) -> Value:
        """Forge a pointer (will be rejected by the LMI pass)."""
        instr = IntToPtr(value=value, name=self._fresh("forged"))
        self.emit(instr)
        return instr.result

    def ptrtoint(self, ptr: Operand) -> Value:
        """Expose a pointer as an int (rejected by the LMI pass)."""
        instr = PtrToInt(ptr=ptr, name=self._fresh("asint"))
        self.emit(instr)
        return instr.result

    def invalidate(self, ptr: Operand) -> None:
        """Explicit extent nullification (normally pass-inserted)."""
        self.emit(InvalidateExtent(ptr=ptr))

    # ------------------------------------------------------------------
    # Memory

    def load(
        self,
        ptr: Operand,
        width: int = 4,
        type_: IRType = IRType.I64,
        expected_field: Optional[str] = None,
    ) -> Value:
        """Load through a pointer."""
        instr = Load(
            ptr=ptr,
            width=width,
            name=self._fresh("ld"),
            type=type_,
            expected_field=expected_field,
        )
        self.emit(instr)
        return instr.result

    def store(
        self,
        ptr: Operand,
        value: Union[int, float, Operand],
        width: int = 4,
        expected_field: Optional[str] = None,
    ) -> None:
        """Store through a pointer."""
        operand = self.const(value) if isinstance(value, (int, float)) else value
        self.emit(
            Store(ptr=ptr, value=operand, width=width, expected_field=expected_field)
        )

    # ------------------------------------------------------------------
    # Intrinsics & control flow

    def thread_idx(self) -> Value:
        """Flat thread index within the block."""
        instr = ThreadIdx(name=self._fresh("tid"))
        self.emit(instr)
        return instr.result

    def block_idx(self) -> Value:
        """Block index within the grid."""
        instr = BlockIdx(name=self._fresh("bid"))
        self.emit(instr)
        return instr.result

    def barrier(self) -> None:
        """``__syncthreads`` analogue."""
        self.emit(Barrier())

    def scope_begin(self) -> None:
        """Open a lexical scope (``{``)."""
        self.emit(ScopeBegin())

    def scope_end(self) -> None:
        """Close the innermost lexical scope (``}``)."""
        self.emit(ScopeEnd())

    def call(
        self,
        callee: str,
        args: Sequence[Operand] = (),
        type_: IRType = IRType.I64,
        returns_value: bool = True,
    ) -> Optional[Value]:
        """Direct call; returns the result value if one is produced."""
        instr = Call(
            callee=callee,
            args=tuple(args),
            name=self._fresh("call"),
            type=type_,
            returns_value=returns_value,
        )
        self.emit(instr)
        return instr.result

    def branch(self, cond: Operand, if_true: str, if_false: str) -> None:
        """Conditional branch terminator."""
        self.emit(Branch(cond=cond, if_true=if_true, if_false=if_false))

    def jump(self, target: str) -> None:
        """Unconditional branch terminator."""
        self.emit(Jump(target=target))

    def ret(self, value: Optional[Operand] = None) -> None:
        """Return terminator."""
        self.emit(Ret(value=value))


class KernelBuilder(FunctionBuilder):
    """Builds a whole module whose entry function is the kernel."""

    def __init__(
        self,
        name: str,
        params: Sequence[Tuple[str, IRType]] = (),
        shared_arrays: Sequence[Tuple[str, int]] = (),
        dynamic_shared_bytes: int = 0,
    ) -> None:
        super().__init__("kernel", params)
        self._module = Module(
            name=name,
            entry="kernel",
            shared_arrays=[SharedArrayDecl(n, s) for n, s in shared_arrays],
            dynamic_shared_bytes=dynamic_shared_bytes,
        )
        self._module.add_function(self.function)

    def device_function(
        self, name: str, params: Sequence[Tuple[str, IRType]] = ()
    ) -> FunctionBuilder:
        """Start a ``__device__`` helper function in the same module."""
        builder = FunctionBuilder(name, params)
        self._module.add_function(builder.function)
        return builder

    def module(self, verify: bool = True) -> Module:
        """Finish and (optionally) verify the module."""
        if verify:
            self._module.verify()
        return self._module
