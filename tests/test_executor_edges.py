"""Executor edge cases: error paths, pointer comparison semantics,
scope misuse, and barrier-phase behaviour."""

import pytest

from repro.common.errors import SimulationError
from repro.compiler import CmpKind, IRType, KernelBuilder, run_lmi_pass
from repro.exec import GpuExecutor
from repro.mechanisms import BaselineMechanism, LmiMechanism
from repro.telemetry.runtime import capture
from repro.workloads.kernels import KERNEL_CORPUS


class TestErrorPaths:
    def test_fell_off_block_detected(self):
        from repro.compiler.ir import BasicBlock, Function, Module, Ret

        # Hand-build a malformed function that bypasses verify().
        function = Function(name="kernel")
        block = BasicBlock(label="entry")
        block.instrs.append(Ret())
        function.blocks.append(block)
        module = Module(name="bad")
        module.add_function(function)
        executor = GpuExecutor(module)  # verification passes here
        # Strip the terminator afterwards to hit the interpreter guard.
        block.instrs.pop()
        with pytest.raises(SimulationError):
            executor.launch({})

    def test_dyn_shared_without_pool_rejected(self):
        b = KernelBuilder("nopool")
        b.load(b.dyn_shared(), width=4)
        b.ret()
        module = b.module()
        with pytest.raises(SimulationError):
            GpuExecutor(module).launch({})

    def test_deeply_unbalanced_scope_end_rejected(self):
        # One stray scope_end consumes the implicit function frame
        # (tolerated); a second has nothing left to close.
        b = KernelBuilder("unbalanced")
        b.scope_end()
        b.scope_end()
        b.ret()
        module = b.module()
        with pytest.raises(SimulationError):
            GpuExecutor(module).launch({})

    def test_use_of_undefined_value_reported(self):
        from repro.compiler.ir import Load, Value

        b = KernelBuilder("undef")
        ghost = Value(name="ghost", type=IRType.PTR)
        b.emit(Load(ptr=ghost, width=4))
        b.ret()
        module = b.module()
        with pytest.raises(SimulationError):
            GpuExecutor(module).launch({})

    def test_bad_grid_dimensions_rejected(self):
        b = KernelBuilder("noop")
        b.ret()
        module = b.module()
        with pytest.raises(SimulationError):
            GpuExecutor(module, grid_blocks=0)


class TestPointerComparisonSemantics:
    """Pointer compares use address bits (the Figure 14 prerequisite)."""

    def test_tagged_pointers_compare_by_address(self):
        b = KernelBuilder("cmp", params=[("out", IRType.PTR)])
        h = b.malloc(256)
        end = b.ptradd(h, 256)  # extent poisoned by the OCU
        below = b.cmp(CmpKind.LT, h, end)
        b.store(b.param("out"), below, width=4)
        b.ret()
        module = b.module()
        run_lmi_pass(module)
        executor = GpuExecutor(module, LmiMechanism())
        out = executor.host_alloc(256)
        result = executor.launch({"out": out})
        assert result.completed
        # Despite h carrying extent bits and end carrying none, the
        # comparison sees base < base+256.
        assert executor.memory.load(executor.mechanism.translate(out), 4) == 1

    def test_pointer_equality_across_tags(self):
        b = KernelBuilder("eq", params=[("out", IRType.PTR)])
        h = b.malloc(256)
        same = b.ptradd(h, 0)
        equal = b.cmp(CmpKind.EQ, h, same)
        b.store(b.param("out"), equal, width=4)
        b.ret()
        module = b.module()
        run_lmi_pass(module)
        executor = GpuExecutor(module, LmiMechanism())
        out = executor.host_alloc(256)
        executor.launch({"out": out})
        assert executor.memory.load(executor.mechanism.translate(out), 4) == 1


class TestBarrierPhases:
    def test_producer_consumer_across_barrier(self):
        """Thread t reads what thread (t+1)%n wrote before the barrier —
        impossible under sequential-to-completion execution."""
        n = 8
        b = KernelBuilder("xchg", params=[("out", IRType.PTR)],
                          shared_arrays=[("slots", n * 4)])
        tid = b.thread_idx()
        slots = b.shared("slots")
        b.store(b.ptradd(slots, b.mul(tid, 4)), b.add(tid, 100), width=4)
        b.barrier()
        partner = b.add(tid, 1)
        wrapped = b.cmp(CmpKind.EQ, partner, n)
        b.branch(wrapped, "wrap", "read")
        b.new_block("wrap")
        b.store(b.ptradd(b.param("out"), b.mul(tid, 4)),
                b.load(slots, width=4), width=4)
        b.ret()
        b.new_block("read")
        value = b.load(b.ptradd(slots, b.mul(partner, 4)), width=4)
        b.store(b.ptradd(b.param("out"), b.mul(tid, 4)), value, width=4)
        b.ret()
        module = b.module()
        run_lmi_pass(module)
        executor = GpuExecutor(module, LmiMechanism(), block_threads=n)
        out = executor.host_alloc(256)
        result = executor.launch({"out": out})
        assert result.completed
        raw = executor.mechanism.translate(out)
        got = [executor.memory.load(raw + 4 * t, 4) for t in range(n)]
        assert got == [100 + (t + 1) % n for t in range(n)]

    def test_multiple_barriers_round_trip(self):
        b = KernelBuilder("pingpong", params=[("out", IRType.PTR)],
                          shared_arrays=[("slot", 256)])
        tid = b.thread_idx()
        slot = b.shared("slot")
        is_zero = b.cmp(CmpKind.EQ, tid, 0)
        b.branch(is_zero, "w1", "j1")
        b.new_block("w1")
        b.store(slot, 7, width=4)
        b.jump("j1")
        b.new_block("j1")
        b.barrier()
        doubled = b.mul(b.load(slot, width=4), 2)
        b.barrier()
        is_one = b.cmp(CmpKind.EQ, tid, 1)
        b.branch(is_one, "w2", "end")
        b.new_block("w2")
        b.store(b.param("out"), doubled, width=4)
        b.ret()
        b.new_block("end")
        b.ret()
        module = b.module()
        run_lmi_pass(module)
        executor = GpuExecutor(module, BaselineMechanism(), block_threads=4)
        out = executor.host_alloc(256)
        result = executor.launch({"out": out})
        assert result.completed
        assert executor.memory.load(out, 4) == 14

    def test_divergent_exit_before_barrier_is_tolerated(self):
        """Some threads return before the barrier; the others still run
        to completion (this is UB in CUDA; the model must not hang)."""
        b = KernelBuilder("diverge")
        tid = b.thread_idx()
        early = b.cmp(CmpKind.LT, tid, 2)
        b.branch(early, "out", "sync")
        b.new_block("out")
        b.ret()
        b.new_block("sync")
        b.barrier()
        b.ret()
        module = b.module()
        executor = GpuExecutor(module, BaselineMechanism(), block_threads=4)
        result = executor.launch({})
        assert result.completed
        assert result.threads_completed == 4


class TestStepAccounting:
    def test_steps_scale_with_threads(self):
        b = KernelBuilder("tiny")
        b.alloca(64)
        b.ret()
        module = b.module()
        run_lmi_pass(module)
        one = GpuExecutor(module, BaselineMechanism(), block_threads=1).launch({})
        four = GpuExecutor(module, BaselineMechanism(), block_threads=4).launch({})
        assert four.steps == 4 * one.steps

    def test_steps_count_each_launch_once(self):
        # LaunchResult.steps is the launch's own instructions, not the
        # executor's running total, and exec.steps adds them up.
        with capture() as telem:
            executor = GpuExecutor(
                KERNEL_CORPUS["vector_add"](), LmiMechanism(), block_threads=4
            )
            args = {
                p.name: executor.host_alloc(64)
                for p in executor.module.kernel.params
            }
            first = executor.launch(args)
            second = executor.launch(args)
            counters = telem.registry.snapshot()["counters"]
        assert first.steps == second.steps == 40
        assert counters["exec.steps{mechanism=lmi}"] == 80
        assert counters["exec.launches{mechanism=lmi}"] == 2

    def test_threads_completed_on_mid_grid_fault(self):
        b = KernelBuilder("third_fails")
        tid = b.thread_idx()
        h = b.malloc(256)
        is_bad = b.cmp(CmpKind.EQ, tid, 2)
        b.branch(is_bad, "bad", "good")
        b.new_block("bad")
        b.store(b.ptradd(h, 4096), 1, width=4)
        b.ret()
        b.new_block("good")
        b.store(h, 1, width=4)
        b.ret()
        module = b.module()
        run_lmi_pass(module)
        result = GpuExecutor(module, LmiMechanism(), block_threads=8).launch({})
        assert result.detected
        assert result.violation.thread == 2
