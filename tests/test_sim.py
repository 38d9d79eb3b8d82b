"""Tests for the timing simulator: caches, DRAM, scheduler, models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, GpuConfig
from repro.common.errors import SimulationError, TraceFormatError
from repro.sim import (
    BaggyBoundsTiming,
    BaselineTiming,
    DramModel,
    GPUShieldTiming,
    KernelTrace,
    LmiTiming,
    OpClass,
    ReferenceSmSimulator,
    SetAssociativeCache,
    SmSimulator,
    TraceInstruction,
    expand_stream,
    simulate,
)


def small_cache(size=1024, ways=2, line=64):
    return SetAssociativeCache(
        CacheConfig(size_bytes=size, line_bytes=line, ways=ways, hit_latency=10)
    )


def _oracle_bound(model):
    """*model* bound to the oracle, whose hierarchy its hook walks."""
    ReferenceSmSimulator(model=model)
    return model


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)

    def test_same_line_different_bytes_hit(self):
        cache = small_cache(line=64)
        cache.access(0x1000)
        assert cache.access(0x103F)
        assert not cache.access(0x1040)

    def test_lru_eviction(self):
        cache = small_cache(size=256, ways=2, line=64)  # 2 sets
        sets = cache.config.num_sets
        way_stride = 64 * sets
        a, b, c = 0, way_stride, 2 * way_stride  # same set
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a is now MRU
        cache.access(c)  # evicts b (LRU)
        assert cache.access(a)
        assert not cache.access(b)

    def test_probe_does_not_allocate(self):
        cache = small_cache()
        assert not cache.probe(0x1000)
        assert not cache.probe(0x1000)

    def test_flush(self):
        cache = small_cache()
        cache.access(0x1000)
        cache.flush()
        assert not cache.access(0x1000)

    def test_stats(self):
        cache = small_cache()
        cache.access(0x1000)
        cache.access(0x1000)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                    max_size=200))
    def test_working_set_within_capacity_always_hits_second_pass(self, lines):
        cache = SetAssociativeCache(
            CacheConfig(size_bytes=1 << 20, line_bytes=64, ways=16,
                        hit_latency=1)
        )
        unique = sorted({line * 64 for line in lines})[:256]
        for address in unique:
            cache.access(address)
        assert all(cache.access(address) for address in unique)


class TestDram:
    def test_fixed_latency_unloaded(self):
        dram = DramModel(GpuConfig())
        assert dram.request(0, now=100) == 100 + dram.latency

    def test_channel_queuing_under_burst(self):
        dram = DramModel(GpuConfig(dram_channels=1))
        first = dram.request(0, now=0)
        second = dram.request(128, now=0)
        assert second > first  # bandwidth-limited

    def test_channels_are_independent(self):
        dram = DramModel(GpuConfig(dram_channels=8))
        a = dram.request(0 << 7, now=0)
        b = dram.request(1 << 7, now=0)
        assert a == b  # different channels, no queuing

    def test_stats(self):
        dram = DramModel(GpuConfig(dram_channels=1))
        dram.request(0, 0)
        dram.request(128, 0)
        assert dram.stats.requests == 2
        assert dram.stats.queue_delay_cycles > 0


class TestTraceFormat:
    def test_hint_on_memory_op_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceInstruction(op=OpClass.LDG, checked=True, lines=(0,))

    def test_memory_op_needs_lines(self):
        with pytest.raises(TraceFormatError):
            TraceInstruction(op=OpClass.LDG)

    def test_alu_op_cannot_carry_lines(self):
        with pytest.raises(TraceFormatError):
            TraceInstruction(op=OpClass.INT, lines=(0,))

    def test_region_mix(self):
        trace = KernelTrace(
            name="t",
            warps=[[
                TraceInstruction(op=OpClass.LDG, lines=(0,)),
                TraceInstruction(op=OpClass.LDS, lines=(0,)),
                TraceInstruction(op=OpClass.LDS, lines=(0,)),
                TraceInstruction(op=OpClass.STL, lines=(0,)),
                TraceInstruction(op=OpClass.INT),
            ]],
        )
        mix = trace.memory_region_mix()
        assert mix == {"global": 0.25, "shared": 0.5, "local": 0.25}

    def test_empty_trace_mix(self):
        trace = KernelTrace(name="t", warps=[[TraceInstruction(op=OpClass.INT)]])
        assert trace.memory_region_mix() == {
            "global": 0.0, "shared": 0.0, "local": 0.0
        }

    def test_checked_count(self):
        trace = KernelTrace(
            name="t",
            warps=[[TraceInstruction(op=OpClass.INT, checked=True),
                    TraceInstruction(op=OpClass.INT)]],
        )
        assert trace.checked_count() == 1


def _trace(instrs, warps=1):
    return KernelTrace(name="t", warps=[list(instrs) for _ in range(warps)])


class TestScheduler:
    def test_independent_instructions_pipeline(self):
        # 100 independent INT ops from one warp: ~1 IPC issue.
        trace = _trace([TraceInstruction(op=OpClass.INT)] * 100)
        result = simulate(trace)
        assert result.cycles < 120

    def test_dependent_chain_serializes(self):
        trace = _trace([TraceInstruction(op=OpClass.INT, depends=True)] * 100)
        result = simulate(trace)
        assert result.cycles >= 400  # 4-cycle ALU latency per link

    def test_multithreading_hides_dependency_latency(self):
        stream = [TraceInstruction(op=OpClass.INT, depends=True)] * 100
        one = simulate(_trace(stream, warps=1))
        many = simulate(_trace(stream, warps=8))
        assert many.cycles < one.cycles * 8 * 0.5  # strong overlap

    def test_memory_latency_observable(self):
        trace = _trace(
            [TraceInstruction(op=OpClass.LDG, depends=True,
                              lines=(i * 128,)) for i in range(20)]
        )
        result = simulate(trace)
        assert result.cycles > 20 * 30  # at least L1-hit latency per dep load

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            simulate(KernelTrace(name="t", warps=[]))

    def test_deterministic(self):
        trace = _trace(
            [TraceInstruction(op=OpClass.LDG, lines=(i * 128,))
             for i in range(50)],
            warps=4,
        )
        assert simulate(trace).cycles == simulate(trace).cycles

    def test_stats_instruction_count(self):
        trace = _trace([TraceInstruction(op=OpClass.INT)] * 10, warps=3)
        assert simulate(trace).stats.instructions == 30

    def test_cache_hierarchy_counted(self):
        trace = _trace(
            [TraceInstruction(op=OpClass.LDG, lines=(0,))] * 2
        )
        result = simulate(trace)
        assert result.stats.l1_misses == 1  # cold miss
        assert result.stats.l1_hits == 1  # then hit


class TestTimingModels:
    def test_lmi_adds_latency_only_to_checked(self):
        model = LmiTiming()
        checked = TraceInstruction(op=OpClass.INT, checked=True)
        plain = TraceInstruction(op=OpClass.INT)
        assert model.extra_latency(checked, 0) == 3
        assert model.extra_latency(plain, 0) == 0

    def test_lmi_overhead_mostly_hidden_by_multithreading(self):
        # Worst case for hiding: identical dep-heavy INT streams in
        # lockstep across all warps.  Even here the OCU stays small.
        stream = [
            TraceInstruction(op=OpClass.INT, checked=(i % 4 == 0),
                             depends=(i % 3 == 0))
            for i in range(400)
        ]
        base = simulate(_trace(stream, warps=16), BaselineTiming())
        lmi = simulate(_trace(stream, warps=16), LmiTiming())
        assert lmi.cycles / base.cycles < 1.06

    def test_lmi_overhead_tiny_on_realistic_mix(self):
        from repro.workloads import synthesize_trace

        trace = synthesize_trace("bert", warps=16, instructions_per_warp=400)
        base = simulate(trace, BaselineTiming())
        lmi = simulate(trace, LmiTiming())
        assert lmi.cycles / base.cycles < 1.02

    def test_baggy_expands_checked_ops(self):
        model = BaggyBoundsTiming()
        checked = TraceInstruction(op=OpClass.INT, checked=True)
        expanded = list(model.expand(checked))
        assert len(expanded) == 1 + model.instructions_per_check
        assert all(i.op is OpClass.INT for i in expanded[1:])
        assert all(i.depends for i in expanded[1:])

    def test_baggy_leaves_unchecked_alone(self):
        model = BaggyBoundsTiming()
        plain = TraceInstruction(op=OpClass.FP)
        assert list(model.expand(plain)) == [plain]

    def test_expand_stream_length(self):
        model = BaggyBoundsTiming(instructions_per_check=5)
        stream = [TraceInstruction(op=OpClass.INT, checked=True)] * 3
        assert len(expand_stream(model, stream)) == 18

    def test_gpushield_rcache_hit_is_free(self):
        model = _oracle_bound(GPUShieldTiming())
        instr = TraceInstruction(op=OpClass.LDG, lines=(0,), buffer_ids=(1,))
        first = model.extra_latency(instr, 0)  # cold miss
        second = model.extra_latency(instr, 0)  # now cached
        assert first > 0
        assert second == 0

    def test_gpushield_ignores_shared_ops(self):
        model = _oracle_bound(GPUShieldTiming())
        instr = TraceInstruction(op=OpClass.LDS, lines=(0,), buffer_ids=(1,))
        assert model.extra_latency(instr, 0) == 0

    def test_gpushield_thrash_with_many_buffers(self):
        model = _oracle_bound(GPUShieldTiming())
        penalties = []
        for i in range(200):
            instr = TraceInstruction(
                op=OpClass.LDG, lines=(0,), buffer_ids=(i % 64,)
            )
            penalties.append(model.extra_latency(instr, 0))
        # Far more buffers than RCache entries: mostly misses.
        assert sum(1 for p in penalties[64:] if p > 0) > 100

    def test_gpushield_uses_memory_hierarchy_when_bound(self):
        simulator = SmSimulator(model=GPUShieldTiming())
        trace = _trace(
            [TraceInstruction(op=OpClass.LDG, lines=(i * 128,),
                              buffer_ids=(i % 3,)) for i in range(10)]
        )
        result = simulator.run(trace)
        assert result.cycles > 0
