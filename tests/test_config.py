"""Tests for configuration objects and the exceptions hierarchy."""

import dataclasses

import pytest

from repro.common.config import (
    DEFAULT_GPU_CONFIG,
    DEFAULT_LMI_CONFIG,
    DRAM_BYTES,
    MAX_CACHE_BYTES,
    MAX_CACHE_LINES,
    MAX_DRAM_BANDWIDTH,
    MAX_DRAM_CHANNELS,
    MAX_LATENCY,
    CacheConfig,
    GpuConfig,
    LmiConfig,
)
from repro.common.errors import (
    ConfigurationError,
    DoubleFreeError,
    InvalidFreeError,
    KernelFault,
    MemorySafetyViolation,
    MemorySpace,
    ReproError,
    SpatialViolation,
    TemporalViolation,
    ViolationKind,
)
from repro.serve.protocol import MAX_INSTRUCTIONS_PER_WARP, MAX_WARPS
from repro.sim import KernelTrace, OpClass, TraceInstruction
from repro.sim.reference import reference_simulate
from repro.sim.timing import BAGGY_CHECK_INSTRUCTIONS, TRANSACTION_CYCLES


class TestGpuConfig:
    """Table IV parameters."""

    def test_defaults_match_table4(self):
        config = DEFAULT_GPU_CONFIG
        assert config.l1.size_bytes == 96 * 1024
        assert config.l1.hit_latency == 30
        assert config.l2.size_bytes == 4608 * 1024
        assert config.l2.ways == 24
        assert config.l2.hit_latency == 200
        assert DRAM_BYTES == 8 * 1024 ** 3

    @pytest.mark.parametrize(
        "field",
        ["dram_latency", "dram_channels", "dram_bandwidth_bytes_per_cycle"],
    )
    def test_counts_below_one_rejected(self, field):
        # A zero channel count used to reach the DRAM model and divide
        # by zero there.
        with pytest.raises(ConfigurationError, match=f"{field} must be >= 1"):
            GpuConfig(**{field: 0})

    @pytest.mark.parametrize(
        "field, bound, past",
        [
            ("dram_latency", MAX_LATENCY, MAX_LATENCY + 1),
            # 2**61 spun the native kernel and crashed the Python loop.
            ("dram_latency", MAX_LATENCY, 2 ** 61),
            ("dram_channels", MAX_DRAM_CHANNELS, MAX_DRAM_CHANNELS + 1),
            # 10**12 channels sized a 10**12-slot free-at list.
            ("dram_channels", MAX_DRAM_CHANNELS, 10 ** 12),
            ("dram_bandwidth_bytes_per_cycle", MAX_DRAM_BANDWIDTH,
             MAX_DRAM_BANDWIDTH + 1),
        ],
    )
    def test_values_past_their_bound_rejected(self, field, bound, past):
        assert getattr(GpuConfig(**{field: bound}), field) == bound
        with pytest.raises(
            ConfigurationError, match=f"{field} must be <= {bound}"
        ):
            GpuConfig(**{field: past})

    def test_latency_bound_holds_under_the_serve_caps(self):
        """The derivation in common/config.py, with today's caps: the
        slowest admitted request finishes short of the 2**62 sentinel."""
        issued = MAX_WARPS * MAX_INSTRUCTIONS_PER_WARP * (
            1 + BAGGY_CHECK_INSTRUCTIONS
        )
        per_instruction = 1 + 2 * MAX_LATENCY + 2 * 32 * TRANSACTION_CYCLES
        queueing = issued * 64 * 128
        assert issued * per_instruction + queueing < 2 ** 56


def _loads(lines, width=1):
    """Dependent loads of 128-byte *lines* (indices), *width* a load."""
    lines = list(lines)
    return [
        TraceInstruction(
            op=OpClass.LDG,
            depends=True,
            lines=tuple(line * 128 for line in lines[k:k + width]),
            buffer_ids=(0,),
        )
        for k in range(0, len(lines), width)
    ]


def _probe_trace() -> KernelTrace:
    """One warp of dependent loads that every config value shows in.

    Per cache level, a sweep twice over 0.55x its lines and a conflict
    set of 1.5x half its ways hit at the Table IV geometry and miss
    once the size or the ways are halved.  Then one line, its upper
    half (an L1 hit), that line evicted from its L1 set, and the upper
    half again (an L2 hit): halving a line size splits the line.
    Every load depends on the one before, so each latency, channel
    count and bandwidth shows in the cycles.
    """
    stream = []
    for base, cache in ((0, DEFAULT_GPU_CONFIG.l1),
                        (1 << 24, DEFAULT_GPU_CONFIG.l2)):
        lines = cache.size_bytes // cache.line_bytes
        stream += _loads(range(base, base + lines * 11 // 20), 32) * 2
        stride = 2 * cache.num_sets  # one set at half the ways
        conflict = base + (1 << 23)
        stream += _loads(
            range(conflict, conflict + stride * cache.ways * 3 // 4, stride)
        ) * 2
    line = 1 << 26
    upper_half = TraceInstruction(
        op=OpClass.LDG, depends=True, lines=(line * 128 + 64,),
        buffer_ids=(0,),
    )
    l1 = DEFAULT_GPU_CONFIG.l1
    stream += _loads([line]) + [upper_half]
    stream += _loads(range(line + l1.num_sets,
                           line + l1.num_sets * (l1.ways + 1), l1.num_sets))
    stream.append(upper_half)
    return KernelTrace("probe", [stream])


def _halved_configs():
    """(name, config) with each GpuConfig/CacheConfig value halved."""
    config = DEFAULT_GPU_CONFIG
    for outer in dataclasses.fields(config):
        value = getattr(config, outer.name)
        if dataclasses.is_dataclass(value):
            for inner in dataclasses.fields(value):
                level = dataclasses.replace(
                    value, **{inner.name: getattr(value, inner.name) // 2}
                )
                yield (f"{outer.name}.{inner.name}",
                       dataclasses.replace(config, **{outer.name: level}))
        else:
            yield outer.name, dataclasses.replace(
                config, **{outer.name: value // 2}
            )


def test_every_config_value_reaches_the_simulator():
    """GpuConfig holds only what the timing model reads: halving any
    one value changes the oracle's cycles or SimStats on one fixed
    trace.  (The SM count, clock, scheduler and warp-size fields that
    used to sit here changed nothing.)"""
    trace = _probe_trace()
    base = reference_simulate(trace, config=DEFAULT_GPU_CONFIG)
    names = []
    for name, config in _halved_configs():
        names.append(name)
        got = reference_simulate(trace, config=config)
        assert (got.cycles, got.stats) != (base.cycles, base.stats), name
    assert len(names) == 11


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig(size_bytes=96 * 1024, line_bytes=128, ways=4)
        assert config.num_sets == 192

    def test_non_power_line_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1024, line_bytes=100, ways=2)

    def test_non_divisible_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, line_bytes=128, ways=2)

    def test_non_positive_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1024, line_bytes=128, ways=2, hit_latency=0)

    def test_zero_ways_rejected(self):
        with pytest.raises(ConfigurationError, match="ways must be >= 1"):
            CacheConfig(size_bytes=1024, line_bytes=128, ways=0)

    def test_values_at_their_bound_accepted(self):
        config = CacheConfig(
            size_bytes=MAX_CACHE_BYTES,
            line_bytes=MAX_CACHE_BYTES // MAX_CACHE_LINES,
            ways=MAX_CACHE_LINES,
            hit_latency=MAX_LATENCY,
        )
        assert config.num_sets == 1
        assert CacheConfig(
            size_bytes=MAX_CACHE_BYTES, line_bytes=MAX_CACHE_BYTES, ways=1
        ).num_sets == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # 1,073,741,824 sets: ~206 GB of int64 tags.
            ({"size_bytes": 3072 * 2 ** 30}, "size_bytes must be <="),
            ({"size_bytes": MAX_CACHE_BYTES, "line_bytes": 2 * MAX_CACHE_BYTES,
              "ways": 1}, "line_bytes must be <="),
            ({"ways": MAX_CACHE_LINES + 1}, "ways must be <="),
            ({"hit_latency": MAX_LATENCY + 1}, "hit_latency must be <="),
            ({"size_bytes": 2 * MAX_CACHE_LINES, "line_bytes": 1, "ways": 1},
             "size_bytes / line_bytes must be <="),
        ],
    )
    def test_values_past_their_bound_rejected(self, overrides, message):
        fields = {"size_bytes": 1024, "line_bytes": 128, "ways": 2}
        fields.update(overrides)
        with pytest.raises(ConfigurationError, match=message):
            CacheConfig(**fields)


class TestLmiConfig:
    def test_defaults(self):
        config = DEFAULT_LMI_CONFIG
        assert config.min_alignment == 256
        assert config.extent_bits == 5
        assert config.ocu_pipeline_cycles == 3

    def test_derived_quantities(self):
        config = DEFAULT_LMI_CONFIG
        assert config.min_alignment_log2 == 8
        assert config.max_extent == 31
        assert config.max_buffer_log2 == 38
        assert config.max_buffer_bytes == 1 << 38  # 256 GiB
        assert config.address_bits == 59

    def test_non_power_alignment_rejected(self):
        with pytest.raises(ConfigurationError):
            LmiConfig(min_alignment=100)

    def test_extent_bits_bounds(self):
        with pytest.raises(ConfigurationError):
            LmiConfig(extent_bits=0)
        with pytest.raises(ConfigurationError):
            LmiConfig(extent_bits=17)

    def test_alternative_alignment(self):
        config = LmiConfig(min_alignment=16)
        assert config.max_buffer_log2 == 4 + 30


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for cls in (ConfigurationError, MemorySafetyViolation,
                    SpatialViolation, TemporalViolation, InvalidFreeError,
                    DoubleFreeError):
            assert issubclass(cls, ReproError)

    def test_violations_carry_default_kinds(self):
        assert SpatialViolation("x").kind is ViolationKind.SPATIAL
        assert TemporalViolation("x").kind is ViolationKind.TEMPORAL
        assert InvalidFreeError("x").kind is ViolationKind.INVALID_FREE
        assert DoubleFreeError("x").kind is ViolationKind.DOUBLE_FREE

    def test_violation_context_fields(self):
        violation = SpatialViolation(
            "boom", space=MemorySpace.SHARED, address=0x42, thread=9,
            mechanism="test",
        )
        assert violation.space is MemorySpace.SHARED
        assert violation.address == 0x42
        assert violation.thread == 9
        assert violation.mechanism == "test"

    def test_kernel_fault_wraps_violation(self):
        violation = SpatialViolation("boom")
        fault = KernelFault(violation, pc=12)
        assert fault.violation is violation
        assert fault.pc == 12

    def test_memory_space_enum(self):
        assert {s.value for s in MemorySpace} == {
            "global", "shared", "local", "heap"
        }
