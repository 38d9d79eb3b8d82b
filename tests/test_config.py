"""Tests for configuration objects and the exceptions hierarchy."""

import pytest

from repro.common.config import (
    DEFAULT_GPU_CONFIG,
    DEFAULT_LMI_CONFIG,
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


class TestGpuConfig:
    """Table IV parameters."""

    def test_defaults_match_table4(self):
        config = DEFAULT_GPU_CONFIG
        assert config.num_sms == 80
        assert config.clock_ghz == 2.0
        assert config.schedulers_per_sm == 4
        assert config.l1.size_bytes == 96 * 1024
        assert config.l1.hit_latency == 30
        assert config.l2.size_bytes == 4608 * 1024
        assert config.l2.ways == 24
        assert config.l2.hit_latency == 200
        assert config.dram_bytes == 8 * 1024 ** 3

    def test_max_warps(self):
        assert DEFAULT_GPU_CONFIG.max_warps_per_sm == 64

    def test_invalid_sm_count_rejected(self):
        with pytest.raises(ConfigurationError):
            GpuConfig(num_sms=0)

    def test_invalid_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            GpuConfig(clock_ghz=0)

    @pytest.mark.parametrize(
        "field",
        ["warps_per_scheduler", "schedulers_per_sm", "warp_size",
         "dram_latency", "dram_bytes", "dram_channels",
         "dram_bandwidth_bytes_per_cycle"],
    )
    def test_counts_below_one_rejected(self, field):
        # A zero channel count used to reach the DRAM model and divide
        # by zero there.
        with pytest.raises(ConfigurationError, match=f"{field} must be >= 1"):
            GpuConfig(**{field: 0})


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
