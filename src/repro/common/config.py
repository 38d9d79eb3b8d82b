"""Simulation configuration objects.

:class:`GpuConfig` mirrors Table IV of the paper (the MacSim baseline
used for every performance experiment), and :class:`LmiConfig` collects
the architectural constants of the LMI design itself (minimum alignment,
extent-bit width, OCU pipeline depth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .bitops import is_power_of_two, log2_exact
from .errors import ConfigurationError


def _require_counts(config: object, names: Tuple[str, ...]) -> None:
    """Raise unless each field of *config* in *names* is at least 1."""
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class CacheConfig:
    """Parameters of one cache level."""

    size_bytes: int
    line_bytes: int = 128
    ways: int = 8
    hit_latency: int = 30

    def __post_init__(self) -> None:
        _require_counts(
            self, ("size_bytes", "line_bytes", "ways", "hit_latency")
        )
        if not is_power_of_two(self.line_bytes):
            raise ConfigurationError("cache line size must be a power of two")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ConfigurationError(
                "cache size must be a multiple of line_bytes * ways"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass(frozen=True)
class GpuConfig:
    """Baseline GPU configuration (paper Table IV).

    80 SM cores at 2 GHz, 4 GTO warp schedulers per SM, a 96 KB L1 with
    30-cycle latency, a 4.5 MB 24-way L2 with 200-cycle latency, and
    8 GB of HBM.
    """

    num_sms: int = 80
    clock_ghz: float = 2.0
    warps_per_scheduler: int = 16
    schedulers_per_sm: int = 4
    warp_size: int = 32
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=96 * 1024, line_bytes=128, ways=4, hit_latency=30
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=4608 * 1024, line_bytes=128, ways=24, hit_latency=200
        )
    )
    dram_latency: int = 350
    dram_bytes: int = 8 * 1024 ** 3
    dram_channels: int = 8
    dram_bandwidth_bytes_per_cycle: int = 256

    def __post_init__(self) -> None:
        _require_counts(
            self,
            (
                "num_sms", "warps_per_scheduler", "schedulers_per_sm",
                "warp_size", "dram_latency", "dram_bytes", "dram_channels",
                "dram_bandwidth_bytes_per_cycle",
            ),
        )
        if self.clock_ghz <= 0:
            raise ConfigurationError("clock must be positive")

    @property
    def max_warps_per_sm(self) -> int:
        """Maximum resident warps per SM across all schedulers."""
        return self.warps_per_scheduler * self.schedulers_per_sm


@dataclass(frozen=True)
class LmiConfig:
    """Architectural constants of the LMI design (paper sections IV-V).

    Attributes
    ----------
    min_alignment:
        K, the minimum allocation size/alignment. The paper uses the
        default 256-byte GPU allocation granularity, giving extent
        encodings from 256 B (extent 1) up to 256 GiB (extent 31).
    extent_bits:
        Width of the extent field in the pointer MSBs (5 in the paper).
    ocu_pipeline_cycles:
        Extra latency of a pointer-arithmetic instruction once the OCU's
        two register slices are inserted to meet >3 GHz clocks
        (3 cycles, section XI-C).
    max_buffer_log2:
        log2 of the largest encodable buffer.  With K=256 and 31 usable
        extent values this is 8 + 30 = 38 (256 GiB).
    """

    min_alignment: int = 256
    extent_bits: int = 5
    ocu_pipeline_cycles: int = 3

    def __post_init__(self) -> None:
        if not is_power_of_two(self.min_alignment):
            raise ConfigurationError("min_alignment must be a power of two")
        if not 1 <= self.extent_bits <= 16:
            raise ConfigurationError("extent_bits out of supported range")

    @property
    def min_alignment_log2(self) -> int:
        """log2(K)."""
        return log2_exact(self.min_alignment)

    @property
    def max_extent(self) -> int:
        """Largest valid extent value (2**extent_bits - 1)."""
        return (1 << self.extent_bits) - 1

    @property
    def max_buffer_log2(self) -> int:
        """log2 of the largest encodable buffer size."""
        return self.min_alignment_log2 + self.max_extent - 1

    @property
    def max_buffer_bytes(self) -> int:
        """Largest encodable buffer size in bytes (256 GiB by default)."""
        return 1 << self.max_buffer_log2

    @property
    def address_bits(self) -> int:
        """Bits of the pointer left for the virtual address."""
        return 64 - self.extent_bits


#: Library-wide default LMI configuration (paper parameters).
DEFAULT_LMI_CONFIG = LmiConfig()

#: Library-wide default GPU configuration (Table IV).
DEFAULT_GPU_CONFIG = GpuConfig()
