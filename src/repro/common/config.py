"""Simulation configuration objects.

:class:`GpuConfig` mirrors Table IV of the paper (the MacSim baseline
used for every performance experiment), and :class:`LmiConfig` collects
the architectural constants of the LMI design itself (minimum alignment,
extent-bit width, OCU pipeline depth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .bitops import is_power_of_two, log2_exact
from .errors import ConfigurationError

#: Table IV's 8 GB of HBM: the device size LMI's pointer codec checks
#: extents against.  No timing simulator reads it.
DRAM_BYTES = 8 * 1024 ** 3

# Upper bounds, so that no admitted machine breaks an executor.
#
# Latencies: the executors count cycles in int64 and read 2**62 as
# "never".  A served request issues fewer than 2**34 instructions
# (MAX_WARPS x MAX_INSTRUCTIONS_PER_WARP = 1024 x 10**6 < 2**30, at
# most 13 each after Baggy's checks); each waits at most two
# latencies plus 256 cycles of 32-wide serialization, besides DRAM
# queueing, which sums to at most 64 lines x 128 cycles per
# instruction along any chain; so with every latency at most 2**20 the
# last completion stays below 2**34 x (2**21 + 2**9) + 2**47 < 2**56.
MAX_LATENCY = 1 << 20
# Cache lines (size_bytes / line_bytes): the native kernel gets each
# cache as one int64 tag per line; 2**20 lines, 28x Table IV's L2,
# keep that array at 8 MiB per cache and cell.
MAX_CACHE_LINES = 1 << 20
# Cache bytes, and so line bytes: 2**30 (1 GiB) keeps every line
# shift (log2 line_bytes <= 30) far inside the int64 addresses the
# plan decode shifts.
MAX_CACHE_BYTES = 1 << 30
# DRAM channels: the native kernel copies one int64 free-at cycle per
# channel in and out of every run; 1024 channels, 128x Table IV's 8,
# keep that copy at 8 KiB.
MAX_DRAM_CHANNELS = 1 << 10
# DRAM bandwidth: at 128 bytes per channel and cycle every admitted
# channel count already streams one 128-byte line per cycle, the
# fastest the model has; more would simulate the same machine under
# another cell digest.
MAX_DRAM_BANDWIDTH = 128 * MAX_DRAM_CHANNELS


def _require_range(config: object, bounds: Dict[str, int]) -> None:
    """Raise unless each field of *config* in *bounds* is in [1, bound]."""
    for name, bound in bounds.items():
        value = getattr(config, name)
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if value > bound:
            raise ConfigurationError(
                f"{name} must be <= {bound}, got {value}"
            )


@dataclass(frozen=True)
class CacheConfig:
    """Parameters of one cache level."""

    size_bytes: int
    line_bytes: int = 128
    ways: int = 8
    hit_latency: int = 30

    def __post_init__(self) -> None:
        _require_range(
            self,
            {
                "size_bytes": MAX_CACHE_BYTES,
                "line_bytes": MAX_CACHE_BYTES,
                "ways": MAX_CACHE_LINES,
                "hit_latency": MAX_LATENCY,
            },
        )
        if not is_power_of_two(self.line_bytes):
            raise ConfigurationError("cache line size must be a power of two")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ConfigurationError(
                "cache size must be a multiple of line_bytes * ways"
            )
        lines = self.size_bytes // self.line_bytes
        if lines > MAX_CACHE_LINES:
            raise ConfigurationError(
                f"size_bytes / line_bytes must be <= {MAX_CACHE_LINES} "
                f"lines, got {lines}"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass(frozen=True)
class GpuConfig:
    """Baseline GPU configuration (paper Table IV).

    The Table IV machine has 80 SM cores at 2 GHz, each with 4 GTO
    warp schedulers of 16 warps, and 8 GB of HBM (:data:`DRAM_BYTES`).
    The timing model simulates one scheduler partition of one SM, so
    this config holds only what it reads: the 96 KB L1 with 30-cycle
    latency, the 4.5 MB 24-way L2 with 200-cycle latency, and the HBM
    channels' latency and bandwidth.
    """

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
    dram_channels: int = 8
    dram_bandwidth_bytes_per_cycle: int = 256

    def __post_init__(self) -> None:
        _require_range(
            self,
            {
                "dram_latency": MAX_LATENCY,
                "dram_channels": MAX_DRAM_CHANNELS,
                "dram_bandwidth_bytes_per_cycle": MAX_DRAM_BANDWIDTH,
            },
        )


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
