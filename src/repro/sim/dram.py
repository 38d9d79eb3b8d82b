"""HBM channel model: fixed latency plus per-channel bandwidth queuing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..common.config import GpuConfig


@dataclass
class DramStats:
    """Request counters."""

    requests: int = 0
    queue_delay_cycles: int = 0


class DramModel:
    """Address-interleaved channels with a service-rate queue.

    Each request takes ``dram_latency`` cycles plus any queuing delay
    behind earlier requests on the same channel (one line per
    ``line_cycles`` service slot — a bandwidth cap, not a full
    bank/row model; enough to create pressure under uncoalesced
    streams).
    """

    def __init__(self, config: GpuConfig, line_bytes: int = 128) -> None:
        self.config = config
        self.latency = config.dram_latency
        self.channels = config.dram_channels
        # Cycles to stream one line through a channel at the configured
        # per-channel bandwidth share.
        per_channel_bw = max(
            1, config.dram_bandwidth_bytes_per_cycle // self.channels
        )
        self.line_cycles = max(1, line_bytes // per_channel_bw)
        #: Bank/channel busy-until array: next free cycle per channel.
        #: The columnar engine binds this list once per run and updates
        #: it in place (the ``request`` method path stays coherent with
        #: it — both mutate the same array).
        self.channel_free_at: List[int] = [0] * self.channels
        self.stats = DramStats()

    def request(self, line_address: int, now: int) -> int:
        """Issue a line fetch at cycle *now*; returns completion cycle."""
        channel = (line_address >> 7) % self.channels
        free_at = self.channel_free_at
        free = free_at[channel]
        start = now if now >= free else free
        free_at[channel] = start + self.line_cycles
        stats = self.stats
        stats.requests += 1
        stats.queue_delay_cycles += start - now
        return start + self.latency
