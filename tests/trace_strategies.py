"""Hypothesis strategies for random kernel traces, timing models and
machine configurations, shared by the suites that check the trace
substrate, the plan decoders and the simulator against its oracle,
plus the column corruptions and container damage a trace must be
rejected for."""

from __future__ import annotations

import functools
from typing import Callable, Dict, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.common.config import (
    MAX_DRAM_BANDWIDTH,
    MAX_DRAM_CHANNELS,
    MAX_LATENCY,
    CacheConfig,
    GpuConfig,
)
from repro.sim import KernelTrace, OpClass, TraceInstruction
from repro.sim.columnar import OP_FP, OP_INT, OP_LDG, ColumnarTrace
from repro.sim.timing import (
    BaggyBoundsTiming,
    BaselineTiming,
    GPUShieldTiming,
    LmiTiming,
)


#: Default line addresses and buffer ids of a random memory record.
LINE_ADDRESSES = st.integers(min_value=0, max_value=1 << 40)
BUFFER_IDS = st.integers(min_value=0, max_value=64)


@st.composite
def trace_instructions(draw, lines=LINE_ADDRESSES, buffer_ids=BUFFER_IDS):
    """One random, invariant-respecting trace instruction, its memory
    records drawing line addresses from *lines* and ids from
    *buffer_ids*."""
    op = draw(st.sampled_from(list(OpClass)))
    depends = draw(st.booleans())
    if op.is_memory:
        return TraceInstruction(
            op=op,
            depends=depends,
            lines=tuple(draw(st.lists(lines, min_size=1, max_size=4))),
            buffer_ids=tuple(
                draw(st.lists(buffer_ids, min_size=1, max_size=3))
            ),
        )
    checked = op is OpClass.INT and draw(st.booleans())
    return TraceInstruction(op=op, depends=depends, checked=checked)


@st.composite
def kernel_traces(draw, lines=LINE_ADDRESSES, buffer_ids=BUFFER_IDS):
    """A random trace: 1–4 warps, any of which may be empty."""
    warps = draw(
        st.lists(
            st.lists(trace_instructions(lines, buffer_ids),
                     min_size=0, max_size=12),
            min_size=1,
            max_size=4,
        )
    )
    return KernelTrace(name=draw(st.sampled_from(["t", "κ-trace"])),
                       warps=warps)


# ----------------------------------------------------------------------
# Timing models and machines.

#: Set counts worth drawing often: one set, powers of two, and Table
#: IV's L1 and L2 (192 and 1536 sets), which are not.
SET_COUNTS = st.sampled_from([1, 2, 3, 64, 192, 1536])


@st.composite
def timing_models(draw):
    """A zero-argument factory of one model of a random family, with
    random decode parameters: LMI's OCU cycles (up to ``MAX_LATENCY``),
    GPUShield's RCache geometry, Baggy's check-chain length."""
    family = draw(st.sampled_from(["baseline", "lmi", "gpushield", "baggy"]))
    if family == "lmi":
        ocu = draw(st.integers(0, 8) | st.integers(0, MAX_LATENCY))
        return functools.partial(LmiTiming, ocu_cycles=ocu)
    if family == "gpushield":
        entry_bytes = 1 << draw(st.integers(0, 8))
        ways = draw(st.integers(1, 8))
        sets = draw(st.sampled_from([1, 3, 4, 12]) | st.integers(1, 64))
        return functools.partial(
            GPUShieldTiming, rcache_bytes=entry_bytes * ways * sets,
            rcache_ways=ways, entry_bytes=entry_bytes,
        )
    if family == "baggy":
        return functools.partial(BaggyBoundsTiming, draw(st.integers(0, 16)))
    return BaselineTiming


#: The most lines a drawn cache holds: 2**16 of the admitted 2**20
#: (``MAX_CACHE_LINES``), which keeps the Python loop's per-set rows
#: and the native kernel's tag arrays small.
DRAWN_CACHE_LINES = 1 << 16


@st.composite
def cache_configs(draw):
    """A :class:`CacheConfig` the validator admits: lines of 1 byte to
    4 KiB, 1–32 ways, set counts that are and are not powers of two,
    and hit latencies up to ``MAX_LATENCY``."""
    line_bits = draw(st.integers(0, 12))
    ways = draw(st.integers(1, 32))
    sets = draw(SET_COUNTS | st.integers(1, DRAWN_CACHE_LINES // ways))
    return CacheConfig(
        size_bytes=(ways * sets) << line_bits,
        line_bytes=1 << line_bits,
        ways=ways,
        hit_latency=draw(st.integers(1, 400) | st.integers(1, MAX_LATENCY)),
    )


@st.composite
def gpu_configs(draw):
    """A :class:`GpuConfig` the validator admits, DRAM latency,
    channels and bandwidth drawn up to their ``MAX_*`` bounds."""
    return GpuConfig(
        l1=draw(cache_configs()),
        l2=draw(cache_configs()),
        dram_latency=draw(st.integers(1, 500) | st.integers(1, MAX_LATENCY)),
        dram_channels=draw(st.integers(1, 32)
                           | st.integers(1, MAX_DRAM_CHANNELS)),
        dram_bandwidth_bytes_per_cycle=draw(
            st.integers(1, 512) | st.integers(1, MAX_DRAM_BANDWIDTH)
        ),
    )


# ----------------------------------------------------------------------
# Bad columns.

#: The eight array fields of a :class:`ColumnarTrace`.
COLUMNS = (
    "ops", "depends", "checked", "warp_offsets",
    "line_offsets", "lines", "buffer_offsets", "buffers",
)


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def _checked_fp(c: Dict[str, np.ndarray]) -> None:
    c["checked"][_first(c["ops"] == OP_FP)] = True


def _csr_overrun(c: Dict[str, np.ndarray]) -> None:
    c["line_offsets"][-1] += 1


def _op_code_9(c: Dict[str, np.ndarray]) -> None:
    c["ops"][0] = 9


def _alu_with_line(c: Dict[str, np.ndarray]) -> None:
    c["ops"][_first(c["ops"] > OP_FP)] = OP_FP


def _memory_without_line(c: Dict[str, np.ndarray]) -> None:
    c["ops"][_first(c["ops"] == OP_INT)] = OP_LDG


def _memory_without_buffer(c: Dict[str, np.ndarray]) -> None:
    counts = np.diff(c["buffer_offsets"])
    row = _first((c["ops"] > OP_FP) & (counts == 1))
    c["buffers"] = np.delete(c["buffers"], c["buffer_offsets"][row])
    c["buffer_offsets"][row + 1:] -= 1


def _offsets_decrease(c: Dict[str, np.ndarray]) -> None:
    offsets = c["buffer_offsets"]
    offsets[1], offsets[2] = offsets[2], offsets[1]


def _offsets_start(c: Dict[str, np.ndarray]) -> None:
    c["warp_offsets"][0] = 1


#: Corruption name -> (in-place edit of a valid trace's columns, the
#: :class:`~repro.common.errors.TraceFormatError` message it must draw).
#: The edits need a trace with FP, INT and single-buffer memory records.
BAD_COLUMNS: Dict[str, Tuple[Callable[[Dict[str, np.ndarray]], None], str]] = {
    "checked-fp": (_checked_fp, "only INT ops"),
    "csr-overrun": (_csr_overrun, "line offsets must end"),
    "op-code-9": (_op_code_9, "op codes must be below 8"),
    "alu-with-line": (_alu_with_line, "ALU ops cannot carry"),
    "memory-without-line": (_memory_without_line, "at least one transaction"),
    "memory-without-buffer": (_memory_without_buffer, "at least one buffer"),
    "offsets-decrease": (_offsets_decrease, "offsets must not decrease"),
    "offsets-start": (_offsets_start, "warp offsets must start at 0"),
}


def corrupted_columns(
    columnar: ColumnarTrace, kind: str
) -> Dict[str, np.ndarray]:
    """Copies of *columnar*'s arrays with the *kind* of damage applied."""
    columns = {name: getattr(columnar, name).copy() for name in COLUMNS}
    BAD_COLUMNS[kind][0](columns)
    return columns


#: Damage to a whole ``.npz`` container -> the zip error it trips.
DAMAGED_CONTAINERS: Dict[str, str] = {
    "truncated": "File is not a zip file",
    "bit-flip": "Bad CRC-32 for file 'ops.npy'",
}


def damaged_container(data: bytes, columnar: ColumnarTrace, kind: str) -> bytes:
    """*data*, a stored ``.npz`` of *columnar*, with the *kind* of damage."""
    if kind == "truncated":
        return data[: len(data) // 2]
    # Stored members hold each column's bytes verbatim: flip one of ops.
    raw = columnar.ops.tobytes()
    flipped = bytearray(data)
    flipped[data.index(raw) + len(raw) // 2] ^= 0xFF
    return bytes(flipped)
