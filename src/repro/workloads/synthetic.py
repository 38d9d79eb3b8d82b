"""Deterministic synthetic trace generation from benchmark profiles.

Produces column-backed :class:`~repro.sim.trace.KernelTrace` objects
whose dynamic statistics match the profile: instruction mix,
memory-region ratios, pointer-arithmetic density, dependency density,
coalescing behaviour, buffer locality, and working-set footprint.
Every warp draws from its own ``random.Random`` seeded by the
benchmark name, the warp index and the seed salt, so every run (and
every mechanism compared on the same benchmark) sees the identical
instruction stream.

The generator appends each draw straight into the
:class:`~repro.sim.columnar.ColumnarTrace` columns; no
:class:`~repro.sim.trace.TraceInstruction` is built.  ``randrange(n)``
is inlined as the ``getrandbits(n.bit_length())`` rejection loop
CPython runs for it (:func:`_randbelow`), so the random stream — and
with it every trace — is the one the per-instruction generator drew.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, List, Optional

import numpy as np

from ..common.errors import MemorySpace
from ..memory import layout
from ..sim.columnar import (
    OP_FP,
    OP_INT,
    OP_LDG,
    OP_LDL,
    OP_LDS,
    OP_STG,
    OP_STL,
    OP_STS,
    ColumnarTrace,
)
from ..sim.trace import KernelTrace
from .profiles import BenchmarkProfile, profile

#: Cache-line size used for transaction addresses.
_LINE = 128

#: Probability a streaming warp moves on to another buffer.
_BUFFER_SWITCH = 0.02

#: Typical load:store ratio of a memory instruction.
_LOAD_FRACTION = 0.7


def _seed_for(name: str, salt: int = 0) -> int:
    # crc32, not hash(): string hashing is salted per process and
    # would break cross-run determinism.
    return (zlib.crc32(name.encode()) ^ (salt * 0x9E3779B9)) & 0x7FFFFFFF


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random.randrange(n)`` for ``n > 0``, drawn from *getrandbits*.

    CPython's rejection loop: draw ``n.bit_length()`` bits until the
    value is below *n*.  The hot loop of :func:`synthesize_trace`
    inlines this loop.
    """
    bits = n.bit_length()
    value = getrandbits(bits)
    while value >= n:
        value = getrandbits(bits)
    return value


def synthesize_trace(
    benchmark: str,
    *,
    warps: int = 8,
    instructions_per_warp: int = 2000,
    seed_salt: int = 0,
    spec: Optional[BenchmarkProfile] = None,
) -> KernelTrace:
    """Generate the kernel trace for *benchmark*."""
    spec = spec if spec is not None else profile(benchmark)
    n_buffers = spec.n_buffers
    if n_buffers <= 0:
        raise ValueError(f"{spec.name}: n_buffers must be positive")
    dep_rate = spec.dep_rate
    mem_fraction = spec.mem_fraction
    int_fraction = spec.int_fraction
    ptr_rate = spec.ptr_rate
    coalesced = spec.coalesced
    global_frac = spec.global_frac
    global_shared_frac = spec.global_frac + spec.shared_frac
    scatter = spec.buffer_locality == "scatter"
    uncoalesced = spec.uncoalesced_transactions
    lines_in_set = max(1, (spec.working_set_kb * 1024) // _LINE)
    line_bits = lines_in_set.bit_length()
    buffer_bits = n_buffers.bit_length()
    global_base = layout.region_base(MemorySpace.GLOBAL)
    shared_base = layout.region_base(MemorySpace.SHARED)
    local_base = layout.region_base(MemorySpace.LOCAL)

    ops = bytearray()
    depends = bytearray()
    checked = bytearray()
    warp_offsets: List[int] = [0]
    line_offsets: List[int] = [0]
    lines: List[int] = []
    buffer_offsets: List[int] = [0]
    buffers: List[int] = []
    for warp in range(warps):
        rng = random.Random(_seed_for(spec.name, warp + seed_salt * 1000 + 1))
        draw = rng.random
        getrandbits = rng.getrandbits
        # Each warp streams through its own slice of the working set.
        cursor = (warp * 7919) % lines_in_set
        current_buffer = _randbelow(getrandbits, n_buffers)
        for _ in range(instructions_per_warp):
            depends.append(draw() < dep_rate)
            if draw() < mem_fraction:
                region = draw()
                is_load = draw() < _LOAD_FRACTION
                if region < global_frac:
                    ops.append(OP_LDG if is_load else OP_STG)
                    base = global_base
                elif region < global_shared_frac:
                    ops.append(OP_LDS if is_load else OP_STS)
                    base = shared_base
                else:
                    ops.append(OP_LDL if is_load else OP_STL)
                    base = local_base
                checked.append(False)
                if draw() < coalesced:
                    cursor = (cursor + 1) % lines_in_set
                    lines.append(base + cursor * _LINE)
                    width = 1
                else:
                    width = uncoalesced
                    for _ in range(width):
                        value = getrandbits(line_bits)
                        while value >= lines_in_set:
                            value = getrandbits(line_bits)
                        lines.append(base + value * _LINE)
                if scatter:
                    # Scattered lanes land in different buffers: one
                    # bounds lookup per transaction.
                    for _ in range(width):
                        value = getrandbits(buffer_bits)
                        while value >= n_buffers:
                            value = getrandbits(buffer_bits)
                        buffers.append(value)
                else:
                    # Streaming: stay on a buffer for a while, then
                    # move on.
                    if draw() < _BUFFER_SWITCH:
                        current_buffer = _randbelow(getrandbits, n_buffers)
                    buffers.append(current_buffer)
            else:
                if draw() < int_fraction:
                    ops.append(OP_INT)
                    checked.append(draw() < ptr_rate)
                else:
                    ops.append(OP_FP)
                    checked.append(False)
                # ALU records carry the default buffer id 0.
                buffers.append(0)
            line_offsets.append(len(lines))
            buffer_offsets.append(len(buffers))
        warp_offsets.append(len(ops))
    return ColumnarTrace(
        name=spec.name,
        ops=np.frombuffer(ops, dtype=np.uint8),
        depends=np.frombuffer(depends, dtype=np.bool_),
        checked=np.frombuffer(checked, dtype=np.bool_),
        warp_offsets=np.asarray(warp_offsets, dtype=np.int64),
        line_offsets=np.asarray(line_offsets, dtype=np.int64),
        lines=np.asarray(lines, dtype=np.int64),
        buffer_offsets=np.asarray(buffer_offsets, dtype=np.int64),
        buffers=np.asarray(buffers, dtype=np.int64),
    ).to_trace()
