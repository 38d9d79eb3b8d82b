"""Deterministic synthetic trace generation from benchmark profiles.

Produces column-backed :class:`~repro.sim.trace.KernelTrace` objects
whose dynamic statistics match the profile: instruction mix,
memory-region ratios, pointer-arithmetic density, dependency density,
coalescing behaviour, buffer locality, and working-set footprint.
Every warp draws from its own ``random.Random`` seeded by the
benchmark name, the warp index and the seed salt, so every run (and
every mechanism compared on the same benchmark) sees the identical
instruction stream.

Two synthesizers write the same eight
:class:`~repro.sim.columnar.ColumnarTrace` columns; no
:class:`~repro.sim.trace.TraceInstruction` is built.

* **The native kernel** (``synthetic.c``, one fixed C translation
  unit) is built and loaded on the first synthesis through
  :func:`repro.sim.codegen.load_cell`, which builds, caches and loads
  every native unit.  It replays the Python loop draw for draw:
  CPython's MT19937 seeded as ``random.Random`` seeds it,
  ``random()`` from two 32-bit words, ``getrandbits(k)`` for
  ``k <= 32`` as the top *k* bits of one word, and the same rejection
  loops, writing into exactly sized NumPy arrays.
* **The Python loop** (:func:`_python_columns`) is its oracle, and the
  path when no C compiler is present, the build fails, or a profile
  needs draws wider than 32 bits; each such synthesis is counted
  through :func:`repro.sim.native.note_fallback`.  ``randrange(n)`` is
  inlined as the ``getrandbits(n.bit_length())`` rejection loop
  CPython runs for it (:func:`_randbelow`), so the random stream — and
  with it every trace — is the one the per-instruction generator drew.
"""

from __future__ import annotations

import random
import zlib
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..common.errors import MemorySpace
from ..memory import layout
from ..sim.codegen import load_cell
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
from ..sim.native import note_fallback
from ..sim.trace import KernelTrace
from .profiles import BenchmarkProfile, profile

#: Cache-line size used for transaction addresses.
_LINE = 128

#: Probability a streaming warp moves on to another buffer.
_BUFFER_SWITCH = 0.02

#: Typical load:store ratio of a memory instruction.
_LOAD_FRACTION = 0.7

#: The native synthesizer's source.
SYNTH_SOURCE = Path(__file__).with_name("synthetic.c")

#: Headroom over the expected line and buffer-id counts when sizing
#: the native kernel's columns; a shortfall only costs a regrow.
_CAPACITY_SLACK = 1.1


def _seed_for(name: str, salt: int = 0) -> int:
    # crc32, not hash(): string hashing is salted per process and
    # would break cross-run determinism.
    return (zlib.crc32(name.encode()) ^ (salt * 0x9E3779B9)) & 0x7FFFFFFF


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random.randrange(n)`` for ``n > 0``, drawn from *getrandbits*.

    CPython's rejection loop: draw ``n.bit_length()`` bits until the
    value is below *n*.  The hot loop of :func:`_python_columns`
    inlines this loop.
    """
    bits = n.bit_length()
    value = getrandbits(bits)
    while value >= n:
        value = getrandbits(bits)
    return value


def _lines_in_set(spec: BenchmarkProfile) -> int:
    return max(1, (spec.working_set_kb * 1024) // _LINE)


def synthesize_trace(
    benchmark: str,
    *,
    warps: int = 8,
    instructions_per_warp: int = 2000,
    seed_salt: int = 0,
    spec: Optional[BenchmarkProfile] = None,
) -> KernelTrace:
    """Generate the kernel trace for *benchmark*.

    Runs the native kernel when it loads, else the Python loop; both
    give equal columns.  Raises :class:`ValueError` for a negative
    *warps* or *instructions_per_warp*.  (A profile without buffers,
    or with any other value the synthesizers cannot honour, cannot be
    built: :class:`BenchmarkProfile` rejects it.)
    """
    spec = spec if spec is not None else profile(benchmark)
    if warps < 0:
        raise ValueError(f"warps must be non-negative, got {warps}")
    if instructions_per_warp < 0:
        raise ValueError(
            "instructions_per_warp must be non-negative, "
            f"got {instructions_per_warp}"
        )
    columns = _native_columns(spec, warps, instructions_per_warp, seed_salt)
    if columns is None:
        columns = _python_columns(
            spec, warps, instructions_per_warp, seed_salt
        )
    return columns.to_trace()


# ----------------------------------------------------------------------
# The native kernel.


def _capacities(spec: BenchmarkProfile, n: int) -> Tuple[int, int]:
    """Initial ``lines`` and ``buffers`` lengths for *n* instructions:
    the expected counts with headroom, plus room for 64 of the widest
    accesses (the kernel stops short of one that may not fit)."""
    widest = max(1, spec.uncoalesced_transactions)
    memory = n * spec.mem_fraction
    lines = memory * (spec.coalesced + (1 - spec.coalesced) * widest)
    scatter = spec.buffer_locality == "scatter"
    buffers = n - memory + (lines if scatter else memory)
    pad = 64 * widest
    return (
        int(lines * _CAPACITY_SLACK) + pad,
        int(buffers * _CAPACITY_SLACK) + pad,
    )


def _native_columns(
    spec: BenchmarkProfile, warps: int, instructions_per_warp: int,
    seed_salt: int,
) -> Optional[ColumnarTrace]:
    """The trace's columns from the native kernel, or ``None`` (the
    reason noted) when the Python loop must draw them."""
    lines_in_set = _lines_in_set(spec)
    n_buffers = spec.n_buffers
    if max(lines_in_set, n_buffers).bit_length() > 32:
        note_fallback("wide-draws")
        return None
    kernel = load_cell(SYNTH_SOURCE)
    if isinstance(kernel, str):
        note_fallback(kernel)
        return None
    ffi, lib = kernel
    params = ffi.new("struct lmi_synth_params *", {
        "warps": warps,
        "instructions_per_warp": instructions_per_warp,
        "lines_in_set": lines_in_set,
        "line_bits": lines_in_set.bit_length(),
        "n_buffers": n_buffers,
        "buffer_bits": n_buffers.bit_length(),
        "uncoalesced": spec.uncoalesced_transactions,
        "scatter": spec.buffer_locality == "scatter",
        "line_bytes": _LINE,
        "global_base": layout.region_base(MemorySpace.GLOBAL),
        "shared_base": layout.region_base(MemorySpace.SHARED),
        "local_base": layout.region_base(MemorySpace.LOCAL),
        "dep_rate": spec.dep_rate,
        "mem_fraction": spec.mem_fraction,
        "load_fraction": _LOAD_FRACTION,
        "global_frac": spec.global_frac,
        "global_shared_frac": spec.global_frac + spec.shared_frac,
        "coalesced": spec.coalesced,
        "buffer_switch": _BUFFER_SWITCH,
        "int_fraction": spec.int_fraction,
        "ptr_rate": spec.ptr_rate,
    })
    n = warps * instructions_per_warp
    seeds = np.array(
        [_seed_for(spec.name, warp + seed_salt * 1000 + 1)
         for warp in range(warps)],
        dtype=np.int64,
    )
    ops = np.empty(n, dtype=np.uint8)
    depends = np.empty(n, dtype=np.bool_)
    checked = np.empty(n, dtype=np.bool_)
    line_offsets = np.empty(n + 1, dtype=np.int64)
    buffer_offsets = np.empty(n + 1, dtype=np.int64)
    line_offsets[0] = buffer_offsets[0] = 0
    line_cap, buffer_cap = _capacities(spec, n)
    lines = np.empty(line_cap, dtype=np.int64)
    buffers = np.empty(buffer_cap, dtype=np.int64)

    def pointer(array: np.ndarray, ctype: str = "int64_t *"):
        return ffi.cast(ctype, array.ctypes.data)

    columns = ffi.new("struct lmi_synth_columns *")
    columns.seeds = pointer(seeds)
    columns.ops = pointer(ops, "uint8_t *")
    columns.depends = pointer(depends, "uint8_t *")
    columns.checked = pointer(checked, "uint8_t *")
    columns.line_offsets = pointer(line_offsets)
    columns.buffer_offsets = pointer(buffer_offsets)
    warp = 0
    while True:
        columns.lines = pointer(lines)
        columns.line_cap = len(lines)
        columns.buffers = pointer(buffers)
        columns.buffer_cap = len(buffers)
        warp = lib.lmi_synth_run(params, columns, warp)
        if warp == warps:
            break
        # Out of room: grow and redraw the warp the kernel stopped in.
        # Nothing but this function sees the arrays, so resizing them
        # in place is safe.
        if columns.line_need > len(lines):
            lines.resize(max(columns.line_need, 2 * len(lines)),
                         refcheck=False)
        if columns.buffer_need > len(buffers):
            buffers.resize(max(columns.buffer_need, 2 * len(buffers)),
                           refcheck=False)
    lines.resize(int(line_offsets[n]), refcheck=False)
    buffers.resize(int(buffer_offsets[n]), refcheck=False)
    return ColumnarTrace(
        name=spec.name,
        ops=ops,
        depends=depends,
        checked=checked,
        warp_offsets=(
            np.arange(warps + 1, dtype=np.int64) * instructions_per_warp
        ),
        line_offsets=line_offsets,
        lines=lines,
        buffer_offsets=buffer_offsets,
        buffers=buffers,
    )


# ----------------------------------------------------------------------
# The Python loop: the oracle.


def _python_columns(
    spec: BenchmarkProfile, warps: int, instructions_per_warp: int,
    seed_salt: int,
) -> ColumnarTrace:
    """The trace's columns, drawn one ``random`` call at a time."""
    n_buffers = spec.n_buffers
    dep_rate = spec.dep_rate
    mem_fraction = spec.mem_fraction
    int_fraction = spec.int_fraction
    ptr_rate = spec.ptr_rate
    coalesced = spec.coalesced
    global_frac = spec.global_frac
    global_shared_frac = spec.global_frac + spec.shared_frac
    scatter = spec.buffer_locality == "scatter"
    uncoalesced = spec.uncoalesced_transactions
    lines_in_set = _lines_in_set(spec)
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
    )
