"""Hypothesis strategies for random kernel traces, shared by the suites
that check the trace substrate and the simulator against its oracle,
plus the column corruptions and container damage a trace must be
rejected for."""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.sim import KernelTrace, OpClass, TraceInstruction
from repro.sim.columnar import OP_FP, OP_INT, OP_LDG, ColumnarTrace


@st.composite
def trace_instructions(draw):
    """One random, invariant-respecting trace instruction."""
    op = draw(st.sampled_from(list(OpClass)))
    depends = draw(st.booleans())
    if op.is_memory:
        lines = tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=1 << 40),
                    min_size=1,
                    max_size=4,
                )
            )
        )
        buffer_ids = tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=64),
                    min_size=1,
                    max_size=3,
                )
            )
        )
        return TraceInstruction(
            op=op, depends=depends, lines=lines, buffer_ids=buffer_ids
        )
    checked = op is OpClass.INT and draw(st.booleans())
    return TraceInstruction(op=op, depends=depends, checked=checked)


@st.composite
def kernel_traces(draw):
    """A random trace: 1–4 warps, any of which may be empty."""
    warps = draw(
        st.lists(
            st.lists(trace_instructions(), min_size=0, max_size=12),
            min_size=1,
            max_size=4,
        )
    )
    return KernelTrace(name=draw(st.sampled_from(["t", "κ-trace"])),
                       warps=warps)


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
