"""Hypothesis strategies for random kernel traces, shared by the suites
that check the trace substrate and the simulator against its oracle."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.sim import KernelTrace, OpClass, TraceInstruction


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
