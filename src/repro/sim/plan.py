"""Native issue-plan decoder.

``plan.c`` is one fixed C translation unit (not generated per cell):
the model family and its parameters, the plan geometry and the
:mod:`repro.sim.timing` latencies arrive in a parameter block.  It
walks a :class:`~repro.sim.columnar.ColumnarTrace`'s eight columns
once, in place, and writes the :class:`~repro.sim.columnar.IssuePlan`
that :func:`~repro.sim.columnar.expand_columnar` plus
:func:`~repro.sim.columnar.decode_issue_plan` compute in NumPy, column
for column and byte for byte: Baggy's check chain is emitted during
the walk, line addresses are floored as NumPy's ``>>``, ``//`` and
``%`` floor them, and GPUShield's probes come in the order CPython
iterates ``set(ids)``.

The decoder is built and loaded on the first decode through
:func:`repro.sim.codegen.load_cell`, which builds, caches and loads
every native unit, and this module is imported only then, so
``import repro.experiments`` neither compiles it nor loads cffi.  A
count pass sizes every column exactly (the probe columns at an upper
bound, trimmed in place), and a write pass fills them through a
pointer array in ``PLAN_COLUMNS + PROBE_COLUMNS`` order.  The C code keeps no static state, so threads may decode at
once (cffi releases the GIL for the call).

:func:`native_plan` returns ``None`` when NumPy must decode instead —
no C compiler, a failed build, or a trace whose values the C pass
cannot reproduce exactly — and counts each such plan through
:func:`repro.sim.native.note_fallback`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .codegen import load_cell
from .columnar import (
    _EMPTY,
    PLAN_COLUMNS,
    PROBE_COLUMNS,
    TRACE_DTYPES,
    ColumnarTrace,
    IssuePlan,
    PlanGeometry,
)
from .native import note_fallback
from .timing import (
    ALU_LATENCY_CYCLES,
    SHARED_LATENCY_CYCLES,
    TRANSACTION_CYCLES,
)

#: The decoder's source.
PLAN_SOURCE = Path(__file__).with_name("plan.c")

#: Plan-key families the decoder gives a decode of their own; every
#: other family (baseline, Baggy) decodes plainly, as in
#: :func:`~repro.sim.columnar.decode_issue_plan`.
_FAMILY = {"lmi": 1, "gpushield": 2}

#: The largest buffer id whose hash is itself (``2**61 - 1`` hashes
#: to 0).
_MAX_HASHED_ID = (1 << 61) - 2


def native_plan(
    columnar: ColumnarTrace, plan_key: Tuple, geometry: PlanGeometry
) -> Optional[IssuePlan]:
    """The plan of *columnar* under *plan_key* and *geometry*, or
    ``None`` (the reason noted) when NumPy must decode it.

    The decoder reads the trace's columns in place, so it takes only
    the dtypes :meth:`ColumnarTrace.from_trace` writes; a GPUShield
    plan also needs the key's metadata base in ``[0, 2**63)`` and every
    probed id in ``[0, max_id]``, where its hash is the id itself and
    ``base + id * entry_bytes`` fits in ``int64``.  Anything else is a
    ``"plan-values"`` fallback.
    """
    kernel = load_cell(PLAN_SOURCE)
    if isinstance(kernel, str):
        note_fallback(kernel)
        return None
    ffi, lib = kernel
    if any(
        getattr(columnar, name).dtype != dtype
        for name, dtype in TRACE_DTYPES.items()
    ):
        note_fallback("plan-values")
        return None
    family = plan_key[0]
    entry_bytes = rc_sets = base = max_id = 0
    if family == "gpushield":
        _, entry_bytes, rc_sets, base = plan_key
        if not 0 <= base < 1 << 63:
            note_fallback("plan-values")
            return None
        max_id = min(_MAX_HASHED_ID, ((1 << 63) - 1 - base) // entry_bytes)
    l1_bits, l1_sets, l2_bits, l2_sets, channels = geometry
    params = ffi.new("struct lmi_plan_params *", {
        "family": _FAMILY.get(family, 0),
        "ocu": int(plan_key[1]) if family == "lmi" else 0,
        "chain": max(int(plan_key[1]), 0) if family == "baggy" else 0,
        "entry_bytes": entry_bytes,
        "rc_sets": rc_sets,
        "metadata_base": base,
        "max_id": max_id,
        "l1_bits": l1_bits,
        "l1_sets": l1_sets,
        "l2_bits": l2_bits,
        "l2_sets": l2_sets,
        "channels": channels,
        "alu_latency": ALU_LATENCY_CYCLES,
        "shared_latency": SHARED_LATENCY_CYCLES,
        "tx_cycles": TRANSACTION_CYCLES,
    })
    trace = ffi.new("struct lmi_plan_trace *")
    views = []  # the struct holds raw pointers into these
    for name in TRACE_DTYPES:
        column = np.ascontiguousarray(getattr(columnar, name))
        views.append(ffi.from_buffer(
            "uint8_t[]" if column.itemsize == 1 else "int64_t[]", column
        ))
        setattr(trace, name, views[-1])
    trace.warps = columnar.warp_count
    sizes = ffi.new("struct lmi_plan_sizes *")
    if lib.lmi_plan_count(params, trace, sizes):
        note_fallback("plan-values")
        return None
    columns = [
        np.empty(size, dtype=np.int64) if size else _EMPTY
        for size in sizes.columns
    ]
    scratch = ffi.NULL
    if sizes.max_ids > 1:
        # set_order's output and hash table, for the widest record.
        slots = 1 << max(3, (4 * sizes.max_ids).bit_length())
        scratch = ffi.from_buffer(
            "int64_t[]", np.empty(sizes.max_ids + slots, dtype=np.int64)
        )
    probes = lib.lmi_plan_write(
        params, trace,
        ffi.new("int64_t *[]", [
            ffi.from_buffer("int64_t[]", column) for column in columns
        ]),
        scratch,
    )
    plan = dict(zip(PLAN_COLUMNS + PROBE_COLUMNS, columns))
    for name in PROBE_COLUMNS[1:]:
        # A record probes each distinct id once: trim the columns,
        # sized for every id, in place.
        if probes < len(plan[name]):
            plan[name].resize(probes, refcheck=False)
    return IssuePlan(
        total_instructions=sizes.instructions,
        extra_transactions=sizes.extra_transactions,
        lsu_serialization_cycles=TRANSACTION_CYCLES * sizes.extra_transactions,
        has_probes=family == "gpushield",
        **plan,
    )
