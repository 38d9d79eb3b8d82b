"""Kernel-trace files (the NVBit → MacSim file flow).

The paper's methodology captures CUDA traces with NVBit and feeds them
to MacSim as files.  This module provides the same decoupling for this
repo with one format, a **columnar ``.npz`` container**
(:func:`dump_trace_npz` / :func:`load_trace_npz`): the
:class:`~repro.sim.columnar.ColumnarTrace` arrays plus a versioned
header, so traces can be generated once, versioned and replayed
through the simulator.  It is also the on-disk shape of the trace
cache's disk layer (``--trace-cache``).

Members are written *stored* (``np.savez``), not deflated: deflating
the 28 Fig. 12 traces (16 warps x 1200 instructions) took 1.9-2.0 s
for 4.2 MB, against 0.04-0.05 s for 22 MB stored, and the stored files
load in about half the time.  Zip's per-member CRC-32 still guards
their bytes, and guards them better: ``np.load`` reads a stored member
to its end, where zip checks it, but can stop a deflated one short of
the check (one single-bit flip in a deflated container loaded a
different trace).  Deflated containers that older writers left behind
load unchanged: ``np.load`` reads both.  Loading returns a
column-backed trace over the stored arrays: no instruction object is
built, and a follow-up simulation decodes its plan straight from them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from ..common.errors import TraceFormatError
from .trace import KernelTrace

#: Format identifier of the columnar ``.npz`` container.
NPZ_FORMAT_VERSION = 1

#: Column names stored in the ``.npz`` container, in schema order.
_NPZ_COLUMNS = (
    "ops",
    "depends",
    "checked",
    "warp_offsets",
    "line_offsets",
    "lines",
    "buffer_offsets",
    "buffers",
)


def dump_trace_npz(
    trace: KernelTrace, target: Union[str, Path, BinaryIO]
) -> None:
    """Write *trace* as a versioned columnar ``.npz`` container.

    The container holds the :class:`~repro.sim.columnar.ColumnarTrace`
    arrays verbatim plus a ``header`` array carrying the format version
    and the (UTF-8 encoded) kernel name, so the file is self-describing
    and refuses to load under an incompatible schema.  Every member is
    stored uncompressed (see the module docstring for the cost).
    """
    columnar = trace.columnar
    payload = {name: getattr(columnar, name) for name in _NPZ_COLUMNS}
    payload["header"] = np.frombuffer(
        json.dumps(
            {"format": NPZ_FORMAT_VERSION, "name": columnar.name}
        ).encode("utf-8"),
        dtype=np.uint8,
    )
    own = isinstance(target, (str, Path))
    stream = open(target, "wb") if own else target
    try:
        np.savez(stream, **payload)
    finally:
        if own:
            stream.close()


def load_trace_npz(source: Union[str, Path, BinaryIO]) -> KernelTrace:
    """Read a trace written by :func:`dump_trace_npz`.

    Every failure to read a container surfaces as
    :class:`TraceFormatError`: a truncated file, a member failing zip's
    CRC-32 check, a missing or future-version header, a missing
    column.  The returned :class:`KernelTrace` is backed by the loaded
    columns, which :class:`~repro.sim.columnar.ColumnarTrace` validates
    on construction: a container with bad columns (an offset past its
    column, an unknown op code, a record breaking the
    :class:`~repro.sim.trace.TraceInstruction` rules) raises here, not
    in a later plan decode.
    """
    from .columnar import ColumnarTrace

    try:
        with np.load(source, allow_pickle=False) as archive:
            if "header" not in archive:
                raise TraceFormatError("npz trace missing header")
            try:
                header = json.loads(bytes(archive["header"]).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise TraceFormatError("unparsable npz trace header") from error
            if header.get("format") != NPZ_FORMAT_VERSION:
                raise TraceFormatError(
                    f"unsupported npz trace format {header.get('format')!r}"
                )
            missing = [c for c in _NPZ_COLUMNS if c not in archive]
            if missing:
                raise TraceFormatError(
                    f"npz trace missing columns: {missing}"
                )
            columnar = ColumnarTrace(
                name=str(header.get("name", "trace")),
                **{
                    name: np.ascontiguousarray(archive[name])
                    for name in _NPZ_COLUMNS
                },
            )
    except TraceFormatError:
        raise
    except Exception as error:
        # np.load and zipfile report damaged bytes in many ways:
        # BadZipFile (a truncated file, a member failing its CRC-32
        # check), zlib.error (a deflated member), EOFError, ValueError
        # or a tokenizer error from a .npy header, NotImplementedError
        # from a flipped method field.  Each means a damaged container.
        raise TraceFormatError(f"unreadable npz trace: {error}") from error
    return columnar.to_trace()
