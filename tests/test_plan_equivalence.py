"""The two issue-plan decoders write equal plans.

:func:`repro.sim.columnar.plan_for` decodes a trace either in the
native decoder (:mod:`repro.sim.plan`) or through the NumPy decode
that is its oracle (:func:`~repro.sim.columnar.expand_columnar` plus
:func:`~repro.sim.columnar.decode_issue_plan`).  This suite locks:

* **Equivalence** — for random traces × the four model families
  (random OCU cycles, check-chain lengths and RCache geometries) × a
  random geometry (line bytes 32–1024, set counts that are and are not
  powers of two, 1–32 channels), negative line addresses and ids up to
  the native range included, every :class:`IssuePlan` field is equal:
  the 20 columns in dtype and bytes, and the four scalars; so is every
  Fig. 12 plan at three sizes;
* **Probe order** — GPUShield probes a record's ids in the order
  CPython iterates ``set(ids)``, checked against ``list(set(xs))``;
* **Visible fallbacks** — ids outside the native range, a negative
  metadata base, columns of another dtype, no compiler and a failed
  compile each give the NumPy plan, and
  :func:`repro.sim.native.fallback_counts` names the reason;
* **A moved bounds table** — a GPUShield subclass that sets its own
  ``METADATA_BASE`` matches the oracle through either decoder;
* **Threads** — decoding from more threads than cores at once equals a
  serial decode;
* **One layout** — ``plan.c`` names its column slots in the order of
  :data:`~repro.sim.columnar.PLAN_COLUMNS` +
  :data:`~repro.sim.columnar.PROBE_COLUMNS`.
"""

from __future__ import annotations

import dataclasses
import os
import random
import re
import stat
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.config import DEFAULT_GPU_CONFIG
from repro.experiments.engine import model_factory
from repro.sim import (
    KernelTrace,
    OpClass,
    ReferenceSmSimulator,
    SmSimulator,
    TraceInstruction,
    codegen,
)
from repro.sim import plan as decoder
from repro.sim.codegen import CACHE_ENV
from repro.sim.columnar import (
    PLAN_COLUMNS,
    PROBE_COLUMNS,
    TRACE_DTYPES,
    ColumnarTrace,
    decode_issue_plan,
    expand_columnar,
    plan_for,
    plan_geometry,
)
from repro.sim.native import fallback_counts
from repro.sim.timing import GPUShieldTiming
from repro.workloads import all_benchmarks, synthesize_trace

from .test_sim_columnar_equivalence import PROBE_ORDER_TRACE
from .trace_strategies import SET_COUNTS, kernel_traces, timing_models

MODELS = ("baseline", "lmi", "gpushield", "baggy")

#: The default geometry: 192 L1 and 1536 L2 sets, 8 channels.
GEOMETRY = plan_geometry(DEFAULT_GPU_CONFIG)

#: The largest id the native decoder takes at the default 16-byte
#: RCache entry: its metadata address is the last that fits in int64.
MAX_NATIVE_ID = ((1 << 63) - 1 - GPUShieldTiming.METADATA_BASE) // 16


def _delta(before, after):
    """Reason → growth between two fallback_counts() snapshots."""
    return {
        reason: after[reason] - before.get(reason, 0)
        for reason in after
        if after[reason] != before.get(reason, 0)
    }


def _numpy_plan(trace, model, geometry=GEOMETRY):
    """The oracle: expand, then decode in NumPy."""
    key = model.columnar_plan_key()
    expanded = trace.columnar
    if key[0] == "baggy":
        expanded = expand_columnar(expanded, model)
    return decode_issue_plan(expanded, key, geometry)


def _native_plan(trace, model, geometry=GEOMETRY):
    plan = decoder.native_plan(
        trace.columnar, model.columnar_plan_key(), geometry
    )
    assert plan is not None, "the native decoder refused the trace"
    return plan


def _assert_equal_plans(got, want):
    for name in ("total_instructions", "extra_transactions",
                 "lsu_serialization_cycles", "has_probes"):
        assert getattr(got, name) == getattr(want, name), name
    for name in PLAN_COLUMNS + PROBE_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def native():
    """Skip unless the native decoder builds and loads here."""
    if isinstance(codegen.load_cell(decoder.PLAN_SOURCE), str):
        pytest.skip("no C toolchain for the plan decoder")


# ----------------------------------------------------------------------
# Equivalence on random traces, models and geometries.


@st.composite
def geometries(draw):
    """``plan_geometry`` values: line bytes 32–1024, set counts that
    are and are not powers of two, 1–32 channels."""

    def sets():
        return draw(SET_COUNTS | st.integers(1, 1 << 20))

    return (draw(st.integers(5, 10)), sets(), draw(st.integers(5, 10)),
            sets(), draw(st.integers(1, 32)))


#: Line addresses either side of zero: NumPy floors negative ones.
_LINES = st.integers(-(1 << 62), 1 << 62) | st.integers(-4096, 4096)

#: The largest id in the native range at every drawn entry size (up
#: to 256 bytes).
_TOP_ID = ((1 << 63) - 1 - GPUShieldTiming.METADATA_BASE) // 256

#: Buffer ids across the native range, colliding in low bits.
_IDS = (
    st.integers(0, 64)
    | st.integers(0, _TOP_ID)
    | st.integers(0, 1 << 20).map(lambda k: k * 128)
    | st.sampled_from([0, 1, _TOP_ID])
)


@pytest.mark.usefixtures("native")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=kernel_traces() | kernel_traces(lines=_LINES, buffer_ids=_IDS),
    make_model=timing_models(),
    geometry=geometries(),
)
@example(trace=PROBE_ORDER_TRACE, make_model=GPUShieldTiming,
         geometry=GEOMETRY)
def test_native_decoder_matches_numpy(trace, make_model, geometry):
    model = make_model()
    _assert_equal_plans(_native_plan(trace, model, geometry),
                        _numpy_plan(trace, model, geometry))


@pytest.mark.parametrize(
    "warps, instructions", [(16, 1200), (8, 400), (8, 1000)]
)
def test_every_profile_and_mechanism_matches(native, warps, instructions):
    before = fallback_counts()
    for name in all_benchmarks():
        trace = synthesize_trace(
            name, warps=warps, instructions_per_warp=instructions
        )
        for mechanism in MODELS:
            model = model_factory(mechanism)
            _assert_equal_plans(plan_for(trace, model, DEFAULT_GPU_CONFIG),
                                _numpy_plan(trace, model))
    assert not _delta(before, fallback_counts())


def test_empty_and_zero_warp_traces_match(native):
    """No warps, empty warps, and a check chain closing a warp."""
    chained = [TraceInstruction(op=OpClass.INT, checked=True)]
    for trace in (
        KernelTrace(name="none", warps=[]),
        KernelTrace(name="empty", warps=[[], [], []]),
        KernelTrace(name="chain", warps=[[], chained, [], chained * 2]),
    ):
        for mechanism in MODELS:
            model = model_factory(mechanism)
            _assert_equal_plans(_native_plan(trace, model),
                                _numpy_plan(trace, model))


# ----------------------------------------------------------------------
# Probe order.


def _probe_ids(trace):
    """The ids each record of *trace* probes, read back from a
    one-set RCache's tags."""
    model = GPUShieldTiming(rcache_bytes=1, rcache_ways=1, entry_bytes=1)
    plan = _native_plan(trace, model)
    ids = plan.probe_rct.tolist()
    starts = plan.rec_probe_start.tolist()
    return [ids[a:b] for a, b in zip(starts, starts[1:])]


def _id_lists(rng, count):
    """Random id lists of 1–300 ids up to ``2**61 - 2``: uniform, or
    on strides of 8, 32 and 128 that collide in the table's low bits
    and force resizes, duplicates included."""
    top = (1 << 61) - 2
    for _ in range(count):
        size = rng.randint(1, 300)
        kind = rng.choice(("uniform", 8, 32, 128))
        if kind == "uniform":
            yield [rng.randint(0, top) for _ in range(size)]
            continue
        base = rng.randint(0, top - kind * 1024)
        yield [base + kind * rng.randint(0, rng.choice((16, 400, 1024)))
               for _ in range(size)]


def test_probes_follow_set_order(native):
    rng = random.Random(2025)
    lists = list(_id_lists(rng, 3000))
    # Past 50,000 ids the table grows to 2 * used, not 4 * used.
    lists.append([rng.randint(0, 1 << 40) * 8 for _ in range(100_000)])
    # At 1-byte entries every id up to 2**61 - 2 is in the native range.
    trace = KernelTrace(
        name="set-order",
        warps=[[
            TraceInstruction(op=OpClass.LDG, lines=(0,), buffer_ids=tuple(xs))
            for xs in lists
        ]],
    )
    before = fallback_counts()
    assert _probe_ids(trace) == [list(set(xs)) for xs in lists]
    assert not _delta(before, fallback_counts())


def test_probe_order_trace_example(native):
    assert _probe_ids(PROBE_ORDER_TRACE) == [[65, 129, 97, 1, 33], [65], [65]]


# ----------------------------------------------------------------------
# Fallbacks.


def _one_record(*buffer_ids, lines=(0x1000,)):
    return KernelTrace(
        name="edge",
        warps=[[
            TraceInstruction(op=OpClass.INT, checked=True),
            TraceInstruction(op=OpClass.LDG, lines=lines,
                             buffer_ids=buffer_ids, depends=True),
        ]],
    )


def _assert_plan_for(trace, model, reasons):
    """``plan_for`` gives NumPy's plan, noting exactly *reasons*."""
    before = fallback_counts()
    got = plan_for(trace, model, DEFAULT_GPU_CONFIG)
    assert _delta(before, fallback_counts()) == reasons
    _assert_equal_plans(got, _numpy_plan(trace, model))


@pytest.mark.parametrize(
    "buffer_id",
    [(1 << 61) - 1, 1 << 62, -1, -(1 << 63), MAX_NATIVE_ID + 1],
    ids=["hash-wraps", "past-hash", "negative", "int64-min",
         "metadata-overflow"],
)
def test_ids_outside_the_native_range_take_numpy(native, buffer_id):
    _assert_plan_for(_one_record(3, buffer_id, 3), GPUShieldTiming(),
                     {"plan-values": 1})


def test_ids_at_the_native_range_stay_native(native):
    trace = _one_record(0, MAX_NATIVE_ID, 5)
    _assert_plan_for(trace, GPUShieldTiming(), {})
    # Other models never read ids, so no id sends them to NumPy.
    for mechanism in ("baseline", "lmi", "baggy"):
        _assert_plan_for(_one_record(-1, 1 << 62), model_factory(mechanism),
                         {})


class MovedTable(GPUShieldTiming):
    """An attribute-only subclass that moves the bounds table: it keeps
    the fast path, so both decoders must read its base."""

    METADATA_BASE = 0x1000_0000_0000 + 384


#: A 3-set, 4-way L2 and 3 DRAM channels, on which the moved table's
#: metadata lines fall on other sets and channels than the default's.
SMALL_L2 = dataclasses.replace(
    DEFAULT_GPU_CONFIG,
    l2=dataclasses.replace(DEFAULT_GPU_CONFIG.l2, size_bytes=1536, ways=4),
    dram_channels=3,
)


@pytest.mark.parametrize("path", ["native", "numpy"])
def test_moved_metadata_base_matches_reference(path, monkeypatch):
    # When both decoders read GPUShieldTiming's own table address,
    # these cells gave 26,956 and 34,168 cycles against the oracle's
    # 27,014 and 35,152.
    if path == "native":
        if isinstance(codegen.load_cell(decoder.PLAN_SOURCE), str):
            pytest.skip("no C toolchain for the plan decoder")
    else:
        monkeypatch.setattr(decoder, "native_plan", lambda *args: None)
    assert MovedTable().columnar_plan_key()[-1] == MovedTable.METADATA_BASE
    before = fallback_counts()
    for benchmark in ("needle", "LSTM"):
        trace = synthesize_trace(benchmark, warps=8, instructions_per_warp=400)
        got = SmSimulator(SMALL_L2, MovedTable()).run(trace)
        want = ReferenceSmSimulator(SMALL_L2, MovedTable()).run(trace)
        assert got.cycles == want.cycles, benchmark
        assert got.stats == want.stats, benchmark
    assert "plan-values" not in _delta(before, fallback_counts())


def test_negative_metadata_base_takes_numpy(native):
    # C's / and % truncate where NumPy's // and % floor.
    class Below(GPUShieldTiming):
        METADATA_BASE = -(1 << 20)

    _assert_plan_for(_one_record(3, 5, 3), Below(), {"plan-values": 1})


def test_negative_lines_stay_native(native):
    lines = (-(1 << 62), -129, -128, -1, 0, 127)
    for mechanism in MODELS:
        _assert_plan_for(_one_record(2, lines=lines),
                         model_factory(mechanism), {})


@pytest.mark.parametrize(
    "column, dtype",
    [("lines", np.int32), ("depends", np.uint8), ("ops", np.int64),
     ("line_offsets", np.int32)],
)
def test_other_dtypes_take_numpy(native, column, dtype):
    base = synthesize_trace("needle", warps=3, instructions_per_warp=150)
    arrays = {name: getattr(base.columnar, name) for name in TRACE_DTYPES}
    arrays[column] = arrays[column].astype(dtype)
    trace = ColumnarTrace(name="cast", **arrays).to_trace()
    for mechanism in MODELS:
        _assert_plan_for(trace, model_factory(mechanism), {"plan-values": 1})


def test_no_toolchain_takes_numpy(monkeypatch, fresh_memo):
    trace = synthesize_trace("needle", warps=3, instructions_per_warp=150)
    monkeypatch.setattr(codegen, "_find_cc", lambda: None)
    for mechanism in MODELS:
        _assert_plan_for(trace, model_factory(mechanism),
                         {"no-toolchain": 1})


def test_failed_compile_takes_numpy(tmp_path, monkeypatch, fresh_memo):
    trace = synthesize_trace("needle", warps=3, instructions_per_warp=150)
    broken = tmp_path / "cc"
    broken.write_text("#!/bin/sh\nexit 1\n")
    broken.chmod(broken.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setattr(codegen, "_find_cc", lambda: str(broken))
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "kernels"))
    # The failure is memoized, and every plan it sends to NumPy is
    # counted.
    for mechanism in MODELS:
        _assert_plan_for(trace, model_factory(mechanism),
                         {"compile-failed": 1})
    assert not list((tmp_path / "kernels").glob("*.so"))


# ----------------------------------------------------------------------
# Threads.


def test_threads_at_once_equal_a_serial_decode(native, fresh_memo):
    """More threads than cores race the first load of the decoder,
    then decode at once (the call releases the GIL)."""
    traces = [
        synthesize_trace(name, warps=6, instructions_per_warp=400)
        for name in all_benchmarks()[:10]
    ]
    work = [(trace, model_factory(mechanism))
            for trace in traces for mechanism in MODELS]
    serial = [_numpy_plan(trace, model) for trace, model in work]
    threads = 2 * (os.cpu_count() or 1) + 1
    results = [[None] * len(work) for _ in range(threads)]
    barrier = threading.Barrier(threads)

    def decode(slot):
        barrier.wait()
        for i, (trace, model) in enumerate(work):
            results[slot][i] = plan_for(trace, model, DEFAULT_GPU_CONFIG)

    before = fallback_counts()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=decode, args=(slot,))
                for slot in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not _delta(before, fallback_counts())
    for row in results:
        for got, want in zip(row, serial):
            _assert_equal_plans(got, want)


# ----------------------------------------------------------------------
# One layout.


def test_slot_order_is_the_plan_layout():
    source = decoder.PLAN_SOURCE.read_text("utf-8")
    slots = re.search(r"enum \{\s*(RUN_START.*?),\s*PLAN_SLOTS", source, re.S)
    names = re.split(r",\s*", slots.group(1))
    assert names == [name.upper() for name in PLAN_COLUMNS + PROBE_COLUMNS]
