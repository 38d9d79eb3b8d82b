"""The two trace synthesizers write equal columns.

:mod:`repro.workloads.synthetic` draws a trace either in its native
kernel (``synthetic.c``) or in the Python loop that is its oracle.
This suite locks:

* **Equivalence** — for random profiles (stream and scatter locality,
  buffer and line counts that are and are not powers of two, so the
  rejection loops reject about half the draws or fewer, widths 1–32,
  fractions at 0 and 1), sizes and salts, negative salts included,
  all eight columns are equal, dtype and bytes;
* **Exact sizing** — columns that outgrow their first capacity are
  regrown and still equal, and no column keeps spare room;
* **Threads** — synthesizing from more threads than cores at once
  equals a serial run;
* **Visible fallbacks** — without a compiler, after a failed compile,
  or for draws wider than 32 bits, ``synthesize_trace`` returns the
  same columns through the Python loop and
  :func:`repro.sim.native.fallback_counts` names the reason;
* **Argument checks** — negative sizes raise on both paths.
"""

from __future__ import annotations

import dataclasses
import os
import stat
import sys
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sim import codegen
from repro.sim.codegen import CACHE_ENV
from repro.sim.native import fallback_counts
from repro.workloads import BenchmarkProfile, all_benchmarks, profile
from repro.workloads import synthetic
from repro.workloads.synthetic import synthesize_trace

from .trace_strategies import COLUMNS


def _delta(before, after):
    """Reason → growth between two fallback_counts() snapshots."""
    return {
        reason: after[reason] - before.get(reason, 0)
        for reason in after
        if after[reason] != before.get(reason, 0)
    }


def _assert_equal_columns(got, want):
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def native():
    """Skip unless the native synthesizer builds and loads here."""
    if isinstance(codegen.load_cell(synthetic.SYNTH_SOURCE), str):
        pytest.skip("no C toolchain for the trace synthesizer")


@pytest.fixture
def python_only(monkeypatch, fresh_memo):
    """Hide every C compiler: synthesis runs the Python loop."""
    monkeypatch.setattr(codegen, "_find_cc", lambda: None)


# ----------------------------------------------------------------------
# Equivalence on random profiles.

#: Fractions with both ends drawn often.
_fractions = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def profiles(draw) -> BenchmarkProfile:
    global_frac = draw(_fractions)
    shared_frac = draw(st.sampled_from([0.0, 1.0 - global_frac])
                       | st.floats(0.0, 1.0 - global_frac))
    return BenchmarkProfile(
        name=draw(st.sampled_from(["p", "gaussian", "needle", "x" * 40])),
        suite="t",
        mem_fraction=draw(_fractions),
        global_frac=global_frac,
        shared_frac=shared_frac,
        local_frac=(1.0 - global_frac) - shared_frac,
        int_fraction=draw(_fractions),
        ptr_rate=draw(_fractions),
        dep_rate=draw(_fractions),
        coalesced=draw(_fractions),
        uncoalesced_transactions=draw(st.integers(1, 32)),
        # 1, powers of two and others.
        n_buffers=draw(st.sampled_from([1, 2, 64, 3, 6, 100])
                       | st.integers(1, 5000)),
        buffer_locality=draw(st.sampled_from(["stream", "scatter"])),
        # A power-of-two KiB count gives a power-of-two line count: the
        # rejection loop then throws away about half of its draws.
        working_set_kb=draw(st.sampled_from([0, 1, 16, 512, 3, 100])
                            | st.integers(0, 1 << 14)),
    )


@pytest.mark.usefixtures("native")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=profiles(),
    warps=st.integers(0, 20),
    instructions=st.integers(0, 300),
    salt=st.integers(-(1 << 40), 1 << 40),
)
@example(spec=profile("needle"), warps=3, instructions=200, salt=-1)
@example(spec=profile("LSTM"), warps=20, instructions=300, salt=0)
def test_native_kernel_matches_python_loop(spec, warps, instructions, salt):
    want = synthetic._python_columns(spec, warps, instructions, salt)
    got = synthetic._native_columns(spec, warps, instructions, salt)
    _assert_equal_columns(got, want)


@pytest.mark.parametrize(
    "warps, instructions, seed_salt",
    [(16, 1200, 0), (4, 300, 1), (4, 300, 7), (3, 0, 0), (0, 9, 0),
     (1, 1, -5)],
)
def test_every_profile_matches(native, warps, instructions, seed_salt):
    for name in all_benchmarks():
        spec = profile(name)
        _assert_equal_columns(
            synthetic._native_columns(spec, warps, instructions, seed_salt),
            synthetic._python_columns(spec, warps, instructions, seed_salt),
        )


def test_regrown_columns_match_and_fit_exactly(native, monkeypatch):
    """From no room at all the kernel regrows until every warp fits,
    and the columns it returns own exactly their data (no view into a
    larger allocation)."""
    monkeypatch.setattr(synthetic, "_capacities", lambda spec, n: (0, 0))
    for name in ("needle", "LSTM", "gaussian"):
        spec = profile(name)
        got = synthetic._native_columns(spec, 5, 300, 3)
        _assert_equal_columns(got, synthetic._python_columns(spec, 5, 300, 3))
        assert got.lines.flags.owndata and got.buffers.flags.owndata


def test_first_capacity_needs_no_regrow(native):
    """The expected counts with headroom cover a Fig. 12-sized trace."""
    for name in all_benchmarks():
        spec = profile(name)
        columns = synthetic._native_columns(spec, 16, 1200, 0)
        line_cap, buffer_cap = synthetic._capacities(spec, 16 * 1200)
        assert len(columns.lines) <= line_cap, name
        assert len(columns.buffers) <= buffer_cap, name


# ----------------------------------------------------------------------
# Threads.


def test_threads_at_once_equal_a_serial_run(native, fresh_memo):
    """More threads than cores race the first load of the kernel, then
    synthesize at once (the kernel releases the GIL)."""
    names = all_benchmarks()
    serial = [
        synthetic._python_columns(profile(name), 6, 400, 0)
        for name in names
    ]
    threads = 2 * (os.cpu_count() or 1) + 1
    results = [[None] * len(names) for _ in range(threads)]
    barrier = threading.Barrier(threads)

    def work(slot):
        barrier.wait()
        for i, name in enumerate(names):
            results[slot][i] = synthesize_trace(
                name, warps=6, instructions_per_warp=400
            ).columnar

    before = fallback_counts()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(threads)
        ]
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
            _assert_equal_columns(got, want)


# ----------------------------------------------------------------------
# Fallbacks.


def _columns(name="needle", **kwargs):
    return synthesize_trace(
        name, warps=3, instructions_per_warp=150, seed_salt=2, **kwargs
    ).columnar


def test_no_toolchain_falls_back_to_the_python_loop(monkeypatch, fresh_memo):
    want = _columns()
    monkeypatch.setattr(codegen, "_find_cc", lambda: None)
    codegen._reset_memo()
    before = fallback_counts()
    got = _columns()
    assert _delta(before, fallback_counts()) == {"no-toolchain": 1}
    _assert_equal_columns(got, want)


def test_failed_compile_falls_back_to_the_python_loop(
    tmp_path, monkeypatch, fresh_memo
):
    want = _columns()
    broken = tmp_path / "cc"
    broken.write_text("#!/bin/sh\nexit 1\n")
    broken.chmod(broken.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setattr(codegen, "_find_cc", lambda: str(broken))
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "kernels"))
    codegen._reset_memo()
    before = fallback_counts()
    got = _columns()
    assert _delta(before, fallback_counts()) == {"compile-failed": 1}
    _assert_equal_columns(got, want)
    # The failure is memoized, and every synthesis it sends to the
    # Python loop is counted.
    _columns()
    assert _delta(before, fallback_counts()) == {"compile-failed": 2}
    assert not list((tmp_path / "kernels").glob("*.so"))


@pytest.mark.parametrize(
    "wide",
    [{"n_buffers": 2**33}, {"working_set_kb": 2**29}],
    ids=["buffers", "lines"],
)
def test_draws_wider_than_32_bits_take_the_python_loop(wide):
    spec = dataclasses.replace(profile("needle"), **wide)
    before = fallback_counts()
    got = synthesize_trace("needle", warps=2, instructions_per_warp=120,
                           spec=spec)
    assert _delta(before, fallback_counts()) == {"wide-draws": 1}
    _assert_equal_columns(
        got.columnar, synthetic._python_columns(spec, 2, 120, 0)
    )


def test_32_bit_draws_stay_native(native):
    """``n_buffers = 2**32 - 1`` draws exactly 32 bits: still native."""
    spec = dataclasses.replace(profile("needle"), n_buffers=2**32 - 1)
    before = fallback_counts()
    got = synthesize_trace("needle", warps=2, instructions_per_warp=120,
                           spec=spec)
    assert not _delta(before, fallback_counts())
    _assert_equal_columns(
        got.columnar, synthetic._python_columns(spec, 2, 120, 0)
    )


# ----------------------------------------------------------------------
# Argument checks, on both paths.


@pytest.fixture(params=["native", "python"])
def path(request):
    if request.param == "native":
        request.getfixturevalue("native")
    else:
        request.getfixturevalue("python_only")
    return request.param


@pytest.mark.parametrize(
    "sizes",
    [{"warps": -3}, {"instructions_per_warp": -5}],
    ids=["warps", "instructions"],
)
def test_negative_sizes_rejected(path, sizes):
    with pytest.raises(ValueError, match="non-negative"):
        synthesize_trace("gaussian", **sizes)


def test_zero_sizes_give_empty_warps(path):
    assert synthesize_trace("gaussian", warps=0).warps == []
    assert synthesize_trace(
        "gaussian", warps=3, instructions_per_warp=0
    ).warps == [[], [], []]
