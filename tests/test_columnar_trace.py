"""Columnar trace substrate: converters, ``.npz`` container, summaries.

Locks the lossless round-trip contracts the columnar engine rests on:

* ``KernelTrace ⇄ ColumnarTrace`` is the identity (property-based over
  randomly shaped traces, plus seeded workload traces);
* the versioned columnar ``.npz`` container round-trips bytes-exactly,
  refuses future format versions, and its v1 schema is locked by a
  golden file committed under ``tests/data/``;
* the ``np.repeat`` Baggy Bounds lowering produces exactly the
  dataclass :func:`~repro.sim.timing.expand_stream` streams, and a
  rewriting without a columnar lowering is refused;
* :class:`KernelTrace` summary statistics match the columns, and
  returned dicts are safe to mutate;
* :class:`ColumnarTrace` rejects bad columns on construction;
* traces are column-backed: synthesis, the ``.npz`` loader, the
  simulator's fast path, the engine and Figure 1 build no
  :class:`TraceInstruction`; only the oracle's ``warps`` does.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.common.config import DEFAULT_GPU_CONFIG
from repro.common.errors import SimulationError, TraceFormatError
from repro.experiments import run_fig1
from repro.experiments.engine import SimJob, execute_group, model_factory
from repro.sim import (
    KernelTrace,
    OpClass,
    SmSimulator,
    TraceInstruction,
    dump_trace_npz,
    load_trace_npz,
    reference_simulate,
    simulate,
)
from repro.sim.columnar import ColumnarTrace, expand_columnar
from repro.sim.timing import BaggyBoundsTiming, TimingModel, expand_stream
from repro.sim.tracefile import NPZ_FORMAT_VERSION
from repro.workloads import synthesize_trace
from repro.workloads.trace_cache import TraceCache, trace_key
from repro.workloads.profiles import profile

from .trace_strategies import BAD_COLUMNS, corrupted_columns, kernel_traces

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_NPZ = DATA_DIR / "golden_trace_v1.npz"


# ----------------------------------------------------------------------
# KernelTrace ⇄ ColumnarTrace.


@settings(max_examples=60, deadline=None)
@given(trace=kernel_traces())
def test_columnar_roundtrip_property(trace):
    columnar = ColumnarTrace.from_trace(trace)
    back = columnar.to_trace()
    assert back.name == trace.name
    assert back.warps == trace.warps


@pytest.mark.parametrize("name", ["gaussian", "bfs", "LSTM"])
def test_columnar_roundtrip_workloads(name):
    trace = synthesize_trace(name, warps=4, instructions_per_warp=150)
    assert ColumnarTrace.from_trace(trace).to_trace().warps == trace.warps


def test_columnar_is_memoized():
    trace = synthesize_trace("nn", warps=2, instructions_per_warp=60)
    assert trace.columnar is trace.columnar


# ----------------------------------------------------------------------
# The versioned .npz container.


@settings(max_examples=25, deadline=None)
@given(trace=kernel_traces())
def test_npz_roundtrip_property(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("npz") / "trace.npz"
    dump_trace_npz(trace, path)
    back = load_trace_npz(path)
    assert back.name == trace.name
    assert back.warps == trace.warps


def test_npz_preseeds_columnar_memo(tmp_path):
    """Loading an .npz must leave the columnar arrays on the trace."""
    trace = synthesize_trace("needle", warps=3, instructions_per_warp=120)
    path = tmp_path / "trace.npz"
    dump_trace_npz(trace, path)
    back = load_trace_npz(path)
    assert back.columnar == trace.columnar
    # Simulating the loaded trace is indistinguishable from the source.
    got, want = simulate(back), simulate(trace)
    assert (got.cycles, got.stats) == (want.cycles, want.stats)


def test_npz_rejects_future_format(tmp_path):
    trace = synthesize_trace("nn", warps=2, instructions_per_warp=40)
    path = tmp_path / "trace.npz"
    dump_trace_npz(trace, path)
    with np.load(path) as archive:
        payload = {name: archive[name] for name in archive.files}
    payload["header"] = np.frombuffer(
        b'{"format": 999, "name": "future"}', dtype=np.uint8
    ).copy()
    np.savez_compressed(path, **payload)
    with pytest.raises(TraceFormatError, match="unsupported npz"):
        load_trace_npz(path)


def test_npz_rejects_missing_columns(tmp_path):
    trace = synthesize_trace("nn", warps=2, instructions_per_warp=40)
    path = tmp_path / "trace.npz"
    dump_trace_npz(trace, path)
    with np.load(path) as archive:
        payload = {name: archive[name] for name in archive.files}
    payload.pop("lines")
    np.savez_compressed(path, **payload)
    with pytest.raises(TraceFormatError, match="missing columns"):
        load_trace_npz(path)


def test_npz_rejects_garbage(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"not an npz at all")
    with pytest.raises(TraceFormatError):
        load_trace_npz(path)


def _golden_trace() -> KernelTrace:
    """The hand-built trace frozen inside the golden v1 container."""
    return KernelTrace(
        name="golden-v1",
        warps=[
            [
                TraceInstruction(op=OpClass.INT, checked=True),
                TraceInstruction(
                    op=OpClass.LDG,
                    depends=True,
                    lines=(0x100, 0x180),
                    buffer_ids=(3,),
                ),
                TraceInstruction(op=OpClass.FP, depends=True),
            ],
            [],
            [
                TraceInstruction(
                    op=OpClass.STS, lines=(0x40,), buffer_ids=(0, 7)
                ),
                TraceInstruction(op=OpClass.LDL, lines=(0x2000,)),
            ],
        ],
    )


def test_golden_npz_schema_locked():
    """The committed v1 file must keep loading, byte-for-byte.

    This is the schema lock: any change to the column set, dtypes or
    header layout that cannot read v1 files must bump
    ``NPZ_FORMAT_VERSION`` (and grow a migration), not silently break
    every on-disk trace cache.
    """
    assert NPZ_FORMAT_VERSION == 1
    loaded = load_trace_npz(GOLDEN_NPZ)
    want = _golden_trace()
    assert loaded.name == want.name
    assert loaded.warps == want.warps


def test_golden_npz_matches_fresh_dump(tmp_path):
    """Today's writer still produces a container the v1 reader maps to
    the same trace (columns may compress differently; content may not
    drift)."""
    path = tmp_path / "fresh.npz"
    dump_trace_npz(_golden_trace(), path)
    assert load_trace_npz(path).warps == load_trace_npz(GOLDEN_NPZ).warps


# ----------------------------------------------------------------------
# Trace-cache disk layer: npz entries.


def test_disk_layer_writes_npz(tmp_path):
    cache = TraceCache(disk_dir=str(tmp_path))
    cache.get_or_synthesize("gaussian", warps=2, instructions_per_warp=80)
    key = trace_key(
        profile("gaussian"), warps=2, instructions_per_warp=80
    )
    assert (tmp_path / f"trace-{key}.npz").exists()
    # A second cache over the same directory hits disk, not synthesis.
    other = TraceCache(disk_dir=str(tmp_path))
    other.get_or_synthesize("gaussian", warps=2, instructions_per_warp=80)
    assert other.stats.disk_hits == 1


# ----------------------------------------------------------------------
# Vectorized Baggy Bounds expansion ≡ dataclass expansion.


@pytest.mark.parametrize("checks", [1, 3, 5])
def test_expand_columnar_matches_expand_stream(checks):
    trace = synthesize_trace("srad_v1", warps=3, instructions_per_warp=140)
    model = BaggyBoundsTiming(instructions_per_check=checks)
    vectorized = expand_columnar(trace.columnar, model).to_trace()
    assert vectorized.warps == [
        expand_stream(model, stream) for stream in trace.warps
    ]


@settings(max_examples=25, deadline=None)
@given(trace=kernel_traces())
def test_expand_columnar_matches_expand_stream_property(trace):
    model = BaggyBoundsTiming()
    vectorized = expand_columnar(
        ColumnarTrace.from_trace(trace), model
    ).to_trace()
    assert vectorized.warps == [
        expand_stream(model, stream) for stream in trace.warps
    ]


class _DoublingTiming(TimingModel):
    """Rewrites every instruction into two; no columnar lowering."""

    def expand(self, instr):  # noqa: D102
        yield instr
        yield instr


def test_expansion_without_lowering_raises():
    """Only identity and Baggy Bounds expansions lower to columns."""
    trace = synthesize_trace("nn", warps=2, instructions_per_warp=40)
    with pytest.raises(SimulationError, match="reference_simulate"):
        expand_columnar(trace.columnar, _DoublingTiming())
    with pytest.raises(SimulationError, match="reference_simulate"):
        SmSimulator(DEFAULT_GPU_CONFIG, _DoublingTiming())


# ----------------------------------------------------------------------
# KernelTrace summaries.


def test_summaries_cached_and_copies_safe():
    trace = synthesize_trace("bert", warps=3, instructions_per_warp=120)
    histogram = trace.op_histogram()
    assert sum(histogram.values()) == trace.total_instructions
    histogram[OpClass.INT] = -1  # mutate the returned copy
    assert trace.op_histogram()[OpClass.INT] != -1
    mix = trace.memory_region_mix()
    assert mix == pytest.approx(trace.memory_region_mix())
    mix["global"] = 99.0
    assert trace.memory_region_mix()["global"] != 99.0
    assert trace.checked_count() == int(trace.columnar.checked.sum())
    assert trace.memory_count() == sum(
        count
        for op, count in trace.op_histogram().items()
        if op.is_memory
    )


# ----------------------------------------------------------------------
# Column validation.


@pytest.mark.parametrize("kind", sorted(BAD_COLUMNS))
def test_columnar_trace_rejects_bad_columns(kind):
    good = synthesize_trace("needle", warps=2, instructions_per_warp=50)
    columns = corrupted_columns(good.columnar, kind)
    with pytest.raises(TraceFormatError, match=BAD_COLUMNS[kind][1]):
        ColumnarTrace(name="bad", **columns)


# ----------------------------------------------------------------------
# Column-backed traces: no instruction objects off the oracle's path.

MECHANISMS = ("baseline", "baggy", "gpushield", "lmi")


@pytest.fixture
def built(monkeypatch):
    """Every TraceInstruction constructed from here on."""
    instructions = []
    check = TraceInstruction.__post_init__

    def counting(self):
        instructions.append(self)
        check(self)

    monkeypatch.setattr(TraceInstruction, "__post_init__", counting)
    return instructions


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_fast_path_builds_no_instructions(mechanism, built):
    trace = synthesize_trace("needle", warps=3, instructions_per_warp=200)
    got = SmSimulator(DEFAULT_GPU_CONFIG, model_factory(mechanism)).run(trace)
    assert len(built) == 0
    # The oracle walks warps, built from the columns on first access.
    want = reference_simulate(trace, model_factory(mechanism))
    assert len(built) == trace.total_instructions
    assert (got.cycles, got.stats) == (want.cycles, want.stats)


def test_disk_round_trip_builds_no_instructions(tmp_path, built):
    request = dict(warps=2, instructions_per_warp=80, seed_salt=5)
    TraceCache(disk_dir=str(tmp_path)).get_or_synthesize("bfs", **request)
    cache = TraceCache(disk_dir=str(tmp_path))
    trace = cache.get_or_synthesize("bfs", **request)
    assert cache.stats.disk_hits == 1
    simulate(trace)
    assert len(built) == 0


def test_execute_group_builds_no_instructions(built):
    jobs = [
        SimJob(benchmark, mechanism, 2, 100, seed_salt=6)
        for benchmark in ("gaussian", "LSTM")
        for mechanism in MECHANISMS
    ]
    results = execute_group(jobs, DEFAULT_GPU_CONFIG, telemetry_wanted=True)
    assert len(results) == len(jobs)
    assert len(built) == 0


def test_fig1_builds_no_instructions(built):
    result = run_fig1(["bert"], warps=2, instructions_per_warp=100)
    assert result.row("bert").global_frac > 0.9
    assert len(built) == 0
