"""Fast-path equivalence suite.

Both executors of the simulator's fast path — the generated C kernel
of :mod:`repro.sim.native` and the pure-Python issue loop of
:mod:`repro.sim.columnar` — must be cycle-for-cycle and stat-for-stat
identical to the linear-scan oracle in :mod:`repro.sim.reference` —
not just cycles and :class:`SimStats`, but the L1/L2/RCache hit-miss
counters and DRAM queueing state too, because warm-cache semantics are
part of the simulator contract.

Coverage:

* a seeded (profile × warps × instructions) grid × all four timing
  models × both executors (``native``; ``python``, pinned by hiding
  every C compiler from the codegen layer);
* random traces (hypothesis) × all four models × both executors over
  two warm runs, and a GPUShield trace whose cycles depend on the
  order in which a record probes its buffer ids;
* warm-run parity (cache/DRAM state carried across runs);
* edge shapes the grid cannot hit: empty warp streams, >64-warp traces
  (past the native executor's bitmask width), ``hit_latency=1``
  geometry, and the largest admitted latencies;
* the loud refusal of timing models without an issue-plan lowering
  (the oracle still simulates them);
* plans live and die with their run: a cached trace keeps nothing
  derived from it, and a dropped plan is collected;
* registry parity with the oracle and byte-identity of the experiment
  engine's telemetry exports and worker-pool results.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.common.config import (
    DEFAULT_GPU_CONFIG,
    MAX_LATENCY,
    CacheConfig,
    GpuConfig,
)
from repro.common.errors import SimulationError
from repro.experiments import engine as engine_module
from repro.experiments import run_fig12
from repro.experiments.engine import SimJob, model_factory, run_sim_jobs
from repro.sim import (
    KernelTrace,
    OpClass,
    SmSimulator,
    TraceInstruction,
    codegen,
    native_available,
    reference_simulate,
)
from repro.sim.columnar import run_columnar
from repro.sim.core import SimStats
from repro.sim.native import run_native
from repro.sim.reference import ReferenceSmSimulator
from repro.sim.timing import LmiTiming, TimingModel
from repro.telemetry import capture, chrome_trace, dumps, metrics_json
from repro.telemetry.registry import MetricsRegistry
from repro.workloads import cached_trace, synthesize_trace
from repro.workloads.trace_cache import TRACE_CACHE

from .trace_strategies import kernel_traces

# ----------------------------------------------------------------------
# The equivalence grid.

#: Seeded (benchmark, warps, instructions) corpus: ≥10 combos spanning
#: memory-heavy, compute-bound, uncoalesced and mixed profiles at
#: several occupancies (including a 16-warp fig12-shaped point).
CORPUS = [
    ("gaussian", 4, 260),
    ("gaussian", 16, 200),
    ("needle", 3, 280),
    ("LSTM", 5, 240),
    ("LSTM", 12, 180),
    ("bert", 4, 260),
    ("hotspot", 6, 220),
    ("lud_cuda", 3, 260),
    ("bfs", 7, 200),
    ("srad_v1", 2, 300),
    ("nn", 1, 200),
]

MODELS = ("baseline", "lmi", "gpushield", "baggy")

#: The two executors of an issue plan.
PATHS = ("native", "python")


def _combo_id(combo) -> str:
    benchmark, warps, instructions = combo
    return f"{benchmark}-w{warps}-i{instructions}"


@pytest.fixture
def path(request, monkeypatch):
    """Pin one executor: ``native`` runs the generated C kernel
    (skipped without a toolchain); ``python`` hides every C compiler
    from the codegen layer, so plans run on the pure-Python loop."""
    if request.param == "native":
        if not native_available():
            pytest.skip("no C toolchain for the native executor")
    else:
        request.getfixturevalue("fresh_memo")
        monkeypatch.setattr(codegen, "_find_cc", lambda: None)
    return request.param


def _state(sim) -> tuple:
    """Externally observable simulator state after a run."""
    rcache = getattr(sim.model, "rcache", None)
    return (
        (sim.l1.stats.hits, sim.l1.stats.misses),
        (sim.l2.stats.hits, sim.l2.stats.misses),
        (sim.dram.stats.requests, sim.dram.stats.queue_delay_cycles),
        None
        if rcache is None
        else (rcache.stats.hits, rcache.stats.misses),
    )


def _run_both(trace, mechanism, config=DEFAULT_GPU_CONFIG, runs=1):
    """(got, want, got_state, want_state) after *runs* warm runs."""
    sim = SmSimulator(config, engine_module.model_factory(mechanism))
    ref = ReferenceSmSimulator(config, engine_module.model_factory(mechanism))
    for _ in range(runs):
        got = sim.run(trace)
        want = ref.run(trace)
    return got, want, _state(sim), _state(ref)


@pytest.mark.parametrize("path", PATHS, indirect=True)
@pytest.mark.parametrize("mechanism", MODELS)
@pytest.mark.parametrize("combo", CORPUS, ids=_combo_id)
def test_columnar_matches_reference(combo, mechanism, path):
    benchmark, warps, instructions = combo
    trace = synthesize_trace(
        benchmark, warps=warps, instructions_per_warp=instructions
    )
    got, want, got_state, want_state = _run_both(trace, mechanism)
    assert got.cycles == want.cycles
    assert got.stats == want.stats
    assert got.name == want.name
    assert got_state == want_state


@pytest.mark.parametrize("path", PATHS, indirect=True)
@pytest.mark.parametrize("mechanism", MODELS)
def test_warm_run_state_parity(mechanism, path):
    """Cache/DRAM state must carry identically across warm runs."""
    trace = synthesize_trace("hotspot", warps=6, instructions_per_warp=220)
    got, want, got_state, want_state = _run_both(trace, mechanism, runs=2)
    assert got.cycles == want.cycles
    assert got.stats == want.stats
    assert got_state == want_state


@pytest.mark.parametrize("path", PATHS, indirect=True)
def test_hit_latency_one_geometry(path):
    """Degenerate hit_latency=1 geometry (tiny caches, few channels)."""
    config = GpuConfig(
        l1=CacheConfig(size_bytes=2048, line_bytes=128, ways=2,
                       hit_latency=1),
        l2=CacheConfig(size_bytes=8192, line_bytes=128, ways=4,
                       hit_latency=3),
        dram_latency=40,
        dram_channels=2,
    )
    trace = synthesize_trace("bfs", warps=5, instructions_per_warp=240)
    for mechanism in MODELS:
        got, want, got_state, want_state = _run_both(
            trace, mechanism, config=config
        )
        assert got.cycles == want.cycles
        assert got.stats == want.stats
        assert got_state == want_state


@pytest.mark.parametrize("path", PATHS, indirect=True)
def test_latencies_at_their_bound(path):
    """The largest admitted L1 hit and DRAM latencies simulate to the
    oracle's cycles: no completion reaches the executors' 2**62
    "never" sentinel (2**61 used to hang the C kernel and crash the
    Python loop)."""
    config = GpuConfig(
        l1=dataclasses.replace(DEFAULT_GPU_CONFIG.l1, hit_latency=MAX_LATENCY),
        dram_latency=MAX_LATENCY,
    )
    trace = synthesize_trace("gaussian", warps=2, instructions_per_warp=200)
    for mechanism in MODELS:
        got, want, got_state, want_state = _run_both(
            trace, mechanism, config=config
        )
        assert got.cycles == want.cycles > MAX_LATENCY
        assert got.stats == want.stats
        assert got_state == want_state


@pytest.mark.parametrize("path", PATHS, indirect=True)
def test_empty_stream_warp(path):
    """Zero-instruction warps must not wedge either executor."""
    busy = [
        TraceInstruction(op=OpClass.INT),
        TraceInstruction(op=OpClass.LDG, lines=(0x100,), depends=True),
        TraceInstruction(op=OpClass.FP, depends=True),
    ]
    trace = KernelTrace(name="edge", warps=[list(busy), [], list(busy)])
    for mechanism in MODELS:
        got, want, got_state, want_state = _run_both(trace, mechanism)
        assert got.cycles == want.cycles
        assert got.stats == want.stats
        assert got_state == want_state


def test_no_warps_raises():
    with pytest.raises(SimulationError):
        SmSimulator().run(KernelTrace(name="empty"))


def test_past_native_bitmask_width(monkeypatch, fresh_memo):
    """>64 warps spill past one ready-mask word: the generated
    kernel's multi-word mask and the Python loop must both stay
    cycle-exact."""
    trace = synthesize_trace("gaussian", warps=65, instructions_per_warp=40)
    for python_loop in (False, True):
        if python_loop:
            monkeypatch.setattr(codegen, "_find_cc", lambda: None)
            codegen._reset_memo()
        for mechanism in MODELS:
            got, want, got_state, want_state = _run_both(trace, mechanism)
            assert got.cycles == want.cycles, (mechanism, python_loop)
            assert got.stats == want.stats, (mechanism, python_loop)
            assert got_state == want_state, (mechanism, python_loop)


# ----------------------------------------------------------------------
# Beyond the fixed grid: probe order and random traces.

#: One GPUShield warp.  The first LDG probes five buffer ids that all
#: map to set 1 of the 4-way RCache, so the first id probed is evicted
#: by the last; ``set()`` iterates them as [65, 129, 97, 1, 33], so 65
#: goes, and the first dependent re-read of 65 misses the RCache again.
#: Probing in sorted order would evict 1 instead (788 cycles, not 988).
PROBE_ORDER_TRACE = KernelTrace(
    name="probe-order",
    warps=[
        [
            TraceInstruction(
                op=OpClass.LDG, lines=(0x1000,),
                buffer_ids=(65, 1, 33, 97, 129),
            ),
            TraceInstruction(
                op=OpClass.LDG, lines=(0x1000,), buffer_ids=(65,),
                depends=True,
            ),
            TraceInstruction(
                op=OpClass.LDG, lines=(0x1000,), buffer_ids=(65,),
                depends=True,
            ),
        ]
    ],
)


@pytest.mark.parametrize("path", PATHS, indirect=True)
def test_gpushield_probes_in_set_order(path):
    """A record probes its buffer ids in the oracle's ``set()``
    iteration order, which is not sorted order."""
    ids = PROBE_ORDER_TRACE.warps[0][0].buffer_ids
    assert list(set(ids)) == [65, 129, 97, 1, 33]
    got, want, got_state, want_state = _run_both(
        PROBE_ORDER_TRACE, "gpushield"
    )
    assert want.cycles == 988
    assert got.cycles == want.cycles
    assert got.stats == want.stats
    assert got_state == want_state


@pytest.mark.parametrize("path", PATHS, indirect=True)
@pytest.mark.parametrize("mechanism", MODELS)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(trace=kernel_traces())
@example(trace=PROBE_ORDER_TRACE)
def test_random_traces_match_reference(trace, mechanism, path):
    """Random traces — any op mix, empty warps, multi-line and
    multi-buffer records — match the oracle over two warm runs."""
    got, want, got_state, want_state = _run_both(trace, mechanism, runs=2)
    assert got.cycles == want.cycles
    assert got.stats == want.stats
    assert got_state == want_state


# ----------------------------------------------------------------------
# Timing models without an issue-plan lowering fail loudly.


class OpaqueTiming(TimingModel):
    """Overrides the baseline latency hook."""

    name = "opaque"

    def extra_latency(self, instr, now):  # noqa: D102
        return 1


class ShiftedLmi(LmiTiming):
    """Overrides a decode-relevant hook of the LMI family."""

    def extra_latency(self, instr, now):  # noqa: D102
        return super().extra_latency(instr, now) + 1


class _JitterTiming(TimingModel):
    """Perturbs latency and declares no stable expansion key."""

    def extra_latency(self, instr, now):  # noqa: D102
        return 2 if instr.op.is_memory else 0

    def expansion_key(self):  # noqa: D102
        return None


@pytest.mark.parametrize(
    "model_cls",
    [OpaqueTiming, ShiftedLmi, _JitterTiming],
    ids=lambda cls: cls.__name__,
)
def test_opaque_model_fails_loudly(model_cls):
    assert model_cls().columnar_plan_key() is None
    trace = synthesize_trace("needle", warps=4, instructions_per_warp=120)
    with pytest.raises(SimulationError, match="reference_simulate"):
        SmSimulator(DEFAULT_GPU_CONFIG, model_cls())
    # The oracle still simulates the model, perturbation included.
    got = reference_simulate(trace, model_cls())
    assert got.stats.instructions == sum(len(w) for w in trace.warps)
    assert got.cycles > reference_simulate(trace).cycles


# ----------------------------------------------------------------------
# Plans live and die with their run: nothing derived stays on a trace.


def test_cached_traces_keep_nothing_derived():
    """A fig12 grid leaves its cached traces exactly as synthesized:
    no plan, expansion or summary hangs off them afterwards."""
    run_fig12(warps=8, instructions_per_warp=400)
    traces = list(TRACE_CACHE._entries.values())
    assert traces
    for trace in traces:
        assert set(vars(trace)) <= {"name", "_warps", "_columnar"}, (
            trace.name,
            sorted(vars(trace)),
        )


@pytest.mark.parametrize("mechanism", MODELS)
def test_dropped_plan_is_collected(mechanism):
    trace = cached_trace("needle", warps=4, instructions_per_warp=200)
    simulator = SmSimulator(DEFAULT_GPU_CONFIG, model_factory(mechanism))
    plan = simulator._fast_plan(trace)
    ref = weakref.ref(plan)
    del plan
    gc.collect()
    assert ref() is None


# ----------------------------------------------------------------------
# Engine worker pool: fork-inherited traces keep --jobs byte-identical.


def _job_rows(results):
    return [
        (r.job.key, r.cycles, r.stats.__dict__) for r in results
    ]


def test_jobs_pool_results_byte_identical(monkeypatch):
    """run_sim_jobs must merge worker results (computed on traces the
    workers inherit through fork) into exactly the in-process outcome,
    in submission order."""
    jobs = [
        SimJob(
            benchmark=benchmark,
            mechanism=mechanism,
            warps=3,
            instructions_per_warp=160,
        )
        for benchmark in ("gaussian", "needle", "LSTM")
        for mechanism in MODELS
    ]
    serial = run_sim_jobs(jobs, n_jobs=1)
    monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
    fanned = run_sim_jobs(jobs, n_jobs=4)
    assert _job_rows(fanned) == _job_rows(serial)


# ----------------------------------------------------------------------
# Fast-path telemetry: both executors publish oracle-identical
# counters and identical issue events, and the metrics/trace
# artifacts stay byte-identical for any --jobs value.


@pytest.mark.parametrize("mechanism", MODELS)
def test_fast_path_counter_parity_with_scalar(mechanism):
    """The fast path's registry snapshot must equal, byte for byte,
    what publishing the scalar oracle's SimStats and L1/L2 CacheStats
    under the same labels produces: `_fast_path_blob` folds
    identically evolving counters into the registry."""
    trace = synthesize_trace("LSTM", warps=5, instructions_per_warp=240)
    with capture() as t:
        SmSimulator(model=engine_module.model_factory(mechanism)).run(trace)
        fast = json.dumps(t.registry.snapshot(), sort_keys=True)

    ref = ReferenceSmSimulator(
        DEFAULT_GPU_CONFIG, engine_module.model_factory(mechanism)
    )
    result = ref.run(trace)
    registry = MetricsRegistry()
    result.stats.publish(registry, trace=trace.name)
    ref.l1.stats.publish(registry, unit="l1", trace=trace.name)
    ref.l2.stats.publish(registry, unit="l2", trace=trace.name)
    assert fast == json.dumps(registry.snapshot(), sort_keys=True)


def test_fast_path_events_native_python_identical(monkeypatch, fresh_memo):
    """The C executor and the pure-Python issue loop record the same
    issue runs, so the recorded event rings are byte-identical."""
    if not native_available():
        pytest.skip("no C toolchain for the native executor")
    trace = synthesize_trace("bfs", warps=6, instructions_per_warp=220)

    def ring(python_loop):
        with monkeypatch.context() as patch:
            if python_loop:
                patch.setattr(codegen, "_find_cc", lambda: None)
            codegen._reset_memo()
            with capture() as t:
                simulate_result = SmSimulator(
                    model=engine_module.model_factory("lmi")
                ).run(trace)
                assert simulate_result.cycles > 0
                return [
                    (e.seq, e.ts, dict(e.payload))
                    for e in t.recorder.events()
                ]

    native_ring = ring(python_loop=False)
    assert native_ring, "empty ring"
    assert native_ring == ring(python_loop=True)


def test_fast_path_event_arrays_native_python_equal():
    """Both executors hand a run's issue runs over as one equal
    ``(n, 3)`` int64 array of (cycle, warp, run length) rows, one row
    per issued run."""
    if not native_available():
        pytest.skip("no C toolchain for the native executor")
    trace = synthesize_trace("bfs", warps=6, instructions_per_warp=220)
    arrays = []
    for run in (run_native, run_columnar):
        simulator = SmSimulator(model=engine_module.model_factory("lmi"))
        plan = simulator._fast_plan(trace)
        events = []
        assert run(simulator, plan, SimStats(), events)
        (rows,) = events
        assert rows.dtype == np.int64 and rows.shape[1:] == (3,)
        assert len(rows) == plan.run_start[-1]
        arrays.append(rows)
    native_rows, python_rows = arrays
    assert np.array_equal(native_rows, python_rows)


def test_jobs_metrics_and_trace_export_byte_identical(monkeypatch):
    """--metrics/--trace artifacts from a telemetry-enabled fast-path
    run must be byte-identical for any --jobs value: workers ship
    registry snapshots + event rings, the parent replays them in
    submission order under identical per-job spans."""
    jobs = [
        SimJob(
            benchmark=benchmark,
            mechanism=mechanism,
            warps=3,
            instructions_per_warp=160,
        )
        for benchmark in ("gaussian", "needle")
        for mechanism in ("baseline", "lmi")
    ]

    def artifacts(n_jobs):
        with capture() as t:
            run_sim_jobs(jobs, n_jobs=n_jobs)
            return (
                dumps(metrics_json(t.registry, recorder=t.recorder)),
                dumps(chrome_trace(t.tracer, t.recorder)),
            )

    serial = artifacts(1)
    monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
    fanned = artifacts(4)
    assert fanned[0] == serial[0]
    assert fanned[1] == serial[1]
