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
* warm-run parity (cache/DRAM state carried across runs);
* edge shapes the grid cannot hit: empty warp streams, >64-warp traces
  (past the native executor's bitmask width), ``hit_latency=1``
  geometry;
* the loud refusal of timing models without an issue-plan lowering
  (the oracle still simulates them);
* the :class:`~repro.sim.trace.TraceMemo` bound/namespacing contract;
* registry parity with the oracle and byte-identity of the experiment
  engine's telemetry exports and ``.npz``-shipping fan-out.
"""

from __future__ import annotations

import json

import pytest

from repro.common.config import DEFAULT_GPU_CONFIG, CacheConfig, GpuConfig
from repro.common.errors import SimulationError
from repro.experiments import engine as engine_module
from repro.experiments.engine import SimJob, run_sim_jobs
from repro.sim import (
    GpuSimulator,
    KernelTrace,
    OpClass,
    SmSimulator,
    TraceInstruction,
    codegen,
    native_available,
    reference_simulate,
)
from repro.sim.columnar import ColumnarTrace, expanded_columnar
from repro.sim.reference import ReferenceSmSimulator
from repro.sim.timing import BaggyBoundsTiming, LmiTiming, TimingModel
from repro.sim.trace import TRACE_MEMO_CAPACITY, TraceMemo, trace_memo
from repro.telemetry import capture, chrome_trace, dumps, metrics_json
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.runtime import SAMPLE_ENV
from repro.workloads import synthesize_trace

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
    kernel's multi-word wide variant and the Python loop must both
    stay cycle-exact."""
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
    with pytest.raises(SimulationError, match="reference_simulate"):
        GpuSimulator(DEFAULT_GPU_CONFIG, model_cls, num_sms=2).run(trace)
    # The oracle still simulates the model, perturbation included.
    got = reference_simulate(trace, model_cls())
    assert got.stats.instructions == sum(len(w) for w in trace.warps)
    assert got.cycles > reference_simulate(trace).cycles


# ----------------------------------------------------------------------
# TraceMemo: bounded, namespaced, legacy-attribute proof.


def test_trace_memo_is_bounded():
    memo = TraceMemo(capacity=4)
    for n in range(10):
        memo.put(("k", n), n)
    assert len(memo) == 4
    assert memo.get(("k", 9)) == 9
    assert memo.get(("k", 0)) is None
    with pytest.raises(ValueError):
        TraceMemo(capacity=0)


def test_trace_memo_namespaces_model_families():
    """Equal content keys from different model classes cannot alias."""

    class _OtherBaggy(BaggyBoundsTiming):
        pass

    trace = synthesize_trace("gaussian", warps=2, instructions_per_warp=120)
    a = expanded_columnar(trace, BaggyBoundsTiming())
    b = expanded_columnar(trace, _OtherBaggy())
    assert a is not b  # same ("baggy", n) key, distinct namespaces
    assert a is expanded_columnar(trace, BaggyBoundsTiming())  # memo hit
    assert len(trace_memo(trace)) <= TRACE_MEMO_CAPACITY


def test_trace_memo_sweep_stays_bounded():
    """A parameter sweep over rewriting models cannot grow the memo
    past its cap (the historical unbounded ``_expansion_memo``)."""
    trace = synthesize_trace("needle", warps=2, instructions_per_warp=80)
    for n in range(1, 2 * TRACE_MEMO_CAPACITY + 2):
        expanded_columnar(trace, BaggyBoundsTiming(instructions_per_check=n))
    assert len(trace_memo(trace)) <= TRACE_MEMO_CAPACITY


def test_trace_memo_ignores_legacy_attribute():
    """Stale ``_expansion_memo`` dicts (old pickled traces) are inert."""
    trace = synthesize_trace("nn", warps=2, instructions_per_warp=60)
    object.__setattr__(trace, "_expansion_memo", {("baggy", 4): "stale"})
    expanded = expanded_columnar(trace, BaggyBoundsTiming())
    assert isinstance(expanded, ColumnarTrace)
    assert expanded.warp_count == 2


# ----------------------------------------------------------------------
# Engine fan-out: the columnar .npz shipping keeps --jobs byte-identical.


def _job_rows(results):
    return [
        (r.job.key, r.cycles, r.stats.__dict__) for r in results
    ]


def test_jobs_npz_shipping_byte_identical(monkeypatch):
    """run_sim_jobs must merge worker results (shipped as columnar
    ``.npz``) into exactly the serial outcome, in submission order."""
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
# counters and identical sampled events, and the metrics/trace
# artifacts stay byte-identical for any --jobs value or batch width.


@pytest.mark.parametrize("mechanism", MODELS)
def test_fast_path_counter_parity_with_scalar(mechanism):
    """The fast path's registry snapshot must equal, byte for byte,
    what publishing the scalar oracle's SimStats and L1/L2 CacheStats
    under the same labels produces: `_publish_fast_path` folds
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
    """The C executor and the pure-Python issue loop apply the same
    seed-derived sampling comb, so the recorded event rings are
    byte-identical under any REPRO_TELEMETRY_SAMPLE."""
    if not native_available():
        pytest.skip("no C toolchain for the native executor")
    trace = synthesize_trace("bfs", warps=6, instructions_per_warp=220)

    def ring(sample, python_loop):
        with monkeypatch.context() as patch:
            patch.setenv(SAMPLE_ENV, sample)
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

    for sample in ("1", "1/7", "16"):
        native_ring = ring(sample, python_loop=False)
        python_ring = ring(sample, python_loop=True)
        assert native_ring, (sample, "empty ring")
        assert native_ring == python_ring, sample


def test_jobs_metrics_and_trace_export_byte_identical(monkeypatch):
    """--metrics/--trace artifacts from a telemetry-enabled fast-path
    run must be byte-identical for any --jobs value: workers ship
    registry snapshots + event rings, the parent replays them in
    submission order under identical per-job spans."""
    monkeypatch.setenv(SAMPLE_ENV, "1/3")
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


def test_batch_width_exports_byte_identical(monkeypatch):
    """--metrics/--trace artifacts must be byte-identical at any
    serial batch width: the batched executor runs whole groups through
    one native FFI crossing but still publishes per job, in submission
    order, inside each job's span."""
    monkeypatch.setenv(SAMPLE_ENV, "1/3")
    jobs = [
        SimJob(
            benchmark=benchmark,
            mechanism=mechanism,
            warps=3,
            instructions_per_warp=160,
        )
        for benchmark in ("gaussian", "needle")
        for mechanism in MODELS
    ]

    def artifacts(batch):
        monkeypatch.setenv(engine_module.BATCH_ENV, str(batch))
        with capture() as t:
            results = run_sim_jobs(jobs)
            return (
                _job_rows(results),
                dumps(metrics_json(t.registry, recorder=t.recorder)),
                dumps(chrome_trace(t.tracer, t.recorder)),
            )

    unbatched = artifacts(1)
    for batch in (3, 8, 64):
        batched = artifacts(batch)
        assert batched[0] == unbatched[0], batch
        assert batched[1] == unbatched[1], batch
        assert batched[2] == unbatched[2], batch
