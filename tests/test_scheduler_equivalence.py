"""Scheduler-equivalence suite.

The event-heap GTO scheduler in :mod:`repro.sim.core` must be
cycle-for-cycle and stat-for-stat identical to the historical
linear-scan loop retained verbatim in :mod:`repro.sim.reference`.
This suite locks that contract over a seeded (profile × warps × model)
grid covering every timing mechanism, plus edge shapes (single warp,
empty streams) the grid would not hit.

It also locks the determinism contract of the experiment engine: the
``--jobs N`` worker pool must produce byte-identical metrics and
trace exports for any N (verified here with the worker-pool path
forced on, since CI machines may report a single CPU), and the
daemon-facing :func:`~repro.experiments.engine.run_jobs_batched`
never publishes into the global telemetry hub.
"""

from __future__ import annotations

import json

import pytest

from repro.common.config import DEFAULT_GPU_CONFIG
from repro.experiments import engine as engine_module
from repro.experiments import run_fig12
from repro.sim import (
    KernelTrace,
    OpClass,
    SmSimulator,
    TraceInstruction,
    reference_simulate,
    simulate,
)
from repro.telemetry.export import chrome_trace, metrics_json
from repro.telemetry.runtime import TELEMETRY, capture
from repro.workloads import synthesize_trace

# ----------------------------------------------------------------------
# New scheduler == reference scheduler, across the mechanism grid.

#: Seeded (benchmark, warps, instructions) corpus: memory-heavy,
#: compute-bound, uncoalesced and mixed profiles at two occupancies.
CORPUS = [
    ("gaussian", 3, 300),
    ("gaussian", 8, 240),
    ("needle", 3, 300),
    ("needle", 8, 240),
    ("LSTM", 5, 260),
    ("bert", 4, 300),
    ("hotspot", 6, 250),
    ("lud_cuda", 3, 300),
    ("bfs", 7, 220),
    ("srad_v1", 2, 320),
]

MODELS = ("baseline", "lmi", "gpushield", "baggy")


def _combo_id(combo) -> str:
    benchmark, warps, instructions = combo
    return f"{benchmark}-w{warps}-i{instructions}"


@pytest.mark.parametrize("mechanism", MODELS)
@pytest.mark.parametrize("combo", CORPUS, ids=_combo_id)
def test_scheduler_matches_reference(combo, mechanism):
    benchmark, warps, instructions = combo
    trace = synthesize_trace(
        benchmark, warps=warps, instructions_per_warp=instructions
    )
    got = simulate(trace, engine_module.model_factory(mechanism))
    want = reference_simulate(
        trace, engine_module.model_factory(mechanism)
    )
    assert got.cycles == want.cycles
    assert got.stats == want.stats
    assert got.name == want.name


def test_single_warp_matches_reference():
    trace = synthesize_trace("nn", warps=1, instructions_per_warp=150)
    for mechanism in MODELS:
        got = simulate(trace, engine_module.model_factory(mechanism))
        want = reference_simulate(
            trace, engine_module.model_factory(mechanism)
        )
        assert (got.cycles, got.stats) == (want.cycles, want.stats)


def test_empty_stream_warp_matches_reference():
    """A warp with zero instructions must not wedge either scheduler."""
    busy = [
        TraceInstruction(op=OpClass.INT),
        TraceInstruction(op=OpClass.LDG, lines=(0x100,), depends=True),
        TraceInstruction(op=OpClass.FP, depends=True),
    ]
    trace = KernelTrace(name="edge", warps=[list(busy), [], list(busy)])
    got = simulate(trace)
    want = reference_simulate(trace)
    assert got.cycles == want.cycles
    assert got.stats == want.stats


def test_simulator_instance_is_reusable():
    """Per-run stats are fresh; cache warmth persists (by design)."""
    trace = synthesize_trace("hotspot", warps=4, instructions_per_warp=200)
    sim = SmSimulator(DEFAULT_GPU_CONFIG, engine_module.model_factory("lmi"))
    first = sim.run(trace)
    second = sim.run(trace)
    # Same instruction count both times: counters do not accumulate
    # across runs (the historical self._stats leak).
    assert second.stats.instructions == first.stats.instructions
    assert first.stats is not second.stats
    # Warm caches can only help: the second run's L1 hit count is at
    # least the first run's.
    assert second.stats.l1_hits >= first.stats.l1_hits


# ----------------------------------------------------------------------
# Engine determinism: --jobs N is byte-identical to the serial path.

_BENCHMARKS = ("gaussian", "needle", "LSTM")
_SIZES = dict(warps=3, instructions_per_warp=200)


def _fig12_with_exports(jobs: int):
    """(table text, metrics JSON bytes, trace JSON bytes) for one run."""
    with capture(sample_every=1) as hub:
        result = run_fig12(_BENCHMARKS, jobs=jobs, **_SIZES)
        metrics = json.dumps(
            metrics_json(hub.registry, recorder=hub.recorder),
            sort_keys=True,
        )
        trace = json.dumps(
            chrome_trace(hub.tracer, hub.recorder), sort_keys=True
        )
    return result.format_table(), metrics, trace


def test_jobs_fanout_byte_identical(monkeypatch):
    """--jobs 4 output must match --jobs 1 byte-for-byte.

    ``_effective_workers`` collapses to the serial path on single-CPU
    machines, so the CPU count is pinned to force the real worker-pool
    path (fork + pickle + telemetry replay) under ``jobs=4``.
    """
    serial = _fig12_with_exports(jobs=1)
    monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
    assert engine_module._effective_workers(4, 12) == 4
    parallel = _fig12_with_exports(jobs=4)
    assert parallel[0] == serial[0]  # the figure itself
    assert parallel[1] == serial[1]  # --metrics export
    assert parallel[2] == serial[2]  # --trace export


def test_effective_workers_caps():
    monkeypatch_cpus = engine_module.os.cpu_count() or 1
    assert engine_module._effective_workers(1, 100) == 1
    assert engine_module._effective_workers(100, 2) <= 2
    assert engine_module._effective_workers(100, 100) <= monkeypatch_cpus


def test_jobs_disabled_telemetry_stays_silent(monkeypatch):
    """Workers must not double-count when telemetry is off."""
    monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
    assert not TELEMETRY.enabled
    before = len(TELEMETRY.registry)
    run_fig12(("gaussian",), jobs=4, warps=2, instructions_per_warp=120)
    assert len(TELEMETRY.registry) == before


def test_run_jobs_batched_never_touches_the_hub():
    """The serve daemon's entry runs on executor threads that do not
    own the global hub: even with the hub enabled, nothing lands in
    its registry or recorder."""
    job = engine_module.SimJob(
        "gaussian", "lmi", warps=2, instructions_per_warp=64
    )
    with capture() as hub:
        [result] = engine_module.run_jobs_batched([job])
        assert result.stats.instructions == 128
        assert len(hub.registry) == 0
        assert hub.recorder.events() == []
