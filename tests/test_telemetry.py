"""Tests for the telemetry subsystem (registry, events, spans, export).

Covers the contract the observability layer promises:

* deterministic export — the same seed/workload produces byte-identical
  metrics and trace JSON;
* ring-buffer overflow accounting and sampling controls;
* the disabled-mode fast path allocates nothing;
* the Chrome-trace document is structurally valid for Perfetto;
* the integration points: LaunchResult stats, SimStats publication,
  the experiments CLI artifact flags.
"""

import json
import tracemalloc
from pathlib import Path

import pytest

from repro import IRType, KernelBuilder, run_lmi_pass
from repro.common.files import publish
from repro.exec.executor import GpuExecutor
from repro.mechanisms.base import MechanismStats, MechanismStatsSnapshot
from repro.mechanisms.lmi import LmiMechanism
from repro.sim.core import SimStats, simulate
from repro.sim.gpu import GpuSimulator
from repro.telemetry import (
    EventKind,
    FlightRecorder,
    MetricsRegistry,
    lint_prometheus,
    TELEMETRY,
    Telemetry,
    capture,
    chrome_trace,
    dumps,
    metrics_json,
    write_json,
)
from repro.telemetry.runtime import (
    SAMPLE_ENV,
    resolve_sample_every,
    sample_phase,
)
from repro.telemetry.spans import LogicalClock, Tracer
from repro.workloads import synthesize_trace


# ----------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.counter("a.b").inc(4)
        assert reg.value("a.b") == 5

    def test_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", space="global").inc(2)
        reg.counter("hits", space="heap").inc(3)
        assert reg.value("hits", space="global") == 2
        assert reg.value("hits", space="heap") == 3
        assert reg.total("hits") == 5

    def test_label_order_canonical(self):
        reg = MetricsRegistry()
        reg.counter("x", a=1, b=2).inc()
        reg.counter("x", b=2, a=1).inc()
        assert reg.value("x", a=1, b=2) == 2

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(7)
        hist = reg.histogram("sizes")
        for v in (1, 2, 300, 10**9):
            hist.observe(v)
        snap = reg.snapshot()
        assert snap["gauges"]["depth"] == 7
        h = snap["histograms"]["sizes"]
        assert h["count"] == 4
        assert h["buckets"]["+Inf"] == 4

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_merge_adds_counters_sums_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.gauge("g").set(9)
        a.histogram("h").observe(1)
        b.histogram("h").observe(2)
        a.merge(b)
        assert a.value("c") == 3
        assert a.value("g") == 9
        assert a.histogram("h").count == 2

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("ocu.extent_cleared", space="heap").inc(3)
        reg.histogram("alloc.size_bytes").observe(100)
        text = reg.to_prometheus()
        assert '# TYPE repro_ocu_extent_cleared counter' in text
        assert 'repro_ocu_extent_cleared{space="heap"} 3' in text
        assert 'repro_alloc_size_bytes_bucket{le="128"} 1' in text
        assert 'repro_alloc_size_bytes_count 1' in text


# ----------------------------------------------------------------------
# Flight recorder


class TestFlightRecorder:
    def test_ring_overflow_accounting(self):
        rec = FlightRecorder(4)
        for i in range(10):
            rec.emit(EventKind.ACCESS_CHECK, i, index=i)
        assert len(rec) == 4
        assert rec.emitted == 10
        assert rec.dropped == 6
        # The survivors are the most recent four.
        assert [e.payload["index"] for e in rec.events()] == [6, 7, 8, 9]

    def test_sampling_thins_routine_events(self):
        rec = FlightRecorder(100, sample_every=4)
        for i in range(16):
            rec.emit(EventKind.WARP_ISSUE, i)
        assert len(rec) == 4
        assert rec.sampled_out == 12

    def test_important_kinds_bypass_sampling(self):
        rec = FlightRecorder(100, sample_every=1000)
        for i in range(5):
            rec.emit(EventKind.EC_FAULT, i)
            rec.emit(EventKind.DETECTION, i)
        assert len(rec.events(EventKind.EC_FAULT)) == 5
        assert len(rec.events(EventKind.DETECTION)) == 5

    def test_disabled_emit_returns_none(self):
        rec = FlightRecorder(8, enabled=False)
        assert rec.emit(EventKind.ALLOC, 1) is None
        assert len(rec) == 0 and rec.emitted == 0

    def test_payload_may_shadow_parameter_names(self):
        rec = FlightRecorder(8)
        event = rec.emit(EventKind.ALLOC, 1, kind="x", ts=99)
        assert event.kind is EventKind.ALLOC
        assert event.payload["kind"] == "x" and event.payload["ts"] == 99


# ----------------------------------------------------------------------
# Disabled fast path


class TestDisabledFastPath:
    def test_disabled_emit_allocates_nothing(self):
        hub = Telemetry(enabled=False)
        hub.emit(EventKind.ACCESS_CHECK)  # warm anything lazy
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            hub.emit(EventKind.ACCESS_CHECK)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        growth = sum(
            s.size_diff for s in after.compare_to(before, "filename")
            if s.size_diff > 0
        )
        # Transient kwargs frames aside, nothing may be retained.
        assert growth < 4096
        assert len(hub.recorder) == 0

    def test_global_hub_disabled_by_default(self):
        assert TELEMETRY.enabled is False

    def test_disabled_span_is_noop(self):
        hub = Telemetry(enabled=False)
        with hub.span("x"):
            pass
        assert hub.tracer.spans == []


# ----------------------------------------------------------------------
# Spans / tracer


class TestTracer:
    def test_logical_clock_is_deterministic(self):
        clock = LogicalClock()
        assert [clock.now() for _ in range(3)] == [1, 2, 3]
        assert LogicalClock(step=10).now() == 10

    def test_span_nesting_and_exception_safety(self):
        tracer = Tracer(LogicalClock())
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    assert tracer.depth == 2
                    raise ValueError("boom")
        assert tracer.depth == 0
        names = [s.name for s in tracer.spans]
        assert names == ["inner", "outer"]  # closed innermost-first
        for span in tracer.spans:
            assert span.end is not None and span.duration >= 0


# ----------------------------------------------------------------------
# Exporters


def _run_instrumented_workload():
    """A tiny deterministic workload touching executor + simulator."""
    b = KernelBuilder("telemetry_probe",
                      params=[("data", IRType.PTR), ("n", IRType.I64)])
    tid = b.thread_idx()
    slot = b.ptradd(b.param("data"), b.mul(tid, 4))
    b.store(slot, b.add(b.load(slot, width=4), 1), width=4)
    b.ret()
    module = b.module()
    run_lmi_pass(module)
    executor = GpuExecutor(module, LmiMechanism(), block_threads=4)
    data = executor.host_alloc(64)
    executor.launch({"data": data, "n": 4})
    trace = synthesize_trace("backprop", warps=2, instructions_per_warp=64,
                             seed_salt=7)
    simulate(trace)


class TestExport:
    def test_deterministic_byte_identical_export(self):
        artifacts = []
        for _ in range(2):
            with capture() as t:
                _run_instrumented_workload()
                metrics = dumps(metrics_json(t.registry, recorder=t.recorder))
                trace = dumps(chrome_trace(t.tracer, t.recorder))
            artifacts.append((metrics, trace))
        assert artifacts[0][0] == artifacts[1][0]
        assert artifacts[0][1] == artifacts[1][1]

    def test_metrics_document_shape(self):
        with capture() as t:
            _run_instrumented_workload()
            doc = metrics_json(t.registry, meta={"run": "unit"},
                               recorder=t.recorder)
        assert doc["schema"] == "repro.telemetry.metrics/v1"
        assert doc["meta"] == {"run": "unit"}
        counters = doc["metrics"]["counters"]
        assert counters.get("exec.launches{mechanism=lmi}") == 1
        assert any(k.startswith("sim.instructions") for k in counters)
        assert "# TYPE repro_exec_launches counter" in doc["prometheus"]
        assert doc["events"]["emitted"] > 0

    def test_chrome_trace_schema_valid_for_perfetto(self):
        with capture() as t:
            _run_instrumented_workload()
            doc = chrome_trace(t.tracer, t.recorder)
        # JSON round-trip must survive (Perfetto parses strict JSON).
        doc = json.loads(json.dumps(doc))
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "i", "M"}
        for event in events:
            assert isinstance(event["name"], str)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0 and event["ts"] >= 0
            if event["ph"] == "i":
                assert event["s"] == "t"
        # Timestamps are sorted, which keeps the exporter deterministic.
        ts = [e["ts"] for e in events if "ts" in e]
        assert ts == sorted(ts)
        assert any(e["name"].startswith("launch:") for e in events)

    def test_capture_restores_previous_state(self):
        before = (TELEMETRY.enabled, TELEMETRY.registry)
        with capture():
            TELEMETRY.counter("scratch").inc()
            assert TELEMETRY.enabled
        assert (TELEMETRY.enabled, TELEMETRY.registry) == before
        assert TELEMETRY.registry.value("scratch") == 0


# ----------------------------------------------------------------------
# Stats views & integration


class TestStatsViews:
    def test_mechanism_stats_start_at_zero_and_accumulate(self):
        stats = MechanismStats()
        assert stats.checks == 0 and stats.detections == 0
        stats.checks += 1
        stats.checks += 1
        stats.tagged_pointers = 5
        assert stats.checks == 2 and stats.tagged_pointers == 5
        assert stats.as_dict()["checks"] == 2

    def test_snapshot_is_immutable_copy(self):
        stats = MechanismStats()
        stats.checks += 3
        snap = stats.snapshot()
        stats.checks += 1
        assert snap.checks == 3
        assert isinstance(snap, MechanismStatsSnapshot)
        assert "checks=3" in snap.summary()

    def test_publish_stats_is_delta_based(self):
        mech = LmiMechanism()
        mech.stats.checks += 4
        registry = MetricsRegistry()
        mech.publish_stats(registry)
        mech.publish_stats(registry)  # no growth -> no double-count
        assert registry.value("mechanism.checks", mechanism="lmi") == 4
        mech.stats.checks += 1
        mech.publish_stats(registry)
        assert registry.value("mechanism.checks", mechanism="lmi") == 5

    def test_launch_result_carries_mechanism_stats(self):
        b = KernelBuilder("stats_probe", params=[("p", IRType.PTR)])
        b.store(b.param("p"), b.const(1, IRType.I64), width=4)
        b.ret()
        module = b.module()
        run_lmi_pass(module)
        executor = GpuExecutor(module, LmiMechanism(), block_threads=1)
        pointer = executor.host_alloc(16)
        result = executor.launch({"p": pointer})
        assert result.mechanism == "lmi"
        assert result.mechanism_stats.checks > 0
        line = result.stats_line()
        assert line.startswith("[lmi] ok:") and "checks=" in line


class TestSimTelemetry:
    def test_sim_stats_new_counters_populate(self):
        trace = synthesize_trace("bfs", warps=2,
                                 instructions_per_warp=128, seed_salt=3)
        result = simulate(trace)
        stats = result.stats
        assert stats.extra_transactions > 0
        assert (stats.lsu_serialization_cycles
                == 4 * stats.extra_transactions)

    def test_sim_stats_publish(self):
        stats = SimStats(instructions=10, issue_stall_cycles=2,
                         lsu_serialization_cycles=8, extra_transactions=2)
        reg = MetricsRegistry()
        stats.publish(reg, trace="t")
        assert reg.value("sim.instructions", trace="t") == 10
        assert reg.value("sim.lsu_serialization_cycles", trace="t") == 8
        assert reg.value("sim.extra_transactions", trace="t") == 2

    def test_gpu_result_summary_and_aggregates(self):
        trace = synthesize_trace("hotspot", warps=8,
                                 instructions_per_warp=64, seed_salt=11)
        with capture() as t:
            result = GpuSimulator(num_sms=2).run(trace)
            sim_spans = [s for s in t.tracer.spans
                         if s.name.startswith("sim:")]
            assert len(sim_spans) == 2
            assert {s.tid for s in sim_spans} == {0, 1}
            assert t.registry.total("sim.instructions") \
                == result.total_instructions
        assert result.extra_transactions >= 0
        assert result.issue_stall_cycles >= 0
        summary = result.format_summary()
        assert "cycles=" in summary and "lsu_serialization=" in summary

    def test_warp_events_recorded_when_enabled(self):
        trace = synthesize_trace("gaussian", warps=2,
                                 instructions_per_warp=32, seed_salt=5)
        with capture() as t:
            simulate(trace)
            kinds = {e.kind for e in t.recorder.events()}
        assert EventKind.WARP_ISSUE in kinds


# ----------------------------------------------------------------------
# CLI artifacts


class TestCliArtifacts:
    def test_metrics_and_trace_flags_write_artifacts(self, tmp_path, capsys):
        from repro.experiments.__main__ import main
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        assert main(["--fast", "fig4",
                     f"--metrics={metrics}", "--trace", str(trace)]) == 0
        capsys.readouterr()
        mdoc = json.loads(metrics.read_text())
        tdoc = json.loads(trace.read_text())
        assert mdoc["schema"] == "repro.telemetry.metrics/v1"
        assert mdoc["meta"]["experiments"] == ["fig4"]
        assert any(e["ph"] == "X" and e["name"] == "experiment:fig4"
                   for e in tdoc["traceEvents"])
        assert TELEMETRY.enabled is False  # switched back off afterwards

    def test_missing_flag_value_is_an_error(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["fig4", "--metrics"]) == 2
        assert "requires a PATH" in capsys.readouterr().out

    def test_verbose_telemetry_prints_summary(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["--fast", "fig4", "--verbose-telemetry"]) == 0
        assert "telemetry:" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Prometheus exposition lint


# The exposition grammar itself lives in the registry module
# (promoted so the live /metrics endpoint and CI share one gate).


class TestPrometheusLint:
    def test_one_help_type_pair_per_family(self):
        reg = MetricsRegistry()
        reg.counter("sim.l1_misses", trace="a").inc(1)
        reg.counter("sim.l1_misses", trace="b").inc(2)
        reg.histogram("alloc.size_bytes", unit="b").observe(7)
        reg.histogram("alloc.size_bytes", unit="kb").observe(9)
        text = reg.to_prometheus()
        assert text.count("# HELP repro_sim_l1_misses ") == 1
        assert text.count("# TYPE repro_sim_l1_misses counter") == 1
        assert text.count("# TYPE repro_alloc_size_bytes histogram") == 1

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter(
            "odd", path="a\\b", quote='say "hi"', multi="x\ny"
        ).inc()
        text = reg.to_prometheus()
        assert r'path="a\\b"' in text
        assert r'quote="say \"hi\""' in text
        assert r'multi="x\ny"' in text

    def test_help_text_escapes_backslash(self):
        reg = MetricsRegistry()
        reg.counter("a\\b.c").inc()
        text = reg.to_prometheus()
        assert "# HELP repro_a_b_c a\\\\b.c" in text

    def test_histogram_inf_bucket_matches_count(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", unit="l1")
        for v in (1, 3, 10**9):
            hist.observe(v)
        text = reg.to_prometheus()
        assert 'repro_lat_bucket{unit="l1",le="+Inf"} 3' in text
        assert 'repro_lat_count{unit="l1"} 3' in text

    def test_every_line_matches_exposition_grammar(self):
        reg = MetricsRegistry()
        reg.counter("sim.instructions", trace='we"ird\n\\x').inc(12)
        reg.gauge("depth").set(-3.5)
        reg.histogram("sizes", space="heap").observe(42)
        assert lint_prometheus(reg.to_prometheus()) == []

    def test_lint_reports_violating_lines(self):
        bad = "this is not exposition format\n# HELP ok ok\nok 1\n"
        assert lint_prometheus(bad) == ["this is not exposition format"]


# ----------------------------------------------------------------------
# Atomic artifact writes


class TestAtomicWrites:
    def test_write_json_creates_parent_dirs_and_leaves_no_tmp(
        self, tmp_path
    ):
        target = tmp_path / "deep" / "nested" / "metrics.json"
        write_json(str(target), {"a": 1})
        assert json.loads(target.read_text()) == {"a": 1}
        leftovers = [
            p for p in target.parent.iterdir() if p.name != target.name
        ]
        assert leftovers == []

    def test_publish_replaces_existing(self, tmp_path):
        target = tmp_path / "report.html"
        for text in ("first", "second"):
            publish(str(target), lambda tmp: Path(tmp).write_text(text))
        assert target.read_text() == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["report.html"]


# ----------------------------------------------------------------------
# Fast-path event sampling


class TestSampling:
    def test_resolve_sample_every_spellings(self, monkeypatch):
        assert resolve_sample_every("1/16") == 16
        assert resolve_sample_every("8") == 8
        assert resolve_sample_every("") == 1
        monkeypatch.setenv(SAMPLE_ENV, "1/32")
        assert resolve_sample_every() == 32
        monkeypatch.delenv(SAMPLE_ENV)
        assert resolve_sample_every(default=4) == 4

    def test_resolve_sample_every_rejects_typos(self):
        for bad in ("banana", "2/3", "1/0", "0", "-4", "1/x"):
            with pytest.raises(ValueError):
                resolve_sample_every(bad)

    def test_sample_phase_stable_across_processes(self):
        # sha256-derived, so these constants hold for every
        # PYTHONHASHSEED and on every machine (the --jobs contract).
        assert sample_phase("gaussian", 1024) == 146
        assert sample_phase("needle", 1024) == 162
        assert sample_phase("gaussian", 1) == 0
        phase = sample_phase("gaussian", 7)
        assert 0 <= phase < 7
        assert phase == sample_phase("gaussian", 7)

    def test_sampled_fast_path_events_identical_across_runs(
        self, monkeypatch
    ):
        monkeypatch.setenv(SAMPLE_ENV, "1/5")
        trace = synthesize_trace(
            "gaussian", warps=4, instructions_per_warp=240
        )

        def issue_events():
            with capture() as t:
                simulate(trace)
                return [
                    (e.seq, e.ts, dict(e.payload))
                    for e in t.recorder.events(EventKind.WARP_ISSUE)
                ]

        first = issue_events()
        assert first, "sampling 1/5 must keep some warp-issue events"
        assert issue_events() == first
        # A different comb keeps a different (smaller) set.
        monkeypatch.setenv(SAMPLE_ENV, "1/50")
        sparser = issue_events()
        assert len(sparser) < len(first)

    def test_disabled_sim_run_records_nothing(self):
        trace = synthesize_trace(
            "gaussian", warps=2, instructions_per_warp=64
        )
        assert TELEMETRY.enabled is False
        before = (
            len(TELEMETRY.registry),
            len(TELEMETRY.recorder),
            TELEMETRY.recorder.emitted,
            len(TELEMETRY.tracer.spans),
        )
        simulate(trace)
        after = (
            len(TELEMETRY.registry),
            len(TELEMETRY.recorder),
            TELEMETRY.recorder.emitted,
            len(TELEMETRY.tracer.spans),
        )
        assert after == before
