"""Request-forensics suite: trace ids, waterfalls, structured logs.

Locks the contracts of :mod:`repro.telemetry.tracectx` and
:mod:`repro.telemetry.log`:

* trace ids are ``rtx-`` + 16 hex chars, deterministic in mint
  order, and unique within a sequence;
* :class:`TraceStore` lays stages sequentially, backs any gap between
  the stage sum and the measured total into a synthetic
  ``unattributed`` stage (the waterfall always sums to the honest
  end-to-end latency), and evicts oldest-first at capacity;
* :class:`StructuredLog` filters by minimum severity / trace / event,
  defaults the trace id from the contextvar binding, and counts drops;
* the engine tags every executed :class:`JobResult` with its trace id
  and records one ``origin="engine"`` waterfall per job — in process,
  across batched-group boundaries, and across the fabric's forked
  work-stealing pool, where a cell re-dispatched after a worker death
  keeps its *original* trace id (the id rides the task tuple, and
  redispatch reuses the tuple);
* tracing is pure diagnostics: ``--metrics``/``--trace`` exports are
  byte-identical with the engine minting ids or not, and no export
  ever contains an ``rtx-`` id (the leak grep).
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import format_trace
from repro.experiments import engine as engine_module
from repro.experiments.engine import SimJob, run_sim_jobs
from repro.experiments.fabric import (
    GROUP_SIZE,
    CellCache,
    fabric_counters,
    reset_fabric_counters,
)
from repro.telemetry.export import chrome_trace, metrics_json
from repro.telemetry.log import LOG, LOG_SCHEMA, StructuredLog
from repro.telemetry.runtime import capture
from repro.telemetry.tracectx import (
    STAGE_ORDER,
    TRACE_SCHEMA,
    TRACES,
    TraceStore,
    bind_trace,
    current_trace_id,
    new_trace_id,
    record_job_trace,
    reset_trace_ids,
)

TRACE_ID_RE = re.compile(r"^rtx-[0-9a-f]{16}$")
LEAK_RE = re.compile(r"rtx-[0-9a-f]{16}")


@pytest.fixture(autouse=True)
def _clean_tracing():
    """Fresh id sequence and empty stores for every test."""
    reset_trace_ids()
    TRACES.clear()
    LOG.clear()
    reset_fabric_counters()
    yield
    reset_trace_ids()
    TRACES.clear()
    LOG.clear()
    reset_fabric_counters()


# ----------------------------------------------------------------------
# Trace ids


class TestTraceIds:
    def test_format_and_uniqueness(self):
        ids = [new_trace_id() for _ in range(64)]
        assert all(TRACE_ID_RE.match(t) for t in ids)
        assert len(set(ids)) == len(ids)

    def test_deterministic_replay(self):
        first = [new_trace_id() for _ in range(8)]
        reset_trace_ids()
        assert [new_trace_id() for _ in range(8)] == first

    def test_bind_trace_nests_and_restores(self):
        assert current_trace_id() is None
        with bind_trace("rtx-" + "0" * 16):
            assert current_trace_id() == "rtx-" + "0" * 16
            with bind_trace("rtx-" + "1" * 16):
                assert current_trace_id() == "rtx-" + "1" * 16
            assert current_trace_id() == "rtx-" + "0" * 16
        assert current_trace_id() is None


# ----------------------------------------------------------------------
# TraceStore waterfalls


class TestTraceStore:
    def test_sequential_layout_and_exact_sum(self):
        store = TraceStore()
        store.begin("rtx-a", source="executed")
        store.stage("rtx-a", "admission", 0.001)
        store.stage("rtx-a", "sim", 0.010)
        store.finish("rtx-a", 0.0125)
        doc = store.get("rtx-a")
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["complete"] is True
        names = [s["stage"] for s in doc["stages"]]
        assert names == ["admission", "sim", "unattributed"]
        # Sequential offsets: each stage starts where the last ended.
        offsets = [s["offset_ms"] for s in doc["stages"]]
        assert offsets == [0.0, 1.0, 11.0]
        # The synthetic gap stage makes the sum exactly the total.
        total = sum(s["duration_ms"] for s in doc["stages"])
        assert total == pytest.approx(doc["total_ms"], abs=1e-6)
        assert doc["total_ms"] == pytest.approx(12.5)

    def test_finish_without_total_sums_stages(self):
        store = TraceStore()
        store.begin("rtx-b")
        store.stage("rtx-b", "sim", 0.004)
        store.finish("rtx-b")
        doc = store.get("rtx-b")
        assert doc["total_ms"] == pytest.approx(4.0)
        assert [s["stage"] for s in doc["stages"]] == ["sim"]

    def test_attrs_merge_and_none_dropped(self):
        store = TraceStore()
        store.begin("rtx-c", source="executed", tenant=None)
        store.annotate("rtx-c", digest="abc")
        doc = store.get("rtx-c")
        assert doc["attrs"] == {"source": "executed", "digest": "abc"}

    def test_eviction_oldest_first(self):
        store = TraceStore(capacity=3)
        for index in range(5):
            store.begin(f"rtx-{index}")
        assert len(store) == 3
        assert store.get("rtx-0") is None
        assert store.get("rtx-4") is not None
        recent = store.recent()
        assert [d["trace_id"] for d in recent] == [
            "rtx-4", "rtx-3", "rtx-2"
        ]

    def test_get_returns_a_copy(self):
        store = TraceStore()
        store.begin("rtx-d")
        store.stage("rtx-d", "sim", 0.001)
        doc = store.get("rtx-d")
        doc["stages"].append({"stage": "bogus"})
        doc["attrs"]["bogus"] = True
        fresh = store.get("rtx-d")
        assert len(fresh["stages"]) == 1
        assert fresh["attrs"] == {}

    def test_record_job_trace_orders_by_stage_rank(self):
        store = TraceStore()
        record_job_trace(
            "rtx-e",
            phases={"sim": 0.003, "trace_expand": 0.001, "compile": 0.002},
            attrs={"origin": "engine"},
            store=store,
        )
        doc = store.get("rtx-e")
        names = [s["stage"] for s in doc["stages"]]
        assert names == ["trace_expand", "compile", "sim"]
        ranks = [STAGE_ORDER.index(n) for n in names]
        assert ranks == sorted(ranks)
        assert doc["complete"] is True


# ----------------------------------------------------------------------
# Structured log ring


class TestStructuredLog:
    def test_levels_filter_is_a_floor(self):
        log = StructuredLog()
        log.debug("a")
        log.info("b")
        log.warning("c")
        log.error("d")
        events = [r["event"] for r in log.records(level="warning")]
        assert events == ["c", "d"]
        assert len(log.records()) == 4

    def test_trace_and_event_filters(self):
        log = StructuredLog()
        log.info("hit", trace_id="rtx-x")
        log.info("hit", trace_id="rtx-y")
        log.info("miss", trace_id="rtx-x")
        assert len(log.records(trace_id="rtx-x")) == 2
        assert len(log.records(trace_id="rtx-x", event="hit")) == 1

    def test_trace_id_defaults_from_binding(self):
        log = StructuredLog()
        with bind_trace("rtx-" + "a" * 16):
            record = log.info("bound")
        assert record["trace_id"] == "rtx-" + "a" * 16
        unbound = log.info("unbound")
        assert "trace_id" not in unbound

    def test_unknown_level_coerced_never_raises(self):
        log = StructuredLog()
        record = log.log("shouty", "event")
        assert record["level"] == "info"

    def test_ring_drops_oldest_and_counts(self):
        log = StructuredLog(capacity=3)
        for index in range(5):
            log.info(f"e{index}")
        document = log.document()
        assert document["schema"] == LOG_SCHEMA
        assert document["dropped"] == 2
        assert [r["event"] for r in document["records"]] == [
            "e2", "e3", "e4"
        ]

    def test_limit_keeps_newest(self):
        log = StructuredLog()
        for index in range(10):
            log.info(f"e{index}")
        kept = log.records(limit=3)
        assert [r["event"] for r in kept] == ["e7", "e8", "e9"]

    def test_dump_jsonl_round_trips(self):
        log = StructuredLog()
        log.info("one", answer=42)
        lines = log.dump_jsonl().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["answer"] == 42


# ----------------------------------------------------------------------
# Engine propagation


def _jobs(n=4):
    benchmarks = ("gaussian", "needle", "LSTM")
    return [
        SimJob(
            benchmark=benchmarks[index % len(benchmarks)],
            mechanism="lmi" if index % 2 == 0 else "baseline",
            warps=2,
            instructions_per_warp=120,
        )
        for index in range(n)
    ]


def _expected_ids(n):
    """The ids run_sim_jobs will mint next (same seed, same order)."""
    ids = [new_trace_id() for _ in range(n)]
    reset_trace_ids()
    return ids


class TestEnginePropagation:
    def test_serial_results_carry_deterministic_ids(self):
        jobs = _jobs(3)
        expected = _expected_ids(3)
        results = run_sim_jobs(jobs)
        assert [r.trace_id for r in results] == expected
        for result in results:
            doc = TRACES.get(result.trace_id)
            assert doc is not None and doc["complete"]
            assert doc["attrs"]["origin"] == "engine"
            assert doc["attrs"]["benchmark"] == result.job.benchmark
            stages = [s["stage"] for s in doc["stages"]]
            assert "sim" in stages

    def test_batched_results_carry_deterministic_ids(self):
        # Two in-process groups: ids follow submission order across
        # the group boundary.
        jobs = _jobs(GROUP_SIZE + 2)
        expected = _expected_ids(GROUP_SIZE + 2)
        results = run_sim_jobs(jobs)
        assert [r.trace_id for r in results] == expected
        for result in results:
            assert TRACES.get(result.trace_id)["attrs"]["origin"] == "engine"

    def test_pool_propagates_ids_across_fork(self, monkeypatch):
        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
        jobs = _jobs(6)
        expected = _expected_ids(6)
        results = run_sim_jobs(jobs, n_jobs=4)
        assert [r.trace_id for r in results] == expected
        for result in results:
            doc = TRACES.get(result.trace_id)
            assert doc is not None and doc["complete"]
            assert doc["attrs"]["origin"] == "engine"

    def test_redispatch_after_crash_keeps_original_id(
        self, monkeypatch, tmp_path, kill_worker_once
    ):
        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
        kill_worker_once("needle:baseline")
        jobs = _jobs(6)
        expected = _expected_ids(6)
        results = run_sim_jobs(jobs, n_jobs=4)
        assert fabric_counters()["cells_redispatched"] == 1
        assert (tmp_path / "fabric-fail-once").exists()
        # The crashed cell's task tuple — id included — was re-queued
        # verbatim, so even that cell reports its original trace id.
        assert [r.trace_id for r in results] == expected
        victim = next(
            r for r in results
            if (r.job.benchmark, r.job.mechanism) == ("needle", "baseline")
        )
        assert TRACES.get(victim.trace_id)["attrs"]["origin"] == "engine"

    def test_cache_hits_carry_no_trace_id(self, tmp_path):
        cache = CellCache(str(tmp_path / "cells"))
        jobs = _jobs(3)
        first = run_sim_jobs(jobs, cache=cache)
        assert all(r.trace_id is not None for r in first)
        TRACES.clear()
        second = run_sim_jobs(jobs, cache=cache)
        assert all(r.trace_id is None for r in second)
        assert fabric_counters()["cells_skipped"] >= 3
        # No executions → nothing recorded for the warm run.
        assert len(TRACES) == 0
        assert [r.cycles for r in second] == [r.cycles for r in first]


# ----------------------------------------------------------------------
# Determinism: exports never see tracing


def _captured_exports():
    with capture(sample_every=1) as hub:
        run_sim_jobs(_jobs(4))
        metrics = json.dumps(
            metrics_json(hub.registry, recorder=hub.recorder),
            sort_keys=True,
        )
        trace = json.dumps(
            chrome_trace(hub.tracer, hub.recorder), sort_keys=True
        )
    return metrics, trace


class TestExportIsolation:
    def test_exports_identical_with_tracing_on_and_off(self, monkeypatch):
        tracing_on = _captured_exports()
        reset_trace_ids()
        TRACES.clear()
        # Jobs without an id execute untraced: nothing is recorded.
        monkeypatch.setattr(engine_module, "new_trace_id", lambda: None)
        tracing_off = _captured_exports()
        assert len(TRACES) == 0
        assert tracing_on == tracing_off

    def test_no_trace_id_leaks_into_exports(self):
        metrics, trace = _captured_exports()
        assert len(TRACES) > 0  # tracing really ran
        assert not LEAK_RE.search(metrics)
        assert not LEAK_RE.search(trace)

    def test_trace_ids_absent_from_result_stats(self):
        results = run_sim_jobs(_jobs(2))
        for result in results:
            blob = json.dumps(
                {
                    "cycles": result.cycles,
                    "stats": result.stats.__dict__,
                    "phases": result.phases,
                },
                sort_keys=True, default=str,
            )
            assert not LEAK_RE.search(blob)


# ----------------------------------------------------------------------
# Terminal rendering


class TestFormatTrace:
    def test_gantt_covers_every_stage(self):
        store = TraceStore()
        store.begin("rtx-f" * 4, source="executed")
        store.stage("rtx-f" * 4, "admission", 0.002)
        store.stage("rtx-f" * 4, "sim", 0.020)
        store.finish("rtx-f" * 4, 0.025)
        text = format_trace(store.get("rtx-f" * 4), width=24)
        assert "admission" in text and "sim" in text
        assert "unattributed" in text
        assert "complete" in text and "25.00ms" in text
        bars = [line for line in text.splitlines() if "|" in line]
        assert len(bars) == 3
        assert all("█" in line for line in bars)

    def test_empty_trace_renders(self):
        assert "no stages" in format_trace(
            {"trace_id": "rtx-0", "complete": False}
        )
