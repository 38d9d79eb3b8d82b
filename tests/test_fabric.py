"""Experiment-fabric suite: memoization, stealing, shards, resume.

Locks the contracts of :mod:`repro.experiments.fabric`:

* the cell digest covers the full input closure (trace request,
  mechanism + expansion key, GPU config, code fingerprint) — any
  change flips it, nothing else does;
* the cell cache degrades every corruption mode (truncation, garbage,
  foreign entries, telemetry-less records) to a miss-and-rebuild,
  never to wrong results;
* Fig. 1's region mixes are cell-cache records in their own digest
  namespace: a warm run synthesizes nothing and prints and exports
  what the cold run did;
* exports stay byte-identical across cache states (cold / warm /
  corrupted), worker counts, shard assignments, and worker deaths —
  the fabric's one non-negotiable invariant;
* in-process cells cross the native FFI in batched groups, with a
  cell cache active as without one, and replay group by group;
* stolen foreign cells re-check the shared cache before each group;
* a worker dying mid-cell is re-dispatched exactly once;
* an interrupted run, rerun on the same cache, finishes with
  byte-identical artifacts (subprocess SIGINT test);
* the progress board and ``repro top`` surface skipped cells
  distinctly from done ones, with skips excluded from the EWMA/ETA.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cli import format_top
from repro.common.config import DEFAULT_GPU_CONFIG
from repro.experiments import engine as engine_module
from repro.experiments import fabric as fabric_module
from repro.experiments import fig1_memory_mix as fig1_module
from repro.experiments import run_fig1, run_fig12
from repro.experiments.engine import SimJob, model_factory
from repro.experiments.fabric import (
    FIG1_SCHEMA,
    SHARD_WAIT_ENV,
    CellCache,
    cell_digest,
    code_fingerprint,
    config_fingerprint,
    fabric_counters,
    fig1_digest,
    reset_fabric_counters,
    resolve_cell_cache,
    resolve_shard,
)
from repro.sim import native_available
from repro.sim.codegen import CODEGEN_STATS
from repro.telemetry.export import chrome_trace, metrics_json
from repro.telemetry.progress import ProgressBoard
from repro.telemetry.runtime import capture
from repro.workloads.profiles import profile
from repro.workloads.trace_cache import profile_fingerprint


@pytest.fixture(autouse=True)
def _clean_fabric(monkeypatch):
    """Zeroed counters and no leaked shard wait between tests."""
    monkeypatch.delenv(SHARD_WAIT_ENV, raising=False)
    reset_fabric_counters()
    yield
    reset_fabric_counters()


def _job(**overrides) -> SimJob:
    base = dict(
        benchmark="gaussian", mechanism="lmi",
        warps=3, instructions_per_warp=200,
    )
    base.update(overrides)
    return SimJob(**base)


# ----------------------------------------------------------------------
# Digest composition


class TestCellDigest:
    def test_stable_across_calls(self):
        assert cell_digest(_job(), DEFAULT_GPU_CONFIG) == cell_digest(
            _job(), DEFAULT_GPU_CONFIG
        )

    def test_every_input_flips_the_digest(self):
        variants = [
            _job(),
            _job(benchmark="needle"),
            _job(mechanism="gpushield"),
            _job(warps=4),
            _job(instructions_per_warp=201),
            _job(seed_salt=1),
        ]
        digests = {cell_digest(v, DEFAULT_GPU_CONFIG) for v in variants}
        assert len(digests) == len(variants)

    def test_config_flips_the_digest(self):
        import dataclasses

        tweaked = dataclasses.replace(DEFAULT_GPU_CONFIG, dram_latency=351)
        assert cell_digest(_job(), tweaked) != cell_digest(
            _job(), DEFAULT_GPU_CONFIG
        )
        # A field of a nested cache level flips it too.
        nested = dataclasses.replace(
            DEFAULT_GPU_CONFIG,
            l1=dataclasses.replace(DEFAULT_GPU_CONFIG.l1, hit_latency=31),
        )
        assert cell_digest(_job(), nested) != cell_digest(
            _job(), DEFAULT_GPU_CONFIG
        )

    def test_code_fingerprint_flips_the_digest(self, monkeypatch):
        before = cell_digest(_job(), DEFAULT_GPU_CONFIG)
        monkeypatch.setattr(fabric_module, "_code_fp", "0" * 64)
        assert cell_digest(_job(), DEFAULT_GPU_CONFIG) != before

    def test_memoized_digest_equals_unmemoized_composition(self):
        """The profile fingerprint, expansion-key and config fingerprint
        memos change no digest: each equals the composition recomputed
        from scratch, on a first call and on memo hits alike."""
        import dataclasses

        configs = (
            DEFAULT_GPU_CONFIG,
            dataclasses.replace(
                DEFAULT_GPU_CONFIG,
                l1=dataclasses.replace(DEFAULT_GPU_CONFIG.l1, hit_latency=31),
            ),
        )
        for config in configs:
            fingerprint = config_fingerprint.__wrapped__(config)
            assert fingerprint == hashlib.sha256(
                repr(config).encode("utf-8")
            ).hexdigest()
            for benchmark in ("gaussian", "needle"):
                for mechanism in ("baseline", "lmi", "gpushield", "baggy"):
                    job = _job(benchmark=benchmark, mechanism=mechanism)
                    spec = profile(job.benchmark)
                    trace = hashlib.sha256(
                        f"{spec.name}|warps={job.warps}"
                        f"|instructions={job.instructions_per_warp}"
                        f"|salt={job.seed_salt}"
                        f"|profile={profile_fingerprint.__wrapped__(spec)}"
                        .encode("utf-8")
                    ).hexdigest()
                    expansion = model_factory(mechanism).expansion_key()
                    raw = "|".join((
                        "cell/v1",
                        trace,
                        f"mechanism={mechanism}",
                        f"expansion={expansion!r}",
                        f"config={fingerprint}",
                        f"code={code_fingerprint()}",
                    ))
                    want = hashlib.sha256(raw.encode("utf-8")).hexdigest()
                    for _ in range(2):
                        assert cell_digest(job, config) == want
                        # An equal config that is another object hits
                        # the memo with the same fingerprint.
                        twin = dataclasses.replace(config)
                        assert twin is not config
                        assert cell_digest(job, twin) == want


# ----------------------------------------------------------------------
# Cache robustness


def _record(digest: str, telemetry=None):
    return {
        "schema": fabric_module.CELL_SCHEMA,
        "digest": digest,
        "job": {"benchmark": "gaussian", "mechanism": "lmi"},
        "cycles": 123,
        "stats": {"instructions": 456},
        "phases": {"sim": 0.5},
        "telemetry": telemetry,
    }


class TestCellCache:
    def test_round_trip(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.store(_record("d1"))
        loaded = cache.load("d1", want_events=False)
        assert loaded["cycles"] == 123
        assert loaded["stats"] == {"instructions": 456}
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = CellCache(str(tmp_path))
        assert cache.load("nope", want_events=False) is None
        assert cache.stats.misses == 1 and cache.stats.corrupt == 0

    def test_truncated_entry_is_corrupt_miss(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.store(_record("d1"))
        path = cache.path_for("d1")
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) - 7])
        assert cache.load("d1", want_events=False) is None
        assert cache.stats.corrupt == 1

    def test_garbage_entry_is_corrupt_miss(self, tmp_path):
        cache = CellCache(str(tmp_path))
        with open(cache.path_for("d1"), "wb") as handle:
            handle.write(b"not a cell record at all\n")
        assert cache.load("d1", want_events=False) is None
        assert cache.stats.corrupt == 1

    def test_foreign_digest_is_corrupt_miss(self, tmp_path):
        # A checksum-valid record filed under the wrong digest (renamed
        # or copied) must not be served.
        cache = CellCache(str(tmp_path))
        cache.store(_record("d1"))
        os.rename(cache.path_for("d1"), cache.path_for("d2"))
        assert cache.load("d2", want_events=False) is None
        assert cache.stats.corrupt == 1

    def test_eventless_record_misses_when_events_wanted(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.store(_record("d1", telemetry=None))
        assert cache.load("d1", want_events=True) is None
        assert cache.load("d1", want_events=False) is not None

    def test_quiet_load_counts_nothing(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.load("nope", want_events=False, quiet=True)
        assert cache.stats.misses == 0

    def test_concurrent_loads_count_every_corrupt_read(self, tmp_path):
        """Threads sharing one handle (the serve daemon's executors)
        loading one corrupt entry: every load is counted."""
        import threading

        class YieldingStats(fabric_module.CellCacheStats):
            """Sleeps between reading and writing ``corrupt``, so an
            increment made outside the stats lock loses updates."""

            @property
            def corrupt(self):
                value = self._corrupt
                time.sleep(0.0001)
                return value

            @corrupt.setter
            def corrupt(self, value):
                self._corrupt = value

        cache = CellCache(str(tmp_path))
        cache.stats = YieldingStats()
        with open(cache.path_for("d1"), "wb") as handle:
            handle.write(b"not a cell record at all\n")
        threads_n, per_thread = 8, 50
        start = threading.Barrier(threads_n, timeout=10)
        served = []

        def reader():
            start.wait()
            for _ in range(per_thread):
                served.append(cache.load("d1", want_events=False))

        threads = [threading.Thread(target=reader) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert served == [None] * (threads_n * per_thread)
        assert cache.stats.corrupt == threads_n * per_thread
        assert cache.stats.misses == threads_n * per_thread

    def test_concurrent_writers_store_every_record(self, tmp_path):
        """Two handles (threads here; shard processes publish the same
        way) storing into one directory: every record loads back."""
        import threading

        per_writer = 40
        caches = [CellCache(str(tmp_path)) for _ in range(2)]
        start = threading.Barrier(2, timeout=10)
        errors = []

        def writer(slot):
            try:
                start.wait()
                for index in range(per_writer):
                    caches[slot].store(_record(f"w{slot}-{index}"))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        reader = CellCache(str(tmp_path))
        for slot in range(2):
            for index in range(per_writer):
                digest = f"w{slot}-{index}"
                record = reader.load(digest, want_events=False)
                assert record is not None and record["digest"] == digest
        assert reader.stats.corrupt == 0
        # Both handles' stat counters survived the hammering intact.
        assert sum(cache.stats.stores for cache in caches) == 2 * per_writer


class TestResolvers:
    def test_cell_cache_env_and_memoization(self, monkeypatch, tmp_path):
        # The directory arrives as an argument only: the variable that
        # used to name it is ignored.
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path / "env"))
        assert resolve_cell_cache(None) is None
        first = resolve_cell_cache(str(tmp_path / "cells"))
        assert first is not None
        assert first.directory == str(tmp_path / "cells")
        # stats accumulate
        assert resolve_cell_cache(str(tmp_path / "cells")) is first

    def test_shard_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "1/2")  # ignored
        assert resolve_shard(None) is None
        assert resolve_shard("") is None
        assert resolve_shard("0/2") == (0, 2)
        assert resolve_shard("1/3") == (1, 3)
        assert resolve_shard("0/1") is None  # degrades to no sharding
        for bad in ("2/2", "-1/2", "x/y", "3"):
            with pytest.raises(ValueError):
                resolve_shard(bad)


# ----------------------------------------------------------------------
# Byte-identity across cache states, shards, and worker deaths


_BENCHMARKS = ("gaussian", "needle", "LSTM")
_SIZES = dict(warps=3, instructions_per_warp=200)
_CELLS = len(_BENCHMARKS) * 4  # mechanisms: baseline, baggy, gpushield, lmi


def _fig12_with_exports(jobs: int = 1, **grid):
    """(table text, metrics JSON, trace JSON) for one captured run;
    *grid* carries ``cache``/``shard``."""
    with capture(sample_every=1) as hub:
        result = run_fig12(_BENCHMARKS, jobs=jobs, **grid, **_SIZES)
        metrics = json.dumps(
            metrics_json(hub.registry, recorder=hub.recorder),
            sort_keys=True,
        )
        trace = json.dumps(
            chrome_trace(hub.tracer, hub.recorder), sort_keys=True
        )
    return result.format_table(), metrics, trace


class TestByteIdentity:
    def test_cold_and_warm_match_uncached(self, tmp_path):
        baseline = _fig12_with_exports()
        reset_fabric_counters()
        cache = CellCache(str(tmp_path / "cells"))
        cold = _fig12_with_exports(cache=cache)
        assert cold == baseline
        assert fabric_counters()["cells_executed"] == _CELLS
        reset_fabric_counters()
        warm = _fig12_with_exports(cache=cache)
        assert warm == baseline
        counts = fabric_counters()
        assert counts["cells_skipped"] == _CELLS
        assert counts["cells_executed"] == 0

    def test_warm_run_matches_under_worker_pool(
        self, monkeypatch, tmp_path
    ):
        baseline = _fig12_with_exports()
        cache = CellCache(str(tmp_path / "cells"))
        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
        assert _fig12_with_exports(jobs=4, cache=cache) == baseline  # cold
        reset_fabric_counters()
        assert _fig12_with_exports(jobs=4, cache=cache) == baseline  # warm
        assert fabric_counters()["cells_skipped"] == _CELLS

    def test_corrupted_entry_rebuilds_identically(self, tmp_path):
        baseline = _fig12_with_exports()
        cache = CellCache(str(tmp_path / "cells"))
        _fig12_with_exports(cache=cache)  # populate
        digest = cell_digest(
            SimJob("gaussian", "lmi", **_SIZES), DEFAULT_GPU_CONFIG
        )
        path = cache.path_for(digest)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        reset_fabric_counters()
        assert _fig12_with_exports(cache=cache) == baseline
        counts = fabric_counters()
        assert counts["cells_executed"] == 1  # rebuilt the bad cell
        assert counts["cells_skipped"] == _CELLS - 1
        # ...and the rebuild upgraded the entry in place.
        assert cache.load(digest, want_events=True) is not None

    def test_v2_record_misses_and_is_rebuilt(self, tmp_path):
        """A record of the previous cell schema (v2: the blob's events
        as a list of tuples) reads as a miss; the rebuild stores v3."""
        baseline = _fig12_with_exports()
        cache = CellCache(str(tmp_path / "cells"))
        _fig12_with_exports(cache=cache)  # populate
        digest = cell_digest(
            SimJob("needle", "baggy", **_SIZES), DEFAULT_GPU_CONFIG
        )
        record = cache.load(digest, want_events=True)
        registry, trace_name, rows = record["telemetry"]
        record["schema"] = "repro.experiments.cell/v2"
        record["telemetry"] = (
            registry, trace_name, [tuple(row) for row in rows.tolist()]
        )
        cache.store(record)
        assert cache.load(digest, want_events=True) is None
        reset_fabric_counters()
        assert _fig12_with_exports(cache=cache) == baseline
        counts = fabric_counters()
        assert counts["cells_executed"] == 1
        assert counts["cells_skipped"] == _CELLS - 1
        rebuilt = cache.load(digest, want_events=True)
        assert rebuilt["schema"] == "repro.experiments.cell/v3"
        assert np.array_equal(rebuilt["telemetry"][2], rows)

    def test_worker_death_redispatches_exactly_once(
        self, monkeypatch, tmp_path, kill_worker_once
    ):
        baseline = _fig12_with_exports()
        reset_fabric_counters()
        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
        kill_worker_once("needle:gpushield")
        assert _fig12_with_exports(jobs=4) == baseline
        counts = fabric_counters()
        assert counts["cells_redispatched"] == 1
        assert counts["cells_executed"] == _CELLS
        # The marker proves the injected death actually fired.
        assert os.path.exists(str(tmp_path / "fabric-fail-once"))

    def test_shard_run_is_complete_and_identical(self, tmp_path):
        baseline = _fig12_with_exports()
        reset_fabric_counters()
        cache = CellCache(str(tmp_path / "cells"))
        # No peer shard is running, and the wait is 0: the foreign
        # half is computed locally as a steal of last resort — the
        # invocation still yields the complete artifact set.
        assert _fig12_with_exports(cache=cache, shard=(0, 2)) == baseline
        counts = fabric_counters()
        assert counts["cells_executed"] == _CELLS
        assert counts["cells_stolen"] == _CELLS // 2
        # The other shard now finds everything published.
        reset_fabric_counters()
        assert _fig12_with_exports(cache=cache, shard=(1, 2)) == baseline
        assert fabric_counters()["cells_skipped"] == _CELLS

    def test_cached_cells_cross_the_ffi_in_batches(self, tmp_path):
        if not native_available():
            pytest.skip("no C toolchain for the native executor")
        cache = CellCache(str(tmp_path / "cells"))
        calls, cells = CODEGEN_STATS.batch_calls, CODEGEN_STATS.batch_cells
        run_fig12(_BENCHMARKS, cache=cache, **_SIZES)
        assert fabric_counters()["cells_executed"] == _CELLS
        assert CODEGEN_STATS.batch_cells - cells == _CELLS
        assert CODEGEN_STATS.batch_calls - calls < _CELLS

    def test_in_process_cells_replay_group_by_group(self, monkeypatch):
        # Each cell's telemetry is replayed as soon as every earlier
        # cell has resolved: a later group starts with the earlier
        # groups' job spans already in the hub (so captured blobs are
        # let go group by group and the live plane advances).
        baseline = _fig12_with_exports()
        real = fabric_module.execute_group
        spans_seen = []

        def spying(jobs, *args, **kwargs):
            spans_seen.append(len(engine_module.TELEMETRY.tracer.spans))
            return real(jobs, *args, **kwargs)

        monkeypatch.setattr(fabric_module, "execute_group", spying)
        assert _fig12_with_exports() == baseline
        group = fabric_module.GROUP_SIZE
        assert len(spans_seen) == -(-_CELLS // group)
        assert spans_seen[0] == 0
        assert spans_seen[1] >= group  # the first group's job spans

    def test_stolen_cells_recheck_the_cache_before_running(
        self, monkeypatch, tmp_path
    ):
        # A peer shard publishing while this shard runs its stolen
        # cells: whatever it published before a group starts is
        # skipped, not recomputed.
        mechanisms = ("baseline", "baggy", "gpushield", "lmi")
        jobs = [
            SimJob(benchmark, mechanism, **_SIZES)
            for benchmark in _BENCHMARKS
            for mechanism in mechanisms
        ]
        baseline = engine_module.run_sim_jobs(jobs)
        reset_fabric_counters()
        monkeypatch.setattr(fabric_module, "GROUP_SIZE", 2)
        foreign = jobs[1::2]
        cache = CellCache(str(tmp_path / "cells"))
        real = fabric_module.execute_group

        def peer_publishes(group, config, *args, **kwargs):
            if list(group) == foreign[:2]:  # first stolen group
                late = foreign[2:]
                for job, (result, blob) in zip(
                    late, real(late, config, False)
                ):
                    cache.store(
                        fabric_module._make_cell_record(
                            cell_digest(job, config), job, result, blob
                        )
                    )
            return real(group, config, *args, **kwargs)

        monkeypatch.setattr(fabric_module, "execute_group", peer_publishes)
        results = engine_module.run_sim_jobs(jobs, cache=cache, shard=(0, 2))
        assert [r.cycles for r in results] == [r.cycles for r in baseline]
        counts = fabric_counters()
        assert counts["cells_stolen"] == 2
        assert counts["cells_skipped"] == len(foreign) - 2
        assert counts["cells_executed"] == len(jobs) // 2 + 2

    def test_shard_without_cache_fails_loudly(self):
        with pytest.raises(ValueError, match="cell-cache"):
            run_fig12(
                ("gaussian",), warps=2, instructions_per_warp=120,
                shard=(0, 2),
            )


# ----------------------------------------------------------------------
# Fig. 1 region mixes: records in their own digest namespace


_FIG1_SIZES = dict(warps=2, instructions_per_warp=100)


def _count_syntheses(monkeypatch, refuse: bool = False) -> list:
    """Record (or refuse) every trace synthesis `run_fig1` asks for."""
    calls = []
    real = fig1_module.synthesize_trace

    def counted(name, **kwargs):
        if refuse:
            raise AssertionError(f"synthesized {name}")
        calls.append(name)
        return real(name, **kwargs)

    monkeypatch.setattr(fig1_module, "synthesize_trace", counted)
    return calls


class TestFig1Records:
    def test_warm_call_synthesizes_nothing(self, monkeypatch, tmp_path):
        names = ["bert", "needle"]
        uncached = run_fig1(names, **_FIG1_SIZES)
        cache = CellCache(str(tmp_path / "cells"))
        cold = run_fig1(names, cache=cache, **_FIG1_SIZES)
        assert cold.rows == uncached.rows
        assert (cache.stats.misses, cache.stats.stores) == (2, 2)
        _count_syntheses(monkeypatch, refuse=True)
        warm = run_fig1(names, cache=cache, **_FIG1_SIZES)
        assert warm.rows == cold.rows
        assert cache.stats.hits == 2

    def test_trace_size_and_code_fingerprint_miss(
        self, monkeypatch, tmp_path
    ):
        cache = CellCache(str(tmp_path / "cells"))
        calls = _count_syntheses(monkeypatch)
        run_fig1(["bert"], cache=cache, **_FIG1_SIZES)
        run_fig1(["bert"], cache=cache, warps=3, instructions_per_warp=100)
        run_fig1(["bert"], cache=cache, warps=2, instructions_per_warp=101)
        monkeypatch.setattr(fabric_module, "_code_fp", "0" * 64)
        run_fig1(["bert"], cache=cache, **_FIG1_SIZES)
        assert calls == ["bert"] * 4
        assert (cache.stats.hits, cache.stats.misses) == (0, 4)
        assert len(list((tmp_path / "cells").iterdir())) == 4

    def test_corrupt_record_falls_back_and_is_rewritten(
        self, monkeypatch, tmp_path
    ):
        cache = CellCache(str(tmp_path / "cells"))
        want = run_fig1(["needle"], cache=cache, **_FIG1_SIZES)
        digest = fig1_digest("needle", **_FIG1_SIZES)
        path = cache.path_for(digest)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        calls = _count_syntheses(monkeypatch)
        assert run_fig1(["needle"], cache=cache, **_FIG1_SIZES).rows == (
            want.rows
        )
        assert calls == ["needle"]
        assert cache.stats.corrupt == 1
        assert open(path, "rb").read() == raw  # rewritten
        # The namespace is the record's schema too: read as a grid
        # cell, a Fig. 1 record is not one.
        assert cache.load(digest, want_events=False) is None
        assert cache.load(digest, want_events=False, schema=FIG1_SCHEMA)

    def test_without_a_cache_nothing_is_written(self, monkeypatch, tmp_path):
        def untouchable(*args, **kwargs):
            raise AssertionError("cell cache used")

        monkeypatch.setattr(CellCache, "load", untouchable)
        monkeypatch.setattr(CellCache, "store", untouchable)
        monkeypatch.chdir(tmp_path)
        calls = _count_syntheses(monkeypatch)
        run_fig1(["bert", "needle"], **_FIG1_SIZES)
        assert calls == ["bert", "needle"]
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# The CLI's grid settings hold for one run


#: The variables that used to carry --cell-cache, --shard,
#: --trace-cache and --serve.
_RETIRED_ENV = (
    "REPRO_CELL_CACHE", "REPRO_SHARD", "REPRO_TRACE_CACHE",
    "REPRO_METRICS_PORT",
)


def test_cli_settings_end_with_the_run(monkeypatch, tmp_path, capsys):
    from repro.experiments.__main__ import main
    from repro.workloads.trace_cache import TRACE_CACHE

    for name in _RETIRED_ENV:
        monkeypatch.delenv(name, raising=False)
    disk_dir = TRACE_CACHE.disk_dir
    assert main([
        "fig12", "--fast", "--cell-cache", str(tmp_path / "cells"),
        "--shard", "0/2", "--trace-cache", str(tmp_path / "traces"),
    ]) == 0
    assert "[fabric] total=112 executed=112" in capsys.readouterr().out
    assert [name for name in _RETIRED_ENV if name in os.environ] == []
    assert TRACE_CACHE.disk_dir == disk_dir
    # The same grid again, without cache arguments: nothing is read
    # from the directory the CLI run filled, and nothing is sharded.
    reset_fabric_counters()
    run_fig12(warps=8, instructions_per_warp=400)
    counts = fabric_counters()
    assert counts["cells_executed"] == 112
    assert counts["cells_skipped"] == 0
    assert counts["cells_stolen"] == 0


# ----------------------------------------------------------------------
# SIGINT, then a rerun on the same cache (subprocess, full CLI path)


_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    env.pop(SHARD_WAIT_ENV, None)
    return env


def _run_cli(args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", "fig12", "--fast"]
        + args,
        cwd=_REPO_ROOT, env=_cli_env(), timeout=timeout,
        capture_output=True, text=True,
    )


@pytest.mark.slow
def test_resume_after_sigint_is_byte_identical(tmp_path):
    cells = str(tmp_path / "cells")
    baseline_metrics = tmp_path / "baseline.metrics.json"
    done = _run_cli(["--metrics", str(baseline_metrics)])
    assert done.returncode == 0, done.stderr

    # Interrupt a cached run once its first cell is published.
    interrupted = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "fig12", "--fast",
         "--cell-cache", cells,
         "--metrics", str(tmp_path / "never.metrics.json")],
        cwd=_REPO_ROOT, env=_cli_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if interrupted.poll() is not None:
            break  # finished before we could interrupt; still a valid warm state
        if os.path.isdir(cells) and any(
            name.startswith("cell-") and name.endswith(".bin")
            for name in os.listdir(cells)
        ):
            interrupted.send_signal(signal.SIGINT)
            break
        time.sleep(0.05)
    interrupted.wait(timeout=120)

    resumed_metrics = tmp_path / "resumed.metrics.json"
    resumed = _run_cli([
        "--cell-cache", cells,
        "--metrics", str(resumed_metrics),
    ])
    assert resumed.returncode == 0, resumed.stderr
    assert resumed_metrics.read_bytes() == baseline_metrics.read_bytes()


@pytest.mark.slow
def test_warm_fig1_and_fig12_rerun_matches_cold(tmp_path):
    """``fig12 --fast fig1 --cell-cache C --metrics M`` twice: the warm
    run reads every Fig. 1 record and grid cell, and prints the same
    tables and the same metrics bytes."""
    cells = tmp_path / "cells"
    metrics = tmp_path / "run.metrics.json"
    stdout, exported = [], []
    for _ in ("cold", "warm"):
        done = _run_cli([
            "fig1", "--cell-cache", str(cells), "--metrics", str(metrics),
        ])
        assert done.returncode == 0, done.stderr
        stdout.append(done.stdout.splitlines())
        exported.append(metrics.read_bytes())
    cold, warm = (
        [line for line in lines
         if " done in " not in line and not line.startswith("[fabric]")]
        for lines in stdout
    )
    assert warm == cold
    assert exported[1] == exported[0]
    assert ("[fabric] total=112 executed=112 skipped=0 stolen=0 "
            "redispatched=0") in stdout[0]
    assert ("[fabric] total=112 executed=0 skipped=112 stolen=0 "
            "redispatched=0") in stdout[1]
    # 112 grid cells plus the 28 benchmarks' Fig. 1 records.
    assert len(list(cells.iterdir())) == 112 + 28


# ----------------------------------------------------------------------
# Progress board + repro top: skipped is distinct from done


class TestSkippedOnTheBoard:
    def _board(self):
        board = ProgressBoard()
        board.begin_run("warm")
        return board

    def test_job_skipped_transitions_and_counts(self):
        board = self._board()
        job_id = board.job_queued("gaussian", "lmi")
        board.job_skipped(job_id)
        run = board.snapshot()["run"]
        assert run["skipped"] == 1
        assert run["done"] == 0 and run["queued"] == 0

    def test_skipped_is_terminal(self):
        board = self._board()
        job_id = board.job_queued("gaussian", "lmi")
        board.job_skipped(job_id)
        board.job_finished(job_id)  # must not double-transition
        run = board.snapshot()["run"]
        assert run["skipped"] == 1 and run["done"] == 0

    def test_skipped_does_not_feed_the_ewma(self):
        board = self._board()
        done_id = board.job_queued("gaussian", "lmi")
        board.job_running(done_id)
        board.job_finished(done_id)
        ewma_after_done = board.snapshot()["run"]["ewma_job_seconds"]
        skip_id = board.job_queued("needle", "lmi")
        board.job_skipped(skip_id)
        assert (
            board.snapshot()["run"]["ewma_job_seconds"] == ewma_after_done
        )

    def test_none_and_unknown_ids_are_noops(self):
        board = self._board()
        board.job_skipped(None)
        board.job_skipped("job-999")
        assert board.snapshot()["run"]["skipped"] == 0

    def test_format_top_shows_skipped_only_when_present(self):
        snapshot = {
            "run": {
                "name": "fig12", "status": "running", "total": 12,
                "done": 4, "skipped": 8, "running": 0, "queued": 0,
                "failed": 0, "retries": 0,
            },
        }
        rendered = format_top(snapshot)
        assert "8 skipped" in rendered
        snapshot["run"]["skipped"] = 0
        assert "skipped" not in format_top(snapshot)
