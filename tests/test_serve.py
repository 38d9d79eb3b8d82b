"""Serving-plane tests: protocol validation, daemon equivalence with
the engine, coalescing, admission control, cache sharing, and
per-request forensics (trace header, waterfalls, structured logs,
slow-request capture)."""

import dataclasses
import json
import re
import socket
import tempfile
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.common.config import DEFAULT_GPU_CONFIG
from repro.experiments.engine import SimJob, run_sim_jobs
from repro.experiments.fabric import cell_digest
from repro.serve import (
    RequestError,
    ServeDaemon,
    build_config,
    parse_simulate,
)
from repro.serve.daemon import main as serve_main
from repro.serve.loadgen import build_cells, run_swarm_sync, zipf_schedule
from repro.serve.protocol import TRACE_HEADER
from repro.sim import codegen
from repro.sim.codegen import CACHE_ENV, CODEGEN_STATS
from repro.sim.native import fallback_counts

_TRACE_ID_RE = re.compile(r"^rtx-[0-9a-f]{16}$")


def _body(**overrides) -> bytes:
    doc = {
        "benchmark": "gaussian",
        "mechanism": "lmi",
        "warps": 2,
        "instructions_per_warp": 200,
    }
    doc.update(overrides)
    return json.dumps(doc).encode("utf-8")


def _post(url: str, body: bytes, headers=None):
    request = urllib.request.Request(
        url + "/v1/simulate", data=body, headers=headers or {}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get(url: str, path: str):
    with urllib.request.urlopen(url + path, timeout=30) as response:
        return response.status, response.read()


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.002)


# ----------------------------------------------------------------------
# Protocol


class TestProtocol:
    def test_minimal_request_parses_with_defaults(self):
        parsed = parse_simulate(
            json.dumps({"benchmark": "gaussian", "mechanism": "lmi"}).encode()
        )
        assert parsed.job.benchmark == "gaussian"
        assert parsed.job.warps == 8
        assert parsed.job.instructions_per_warp == 2000
        assert parsed.config is DEFAULT_GPU_CONFIG
        assert parsed.tenant == "anonymous"

    def test_header_tenant_and_body_tenant(self):
        raw = _body(tenant="team-a")
        assert parse_simulate(raw, "team-b").tenant == "team-a"
        assert parse_simulate(_body(), "team-b").tenant == "team-b"

    @pytest.mark.parametrize(
        "mutation",
        [
            {"benchmark": "nope"},
            {"mechanism": "nope"},
            {"benchmark": 7},
            {"warps": 0},
            {"warps": "eight"},
            {"warps": True},
            {"instructions_per_warp": -1},
            {"seed_salt": -5},
            {"tenant": 12},
            {"config": {"bogus_field": 1}},
            {"config": {"num_sms": 0}},
            {"config": {"l1": {"ways": "many"}}},
            {"config": {"l1": {"bogus": 1}}},
            {"config": []},
        ],
    )
    def test_invalid_requests_raise(self, mutation):
        with pytest.raises(RequestError):
            parse_simulate(_body(**mutation))

    def test_non_json_and_non_object_bodies(self):
        with pytest.raises(RequestError):
            parse_simulate(b"\xff\xfe")
        with pytest.raises(RequestError):
            parse_simulate(b"[1, 2]")

    def test_build_config_nested_overrides(self):
        config = build_config({"dram_channels": 16, "l1": {"ways": 2}})
        assert config.dram_channels == 16
        assert config.l1.ways == 2
        # Untouched fields keep their defaults.
        assert config.l1.size_bytes == DEFAULT_GPU_CONFIG.l1.size_bytes
        assert config.l2 == DEFAULT_GPU_CONFIG.l2

    def test_build_config_empty_is_default(self):
        assert build_config(None) is DEFAULT_GPU_CONFIG
        assert build_config({}) is DEFAULT_GPU_CONFIG

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"dram_latency": -5}, "dram_latency"),
            ({"dram_latency": "350"}, "dram_latency"),
            ({"dram_latency": True}, "dram_latency"),
            ({"dram_channels": 1.5}, "dram_channels"),
            ({"l2": {"hit_latency": -1}}, "hit_latency"),
            ({"dram_bandwidth_bytes_per_cycle": None},
             "dram_bandwidth_bytes_per_cycle"),
            ({"dram_channels": 0}, "dram_channels"),
            ({"dram_bandwidth_bytes_per_cycle": 0},
             "dram_bandwidth_bytes_per_cycle"),
            ({"l2": {"hit_latency": 0}}, "hit_latency"),
            ({"l2": {"hit_latency": "200"}}, "hit_latency"),
            ({"l2": {"hit_latency": float("nan")}}, "hit_latency"),
            ({"l1": {"ways": True}}, "ways"),
            ({"l1": {"ways": 0}}, "ways"),
            ({"l1": {"hit_latency": 2.5}}, "hit_latency"),
            ({"l2": {"size_bytes": -1}}, "size_bytes"),
            # Past their bounds: 2**61 hung the native kernel, and the
            # other two sized 10**12 free-at slots and ~206 GB of tags.
            ({"dram_latency": 2 ** 61}, "dram_latency"),
            ({"dram_channels": 10 ** 12}, "dram_channels"),
            ({"l2": {"size_bytes": 3072 * 2 ** 30}}, "size_bytes"),
            # Fields no simulator read are unknown, whatever the value.
            ({"num_sms": 1.5}, "num_sms"),
            ({"warps_per_scheduler": -1}, "warps_per_scheduler"),
            ({"dram_bytes": None}, "dram_bytes"),
            ({"clock_ghz": 0}, "clock_ghz"),
            ({"clock_ghz": "2"}, "clock_ghz"),
            ({"clock_ghz": float("nan")}, "clock_ghz"),
        ],
        ids=lambda value: json.dumps(value) if isinstance(value, dict)
        else None,
    )
    def test_build_config_rejects_bad_override(self, overrides, field):
        with pytest.raises(RequestError, match=field):
            build_config(overrides)


# ----------------------------------------------------------------------
# Daemon


@pytest.fixture()
def daemon():
    instance = ServeDaemon(0)
    instance.start()
    yield instance
    instance.stop()


class TestDaemon:
    def test_engine_equivalence_including_config_overrides(self, daemon):
        """Daemon answers are byte-identical to direct engine calls."""
        cases = [
            ({}, DEFAULT_GPU_CONFIG),
            (
                {"config": {"dram_latency": 400, "l1": {"ways": 2}}},
                build_config({"dram_latency": 400, "l1": {"ways": 2}}),
            ),
            ({"mechanism": "baseline"}, DEFAULT_GPU_CONFIG),
        ]
        for overrides, config in cases:
            status, doc = _post(daemon.url, _body(**overrides))
            assert status == 200
            job = SimJob(
                benchmark=doc["benchmark"],
                mechanism=doc["mechanism"],
                warps=doc["warps"],
                instructions_per_warp=doc["instructions_per_warp"],
                seed_salt=doc["seed_salt"],
            )
            [expected] = run_sim_jobs([job], config=config)
            assert doc["cycles"] == expected.cycles
            assert doc["stats"] == dataclasses.asdict(expected.stats)

    def test_config_override_runs_without_a_compile(
        self, tmp_path, monkeypatch, fresh_memo
    ):
        """One kernel serves every machine: once the native units are
        loaded, a request that changes every cache and DRAM value
        builds nothing and runs natively."""
        if codegen._find_cc() is None:
            pytest.skip("no C toolchain")
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        machine = {
            "l1": {"ways": 2, "hit_latency": 17, "line_bytes": 64},
            "l2": {"ways": 12, "hit_latency": 123, "line_bytes": 64},
            "dram_latency": 777,
            "dram_channels": 4,
            "dram_bandwidth_bytes_per_cycle": 32,
        }
        with ServeDaemon(0) as daemon:
            status, _ = _post(daemon.url, _body(mechanism="gpushield"))
            assert status == 200
            compiles = CODEGEN_STATS.compiles
            before = fallback_counts()
            status, doc = _post(
                daemon.url, _body(mechanism="gpushield", config=machine)
            )
        assert status == 200
        assert doc["source"] == "executed"
        assert CODEGEN_STATS.compiles == compiles
        assert fallback_counts() == before

    def test_repeat_request_hits_memory_cache(self, daemon):
        _, first = _post(daemon.url, _body())
        _, second = _post(daemon.url, _body())
        assert first["source"] == "executed"
        assert second["source"] == "memory"
        assert second["cycles"] == first["cycles"]
        assert second["stats"] == first["stats"]
        assert second["digest"] == first["digest"]

    def test_distinct_config_distinct_digest(self, daemon):
        _, plain = _post(daemon.url, _body())
        _, tweaked = _post(daemon.url, _body(config={"dram_latency": 400}))
        assert plain["digest"] != tweaked["digest"]

    def test_bad_request_is_400(self, daemon):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(daemon.url, b'{"benchmark": "nope", "mechanism": "lmi"}')
        assert info.value.code == 400

    def test_out_of_range_config_is_400(self, daemon):
        # Was simulated and answered 200 with 395 cycles.
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(daemon.url, _body(config={"dram_latency": -5}))
        assert info.value.code == 400
        assert "dram_latency" in json.loads(info.value.read())["error"]

    def test_field_no_simulator_reads_is_400(self, daemon):
        # Simulated the default machine again under a new cell digest.
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(daemon.url, _body(config={"num_sms": 8}))
        assert info.value.code == 400
        assert json.loads(info.value.read())["error"] == (
            "unknown config field 'num_sms'"
        )

    @pytest.mark.parametrize(
        "overrides, config, cycles",
        [
            ({"dram_latency": 351},
             dataclasses.replace(DEFAULT_GPU_CONFIG, dram_latency=351),
             4671),
            ({"l1": {"hit_latency": 32}},
             dataclasses.replace(
                 DEFAULT_GPU_CONFIG,
                 l1=dataclasses.replace(DEFAULT_GPU_CONFIG.l1, hit_latency=32),
             ),
             4660),
        ],
        ids=["dram_latency", "l1.hit_latency"],
    )
    def test_valid_overrides_keep_cycles_and_digest(
        self, daemon, overrides, config, cycles
    ):
        assert build_config(overrides) == config
        status, doc = _post(daemon.url, _body(config=overrides))
        assert status == 200 and doc["cycles"] == cycles
        job = SimJob(benchmark="gaussian", mechanism="lmi", warps=2,
                     instructions_per_warp=200)
        assert doc["digest"] == cell_digest(job, config)

    def test_observability_endpoints(self, daemon):
        _post(daemon.url, _body())
        status, raw = _get(daemon.url, "/healthz")
        assert status == 200 and json.loads(raw)["status"] == "ok"
        status, raw = _get(daemon.url, "/stats")
        stats = json.loads(raw)
        assert status == 200
        assert stats["requests"]["ok"] >= 1
        assert stats["batches"] >= 1
        status, raw = _get(daemon.url, "/metrics")
        assert status == 200
        text = raw.decode("utf-8")
        assert "serve_requests" in text or "serve:requests" in text or (
            "serve" in text
        )
        status, raw = _get(daemon.url, "/progress")
        assert status == 200 and "run" in json.loads(raw)
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(daemon.url, "/nope")
        assert info.value.code == 404

    def test_coalescing_identical_inflight_requests(self):
        """16 concurrent identical requests share one execution."""
        with ServeDaemon(0) as daemon:
            cells = build_cells(1, seed=3)
            summary = run_swarm_sync(
                "127.0.0.1",
                daemon.port,
                requests=16,
                concurrency=16,
                cells=cells,
            )
            assert summary["errors"] == 0
            assert summary["dropped"] == 0
            by_source = summary["by_source"]
            assert by_source.get("executed", 0) == 1
            # Everything else coalesced onto the single execution or
            # hit the memory cache right behind it.
            assert (
                by_source.get("coalesced", 0) + by_source.get("memory", 0)
                == 15
            )
            assert daemon.stats_snapshot()["batches"] == 1

    def test_tenant_quota_throttles_with_retry_after(self):
        with ServeDaemon(0, tenant_rps=0.5, tenant_burst=1) as daemon:
            status, _ = _post(daemon.url, _body(tenant="greedy"))
            assert status == 200
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(daemon.url, _body(tenant="greedy"))
            assert info.value.code == 429
            assert int(info.value.headers["Retry-After"]) >= 1
            # A different tenant is not throttled.
            status, _ = _post(daemon.url, _body(tenant="patient"))
            assert status == 200

    def test_tenant_bucket_below_one_token_rejected(self):
        # A bucket shallower than one token never holds the token a
        # request needs, so every request would get 429 forever.
        for burst in (0.5, float("nan")):
            with pytest.raises(ValueError, match="tenant_burst"):
                ServeDaemon(0, tenant_rps=5, tenant_burst=burst)
        # The default depth is two seconds of refill, at least 1.
        assert ServeDaemon(0, tenant_rps=5).tenant_burst == 10
        assert ServeDaemon(0, tenant_rps=0.2).tenant_burst == 1
        # With throttling off the bucket depth is never read.
        idle = ServeDaemon(0, tenant_rps=0, tenant_burst=0.5)
        assert idle.tenant_burst == 0.5

    @pytest.mark.parametrize("rps", [-1.0, float("nan")])
    def test_negative_tenant_rps_rejected(self, rps):
        # Either value used to switch throttling off silently.
        with pytest.raises(ValueError, match="tenant_rps"):
            ServeDaemon(0, tenant_rps=rps)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--max-batch", "0"], "error: max_batch must be positive"),
            (
                ["--tenant-rps", "5", "--tenant-burst", "0.5"],
                "error: tenant_burst must be at least 1",
            ),
            (["--tenant-rps", "-1"], "error: tenant_rps must be non-negative"),
            (
                ["--port", "x"],
                "repro serve: error: argument --port: invalid int value: 'x'",
            ),
            (["--port", "70000"], "error: port must be in [0, 65535]"),
            # The batching window is gone: a batch leaves as soon as an
            # executor is free.
            (
                ["--window-ms", "5"],
                "repro serve: error: unrecognized arguments: --window-ms 5",
            ),
        ],
    )
    def test_cli_rejects_bad_settings_with_exit_2(self, argv, message, capsys):
        assert serve_main(argv) == 2
        captured = capsys.readouterr()
        *usage, last = captured.err.strip().splitlines()
        assert last == message
        # A usage error prints argparse's usage first; a value the
        # constructor rejects prints its one line alone.
        assert usage == [] or usage[0].startswith("usage: repro serve ")
        assert "Traceback" not in captured.err

    def test_cli_port_in_use_exits_1_without_announcing(self, capsys):
        # The bind error used to be swallowed: the daemon printed
        # "listening on", then "shut down cleanly", and exited 0.
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            assert serve_main(["--port", str(port)]) == 1
        captured = capsys.readouterr()
        assert "listening on" not in captured.out
        assert captured.err.startswith("error: ")

    def test_pending_bound_rejects_excess_distinct_cells(self, monkeypatch):
        # Four salts of one cell, each held 250 ms in the executor, so
        # the first distinct cell is still in flight when the others
        # arrive.
        cell = build_cells(1, seed=5)[0]
        cells = [dict(cell, seed_salt=salt) for salt in range(4)]
        monkeypatch.setenv(
            "REPRO_SERVE_INJECT_DELAY",
            f"{cell['benchmark']}:{cell['mechanism']}:250",
        )
        with ServeDaemon(0, max_pending=1) as daemon:
            summary = run_swarm_sync(
                "127.0.0.1",
                daemon.port,
                requests=4,
                concurrency=4,
                cells=cells,
                zipf_s=0.0,
            )
            assert summary["errors"] == 0
            assert summary["dropped"] == 0
            # At least one distinct cell found the in-flight table full
            # and was explicitly rejected, not dropped.
            assert summary["throttled"] >= 1

    def test_lone_miss_dispatches_at_once(self, daemon):
        # No batching window: an idle executor takes the cell at once
        # (a 5 ms window made this stage at least 5 ms).
        _, doc, trace_id = _post_traced(daemon.url, _body())
        assert doc["source"] == "executed"
        _, raw = _get(daemon.url, f"/trace/{trace_id}")
        stages = {
            s["stage"]: s["duration_ms"] for s in json.loads(raw)["stages"]
        }
        assert stages["batch_assembly"] < 2.5, stages

    def test_cells_queued_behind_a_busy_executor_leave_together(
        self, monkeypatch
    ):
        # Cell A holds the one executor for 400 ms; B and C, sent while
        # it runs, queue and then leave as one batch.
        monkeypatch.setenv("REPRO_SERVE_INJECT_DELAY", "gaussian:lmi:400")
        with ServeDaemon(0, workers=1) as daemon:
            sources = []

            def fire(body):
                sources.append(_post(daemon.url, body)[1]["source"])

            first = threading.Thread(target=fire, args=(_body(),))
            first.start()
            # A is in flight and no longer queued: its batch has left.
            _wait_until(lambda: daemon.stats_snapshot()["inflight"] == 1)
            _wait_until(lambda: daemon.stats_snapshot()["queue_depth"] == 0)
            rest = [
                threading.Thread(target=fire, args=(_body(mechanism=m),))
                for m in ("baseline", "baggy")
            ]
            for thread in rest:
                thread.start()
            for thread in [first, *rest]:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert sources == ["executed"] * 3
            snapshot = daemon.stats_snapshot()
            assert snapshot["batches"] == 2
            assert snapshot["batch_cells"] == 3

    def test_zero_drop_under_concurrency(self):
        with ServeDaemon(0) as daemon:
            summary = run_swarm_sync(
                "127.0.0.1",
                daemon.port,
                requests=300,
                concurrency=100,
                population=8,
                seed=11,
            )
            assert summary["errors"] == 0
            assert summary["dropped"] == 0
            assert summary["ok"] == 300
            # The zipf mix means far fewer executions than requests.
            assert summary["by_source"].get("executed", 0) <= 8

    def test_disk_cache_shared_across_daemon_restarts(self):
        with tempfile.TemporaryDirectory() as cache_dir:
            with ServeDaemon(0, cache_dir=cache_dir) as daemon:
                _, cold = _post(daemon.url, _body())
                assert cold["source"] == "executed"
            with ServeDaemon(0, cache_dir=cache_dir) as daemon:
                _, warm = _post(daemon.url, _body())
                assert warm["source"] == "disk"
                assert warm["cycles"] == cold["cycles"]
                assert warm["stats"] == cold["stats"]

    def test_clean_shutdown_leaves_no_threads(self):
        before = {t.name for t in threading.enumerate()}
        daemon = ServeDaemon(0).start()
        _post(daemon.url, _body())
        daemon.stop()
        leftover = {
            t.name
            for t in threading.enumerate()
            if t.name.startswith("repro-serve")
        } - before
        assert not leftover


# ----------------------------------------------------------------------
# Request forensics: trace header, waterfalls, logs, slow capture


def _post_traced(url: str, body: bytes, headers=None):
    """(status, body document, trace-id header) for one simulate."""
    request = urllib.request.Request(
        url + "/v1/simulate", data=body, headers=headers or {}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return (
            response.status,
            json.loads(response.read()),
            response.headers.get(TRACE_HEADER),
        )


class TestRequestForensics:
    @pytest.fixture(autouse=True)
    def _fresh_diagnostics(self):
        """Empty global trace/log stores so cross-test records from the
        process-wide singletons never bleed into assertions."""
        from repro.telemetry.log import LOG
        from repro.telemetry.tracectx import TRACES

        TRACES.clear()
        LOG.clear()
        yield
        TRACES.clear()
        LOG.clear()

    def test_every_response_carries_a_trace_header(self, daemon):
        seen = set()
        for salt in range(3):
            status, doc, trace_id = _post_traced(
                daemon.url, _body(seed_salt=salt)
            )
            assert status == 200
            assert trace_id and _TRACE_ID_RE.match(trace_id)
            seen.add(trace_id)
            # Header only — the body stays on the engine-equivalence
            # contract, no trace id inside.
            assert "rtx-" not in json.dumps(doc)
        assert len(seen) == 3
        # Cache hits are traced too (memory path).
        _, doc, hit_id = _post_traced(daemon.url, _body(seed_salt=0))
        assert doc["source"] == "memory"
        assert hit_id and hit_id not in seen

    def test_waterfall_sums_to_total_within_tolerance(self, daemon):
        _, doc, trace_id = _post_traced(daemon.url, _body())
        status, raw = _get(daemon.url, f"/trace/{trace_id}")
        assert status == 200
        trace = json.loads(raw)
        assert trace["trace_id"] == trace_id
        assert trace["complete"] is True
        stages = {s["stage"]: s["duration_ms"] for s in trace["stages"]}
        for expected in ("admission", "queue_wait", "sim", "serialize"):
            assert expected in stages, sorted(stages)
        total = trace["total_ms"]
        stage_sum = sum(stages.values())
        # Headline criterion is 10%; the synthetic unattributed stage
        # makes it exact by construction.
        assert abs(stage_sum - total) <= 0.10 * total
        assert stage_sum == pytest.approx(total, abs=0.01)
        # The trace covers through serialization, so it can only be
        # longer than the pre-serialize elapsed_ms in the body.
        assert total >= doc["elapsed_ms"] * 0.5

    def test_trace_list_and_unknown_trace_404(self, daemon):
        _, _, trace_id = _post_traced(daemon.url, _body())
        status, raw = _get(daemon.url, "/trace")
        listing = json.loads(raw)
        assert status == 200
        assert listing["schema"] == "repro.telemetry.trace-list/v1"
        assert any(
            t["trace_id"] == trace_id for t in listing["traces"]
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(daemon.url, "/trace/rtx-0000000000000000")
        assert info.value.code == 404

    def test_coalesced_request_gets_its_own_trace(self, monkeypatch):
        # Pin the executed cell for ~80ms so the followers reliably
        # find it in flight and coalesce rather than hit the cache.
        monkeypatch.setenv(
            "REPRO_SERVE_INJECT_DELAY", "gaussian:lmi:80"
        )
        with ServeDaemon(0) as daemon:
            results = []

            def fire():
                results.append(_post_traced(daemon.url, _body()))

            threads = [
                threading.Thread(target=fire) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            sources = [doc["source"] for _, doc, _ in results]
            assert sources.count("executed") == 1
            assert sources.count("coalesced") >= 1
            ids = [tid for _, _, tid in results]
            assert len(set(ids)) == 4  # followers get their own ids
            primary_id = next(
                tid for _, doc, tid in results
                if doc["source"] == "executed"
            )
            follower = next(
                (doc, tid) for _, doc, tid in results
                if doc["source"] == "coalesced"
            )
            _, raw = _get(daemon.url, f"/trace/{follower[1]}")
            trace = json.loads(raw)
            stage_names = [s["stage"] for s in trace["stages"]]
            assert "coalesce_wait" in stage_names
            assert trace["attrs"]["coalesced_with"] == primary_id

    def test_logs_endpoint_and_slow_capture(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_SERVE_INJECT_DELAY", "gaussian:lmi:30"
        )
        with ServeDaemon(0, slow_ms=5.0) as daemon:
            _, doc, trace_id = _post_traced(daemon.url, _body())
            assert doc["source"] == "executed"
            status, raw = _get(daemon.url, "/logs?level=warning")
            body = json.loads(raw)
            assert status == 200
            slow = [
                r for r in body["records"]
                if r["event"] == "slow_request"
            ]
            assert slow, body
            assert slow[-1]["trace_id"] == trace_id
            assert slow[-1]["elapsed_ms"] >= 30.0
            # The injected delay shows up as its own waterfall stage.
            _, raw = _get(daemon.url, f"/trace/{trace_id}")
            stages = {
                s["stage"]: s["duration_ms"]
                for s in json.loads(raw)["stages"]
            }
            assert stages.get("inject_delay", 0.0) >= 25.0
            # ...and the capture reaches /stats for repro report.
            snapshot = daemon.stats_snapshot()
            captured = snapshot["slow_requests"]
            assert captured and captured[-1]["trace_id"] == trace_id
            # Filtering by trace reconstructs this request's story.
            _, raw = _get(daemon.url, f"/logs?trace={trace_id}")
            assert json.loads(raw)["count"] >= 1

    def test_stats_carry_per_stage_quantiles(self, daemon):
        _post(daemon.url, _body())
        # The daemon records stage histograms after it sends the
        # response, so poll until they land.
        expected_stages = ("admission", "sim", "serialize")
        deadline = time.monotonic() + 5.0
        while True:
            stages = daemon.stats_snapshot()["stages"]
            if all(name in stages for name in expected_stages):
                break
            assert time.monotonic() < deadline, sorted(stages)
            time.sleep(0.01)
        for expected in expected_stages:
            assert expected in stages
            block = stages[expected]
            assert block["count"] >= 1
            assert block["p99"] >= block["p50"] >= 0.0

    def test_sub_millisecond_stages_keep_their_resolution(self):
        # On the shared 1 ms-first latency ladder this read p50 0.5 ms.
        daemon = ServeDaemon(0)
        for _ in range(20):
            daemon._observe_stage("admission", 40e-6)
        block = daemon.stats_snapshot()["stages"]["admission"]
        assert block["count"] == 20
        assert block["p50"] < 0.1, block

    def test_loadgen_reports_slowest_trace_ids(self):
        with ServeDaemon(0) as daemon:
            summary = run_swarm_sync(
                "127.0.0.1", daemon.port,
                requests=12, concurrency=4,
                cells=build_cells(3, seed=5),
            )
            slowest = summary["slowest"]
            assert slowest, summary
            assert all(
                _TRACE_ID_RE.match(entry["trace_id"])
                for entry in slowest
            )
            # Sorted slowest-first, and every id names a real trace.
            elapsed = [entry["elapsed_ms"] for entry in slowest]
            assert elapsed == sorted(elapsed, reverse=True)
            _, raw = _get(
                daemon.url, f"/trace/{slowest[0]['trace_id']}"
            )
            assert json.loads(raw)["complete"] is True
            assert summary["failed"] == []

    def test_no_tracing_disables_header_and_trace_store(self):
        with ServeDaemon(0, tracing=False) as daemon:
            status, doc, trace_id = _post_traced(daemon.url, _body())
            assert status == 200
            assert trace_id is None
            status, raw = _get(daemon.url, "/trace")
            assert json.loads(raw)["count"] == 0
            # Still serves results identically.
            assert doc["source"] == "executed"


# ----------------------------------------------------------------------
# Load generator internals


class TestLoadgen:
    def test_build_cells_deterministic_and_distinct(self):
        a = build_cells(12, seed=9)
        b = build_cells(12, seed=9)
        assert a == b
        keys = {
            (c["benchmark"], c["mechanism"], c["seed_salt"]) for c in a
        }
        assert len(keys) == 12

    def test_zipf_schedule_is_skewed_and_deterministic(self):
        picks = zipf_schedule(1000, 16, s=1.2, seed=4)
        assert picks == zipf_schedule(1000, 16, s=1.2, seed=4)
        assert all(0 <= p < 16 for p in picks)
        # Rank-0 must dominate any tail cell under zipf weighting.
        assert picks.count(0) > picks.count(15)
