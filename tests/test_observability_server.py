"""Tests for the live observability plane: progress board, HTTP
server, SSE stream, ``repro top``.

Locks the contracts DESIGN.md ("Observability" → "Live plane")
promises:

* the :class:`ProgressBoard` job state machine (queued → running →
  done/failed), EWMA/ETA math, and the ``/progress`` snapshot schema;
* endpoint behavior — status codes, content types, ``/metrics``
  passing the Prometheus exposition lint, 404/400 paths;
* the SSE stream emits ``event: progress`` frames while a real
  (small) job grid runs;
* shutdown joins every thread the server created — no dangling
  threads after :meth:`ObservabilityServer.stop`;
* the server is **read-only** over telemetry: ``--metrics``/``--trace``
  exports are byte-identical with the server polling mid-run;
* the ``repro top`` renderer and its exit codes.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import format_top, main as cli_main
from repro.experiments.engine import SimJob, run_sim_jobs
from repro.telemetry import (
    PROGRESS,
    PROGRESS_SCHEMA,
    ProgressBoard,
    capture,
    chrome_trace,
    dumps,
    lint_prometheus,
    metrics_json,
)
from repro.telemetry.progress import DONE, FAILED, QUEUED, RUNNING
from repro.telemetry.server import PROMETHEUS_CONTENT_TYPE, ObservabilityServer


def _get(url: str, timeout: float = 5.0):
    """GET *url*; returns (status, content_type, body_bytes)."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (
            response.status,
            response.headers.get("Content-Type"),
            response.read(),
        )


def _small_grid():
    return [
        SimJob(
            benchmark=benchmark,
            mechanism=mechanism,
            warps=2,
            instructions_per_warp=120,
        )
        for benchmark in ("gaussian", "needle")
        for mechanism in ("baseline", "lmi")
    ]


# ----------------------------------------------------------------------
# Progress board


class TestProgressBoard:
    def test_lifecycle_counts(self):
        board = ProgressBoard()
        assert board.job_queued("b", "m") is None  # inactive: no-op
        board.begin_run("unit", meta={"fast": True})
        ids = [board.job_queued("b", f"m{i}") for i in range(3)]
        assert all(ids)
        snap = board.snapshot()
        assert snap["run"]["queued"] == 3
        board.job_running(ids[0])
        board.job_finished(ids[0])
        board.job_running(ids[1])
        board.job_finished(ids[1], ok=False)
        snap = board.snapshot()
        assert snap["run"]["done"] == 1
        assert snap["run"]["failed"] == 1
        assert snap["run"]["queued"] == 1
        states = {j["id"]: j["state"] for j in snap["jobs"]}
        assert states[ids[0]] == DONE
        assert states[ids[1]] == FAILED
        assert states[ids[2]] == QUEUED
        board.end_run()
        assert not board.active
        assert board.snapshot()["run"]["status"] == "done"

    def test_transitions_are_idempotent_and_null_safe(self):
        board = ProgressBoard()
        board.begin_run("unit")
        job_id = board.job_queued("b", "m")
        board.job_running(None)
        board.job_finished(None)
        board.job_running("no-such-id")
        board.job_running(job_id)
        board.job_running(job_id)  # second transition ignored
        assert board.snapshot()["run"]["running"] == 1
        board.job_finished(job_id)
        board.job_finished(job_id)  # terminal states are sticky
        assert board.snapshot()["run"]["done"] == 1

    def test_ewma_and_eta(self):
        board = ProgressBoard()
        board.begin_run("unit")
        ids = [board.job_queued("b", f"m{i}") for i in range(4)]
        for job_id in ids[:2]:
            board.job_running(job_id)
            board.job_finished(job_id)
        run = board.snapshot()["run"]
        assert run["ewma_job_seconds"] is not None
        assert run["ewma_job_seconds"] >= 0
        # 2 queued, 0 running => eta = ewma * 2 / 1
        assert run["eta_seconds"] == pytest.approx(
            run["ewma_job_seconds"] * 2, rel=0.2, abs=1e-3
        )
        for job_id in ids[2:]:
            board.job_running(job_id)
            board.job_finished(job_id)
        assert board.snapshot()["run"]["eta_seconds"] == 0.0

    def test_retry_parks_job_back_in_queue(self):
        board = ProgressBoard()
        board.begin_run("unit")
        job_id = board.job_queued("b", "m")
        board.job_running(job_id)
        board.job_retry(job_id)
        snap = board.snapshot()
        assert snap["run"]["retries"] == 1
        assert snap["run"]["queued"] == 1 and snap["run"]["running"] == 0
        assert snap["jobs"][0]["retries"] == 1

    def test_snapshot_schema_and_job_bound(self):
        board = ProgressBoard()
        board.begin_run("unit")
        for index in range(10):
            board.job_queued("bench", f"m{index}")
        snap = board.snapshot(max_jobs=4)
        assert snap["schema"] == PROGRESS_SCHEMA
        assert snap["run"]["total"] == 10
        assert len(snap["jobs"]) == 4
        # All queued: queue order, next-to-run first.
        assert snap["jobs"][0]["id"].startswith("0:")
        assert set(snap["violations"]) == {
            "oracle.violations", "mechanism.detections", "ec.faults",
        }
        json.dumps(snap)  # JSON-serializable end to end
        # Interest order: running jobs lead even when a truncated
        # list would otherwise be all queued rows.
        board.job_running("5:bench:m5")
        board.job_running("9:bench:m9")
        board.job_finished("9:bench:m9")
        ids = [j["id"] for j in board.snapshot(max_jobs=4)["jobs"]]
        assert ids == ["5:bench:m5", "0:bench:m0", "1:bench:m1",
                       "2:bench:m2"]
        # Finished jobs trail, newest-first, once the list has room.
        ids = [j["id"] for j in board.snapshot()["jobs"]]
        assert ids[0] == "5:bench:m5" and ids[-1] == "9:bench:m9"

    def test_phase_recording_is_always_on(self):
        board = ProgressBoard()  # never begun: still records phases
        board.record_phase("sim", 1.0)
        board.record_phases({"sim": 0.5, "compile": 0.25})
        assert board.phase_totals() == {"sim": 1.5, "compile": 0.25}
        snap = board.snapshot()
        assert snap["phases"]["sim"] == {"seconds": 1.5, "count": 2}


# ----------------------------------------------------------------------
# Endpoints


@pytest.fixture()
def server():
    board = ProgressBoard()
    with capture() as t:
        t.registry.counter("sim.instructions", trace="unit").inc(42)
        srv = ObservabilityServer(0, telemetry=t, board=board)
        srv.start()
        try:
            yield srv
        finally:
            srv.stop()


class TestEndpoints:
    def test_port_zero_binds_ephemeral(self, server):
        assert server.port != 0
        assert server.url == f"http://127.0.0.1:{server.port}"
        assert server.running

    def test_metrics_lints_clean(self, server):
        status, content_type, body = _get(server.url + "/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "repro_sim_instructions" in text
        assert lint_prometheus(text) == []

    def test_healthz(self, server):
        status, content_type, body = _get(server.url + "/healthz")
        assert status == 200
        assert content_type.startswith("application/json")
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["uptime_seconds"] >= 0
        assert doc["metrics"] >= 1
        assert set(doc["run"]) == {
            "name", "status", "total", "done", "failed",
        }

    def test_progress_snapshot_and_jobs_param(self, server):
        server.board.begin_run("unit")
        for index in range(6):
            server.board.job_queued("bench", f"m{index}")
        status, content_type, body = _get(
            server.url + "/progress?jobs=2"
        )
        assert status == 200
        assert content_type.startswith("application/json")
        doc = json.loads(body)
        assert doc["schema"] == PROGRESS_SCHEMA
        assert doc["run"]["total"] == 6
        assert len(doc["jobs"]) == 2

    def test_bad_jobs_param_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/progress?jobs=many")
        assert excinfo.value.code == 400

    def test_unknown_path_is_404_with_directory(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404
        doc = json.loads(excinfo.value.read())
        assert "/metrics" in doc["endpoints"]

    def test_start_twice_raises(self, server):
        with pytest.raises(RuntimeError):
            server.start()


# ----------------------------------------------------------------------
# Forensics endpoints: /trace, /logs, OpenMetrics negotiation


class TestForensicsEndpoints:
    @pytest.fixture(autouse=True)
    def _fresh_diagnostics(self):
        from repro.telemetry.log import LOG
        from repro.telemetry.tracectx import TRACES

        TRACES.clear()
        LOG.clear()
        yield
        TRACES.clear()
        LOG.clear()

    def test_trace_endpoints(self, server):
        from repro.telemetry.tracectx import TRACES

        TRACES.begin("rtx-" + "5" * 16, source="executed")
        TRACES.stage("rtx-" + "5" * 16, "sim", 0.010)
        TRACES.finish("rtx-" + "5" * 16, 0.012)
        status, content_type, body = _get(
            server.url + "/trace/rtx-" + "5" * 16
        )
        assert status == 200
        assert content_type.startswith("application/json")
        doc = json.loads(body)
        assert doc["complete"] is True
        assert [s["stage"] for s in doc["stages"]] == [
            "sim", "unattributed",
        ]
        status, _, body = _get(server.url + "/trace")
        listing = json.loads(body)
        assert listing["schema"] == "repro.telemetry.trace-list/v1"
        assert listing["count"] == 1
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/trace/rtx-" + "6" * 16)
        assert excinfo.value.code == 404

    def test_logs_endpoint_filters(self, server):
        from repro.telemetry.log import LOG

        LOG.info("boring")
        LOG.warning("spicy", trace_id="rtx-" + "7" * 16)
        status, _, body = _get(server.url + "/logs?level=warning")
        doc = json.loads(body)
        assert status == 200
        assert [r["event"] for r in doc["records"]] == ["spicy"]
        status, _, body = _get(
            server.url + "/logs?trace=rtx-" + "7" * 16
        )
        assert json.loads(body)["count"] == 1
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/logs?limit=many")
        assert excinfo.value.code == 400

    def test_404_directory_lists_forensics_endpoints(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        doc = json.loads(excinfo.value.read())
        assert "/trace/<id>" in doc["endpoints"]
        assert "/logs" in doc["endpoints"]

    def test_openmetrics_negotiation_carries_exemplars(self):
        from repro.telemetry.server import OPENMETRICS_CONTENT_TYPE

        board = ProgressBoard()
        with capture() as t:
            hist = t.registry.histogram(
                "serve.latency_seconds", plane="unit"
            )
            hist.observe(0.25, trace_id="rtx-" + "8" * 16)
            with ObservabilityServer(0, telemetry=t, board=board) as srv:
                request = urllib.request.Request(
                    srv.url + "/metrics",
                    headers={"Accept": "application/openmetrics-text"},
                )
                with urllib.request.urlopen(request, timeout=5) as resp:
                    assert (
                        resp.headers.get("Content-Type")
                        == OPENMETRICS_CONTENT_TYPE
                    )
                    text = resp.read().decode("utf-8")
                assert '# {trace_id="rtx-' in text
                assert text.endswith("# EOF\n")
                assert text.count("# EOF") == 1
                # The classic exposition stays trace-free.
                _, content_type, body = _get(srv.url + "/metrics")
                assert content_type == PROMETHEUS_CONTENT_TYPE
                assert "rtx-" not in body.decode("utf-8")


# ----------------------------------------------------------------------
# SSE stream


class TestSseStream:
    def test_stream_emits_progress_events_during_grid(self):
        # The engine reports to the process-global board, so the
        # server must watch that one to see the grid's transitions.
        board = PROGRESS
        with capture() as t:
            with ObservabilityServer(0, telemetry=t, board=board) as srv:
                board.begin_run("sse-grid")
                events = []
                first_event = threading.Event()

                def consume():
                    # Exits on the terminal status frame end_run()
                    # forces, so the short grid cannot outrun us.
                    request = urllib.request.Request(
                        srv.url + "/progress/stream"
                    )
                    with urllib.request.urlopen(
                        request, timeout=10
                    ) as stream:
                        while True:
                            line = stream.readline()
                            if not line:
                                return
                            if not line.startswith(b"event: progress"):
                                continue
                            payload = stream.readline()
                            event = json.loads(
                                payload.decode()[len("data: "):]
                            )
                            events.append(event)
                            first_event.set()
                            if event["run"]["status"] in (
                                "done", "failed",
                            ):
                                return

                consumer = threading.Thread(target=consume, daemon=True)
                consumer.start()
                try:
                    # The stream's opening frame arrives before any job
                    # runs — the grid below is observed.
                    assert first_event.wait(5)
                    results = run_sim_jobs(_small_grid(), n_jobs=1)
                finally:
                    board.end_run()
                consumer.join(10)
                assert not consumer.is_alive()
        assert len(results) == 4
        assert len(events) >= 2
        assert all(e["schema"] == PROGRESS_SCHEMA for e in events)
        # The stream saw the run progress: done counts are monotone
        # and the grid finished at least one job while we watched.
        dones = [e["run"]["done"] for e in events]
        assert dones == sorted(dones)
        assert any(e["run"]["total"] == 4 for e in events)

    def test_concurrent_sse_clients_all_observe_run(self):
        """Several simultaneous SSE consumers each see the whole run
        (streams sharing the plane's loop must not starve each other)."""
        n_clients = 6
        board = PROGRESS
        with capture() as t:
            with ObservabilityServer(0, telemetry=t, board=board) as srv:
                board.begin_run("sse-fanout")
                finals = [None] * n_clients
                ready = threading.Barrier(n_clients + 1, timeout=10)

                def consume(slot):
                    request = urllib.request.Request(
                        srv.url + "/progress/stream"
                    )
                    with urllib.request.urlopen(
                        request, timeout=10
                    ) as stream:
                        ready.wait()
                        while True:
                            line = stream.readline()
                            if not line:
                                return
                            if not line.startswith(b"event: progress"):
                                continue
                            payload = stream.readline()
                            event = json.loads(
                                payload.decode()[len("data: "):]
                            )
                            finals[slot] = event
                            if event["run"]["status"] in (
                                "done", "failed",
                            ):
                                return

                consumers = [
                    threading.Thread(target=consume, args=(slot,), daemon=True)
                    for slot in range(n_clients)
                ]
                for consumer in consumers:
                    consumer.start()
                try:
                    ready.wait()  # every client is connected + streaming
                    results = run_sim_jobs(_small_grid(), n_jobs=1)
                finally:
                    board.end_run()
                for consumer in consumers:
                    consumer.join(10)
                assert not any(c.is_alive() for c in consumers)
        assert len(results) == 4
        # Every client independently observed the terminal frame with
        # the full job count — nobody got a torn or partial stream.
        assert all(f is not None for f in finals)
        assert all(f["run"]["status"] == "done" for f in finals)
        assert all(f["run"]["total"] == 4 for f in finals)
        assert all(f["run"]["done"] == 4 for f in finals)


# ----------------------------------------------------------------------
# Shutdown discipline


class TestShutdown:
    def test_stop_leaves_no_dangling_threads(self):
        baseline = set(threading.enumerate())
        board = ProgressBoard()
        srv = ObservabilityServer(0, board=board).start()
        # Park an SSE client so a stream is open at stop().
        opened = threading.Event()

        def park():
            try:
                request = urllib.request.Request(
                    srv.url + "/progress/stream"
                )
                with urllib.request.urlopen(request, timeout=10) as s:
                    opened.set()
                    while s.readline():
                        pass
            except (OSError, urllib.error.URLError):
                opened.set()

        client = threading.Thread(target=park, daemon=True)
        client.start()
        assert opened.wait(5)
        srv.stop()
        assert not srv.running
        client.join(5)
        leaked = [
            t for t in threading.enumerate()
            if t not in baseline and t is not client and t.is_alive()
        ]
        assert leaked == [], f"dangling threads: {leaked}"

    def test_stop_is_idempotent(self):
        srv = ObservabilityServer(0).start()
        srv.stop()
        srv.stop()  # second stop is a no-op
        assert not srv.running


# ----------------------------------------------------------------------
# Read-only contract: byte-identical exports with the server watching


class TestByteIdentity:
    def _run_and_export(self, with_server: bool):
        with capture() as t:
            poller_stop = threading.Event()
            srv = None
            poller = None
            if with_server:
                # Watch the global board the engine reports to, so
                # live job state is really being snapshotted mid-run.
                board = PROGRESS
                srv = ObservabilityServer(0, telemetry=t, board=board)
                srv.start()
                board.begin_run("identity")

                def poll():
                    while not poller_stop.is_set():
                        try:
                            _get(srv.url + "/metrics", timeout=2)
                            _get(srv.url + "/progress", timeout=2)
                        except (OSError, urllib.error.URLError):
                            pass
                        poller_stop.wait(0.01)

                poller = threading.Thread(target=poll, daemon=True)
                poller.start()
            try:
                run_sim_jobs(_small_grid(), n_jobs=1)
                metrics = dumps(
                    metrics_json(t.registry, recorder=t.recorder)
                )
                trace = dumps(chrome_trace(t.tracer, t.recorder))
            finally:
                poller_stop.set()
                if poller is not None:
                    poller.join(5)
                if srv is not None:
                    srv.stop()
                if with_server:
                    PROGRESS.end_run()
        return metrics, trace

    def test_exports_identical_with_server_polling(self):
        plain = self._run_and_export(with_server=False)
        observed = self._run_and_export(with_server=True)
        assert plain[0] == observed[0]
        assert plain[1] == observed[1]


# ----------------------------------------------------------------------
# repro top


class TestReproTop:
    def _snapshot(self):
        return {
            "schema": PROGRESS_SCHEMA,
            "active": True,
            "run": {
                "name": "fig12", "status": "running",
                "meta": {"fast": True, "jobs": 4},
                "total": 16, "queued": 3, "running": 4,
                "done": 9, "failed": 0, "retries": 1,
                "uptime_seconds": 12.5, "ewma_job_seconds": 2.25,
                "jobs_per_second": 0.72, "eta_seconds": 21.9,
                "started_at": "2026-01-01T00:00:00Z",
            },
            "phases": {
                "sim": {"seconds": 30.0, "count": 9},
                "compile": {"seconds": 3.0, "count": 9},
            },
            "violations": {"oracle.violations": 2, "ec.faults": 0},
            "jobs": [
                {
                    "id": "8:bfs:lmi", "benchmark": "bfs",
                    "mechanism": "lmi", "state": RUNNING,
                    "phase": "sim", "retries": 1, "wall_seconds": 1.5,
                },
                {
                    "id": "7:bfs:baggy", "benchmark": "bfs",
                    "mechanism": "baggy", "state": QUEUED,
                    "phase": "", "retries": 0, "wall_seconds": None,
                },
            ],
        }

    def test_format_top_renders_everything(self):
        text = format_top(self._snapshot(), limit=12)
        assert "run fig12 — running" in text
        assert "9/16 done" in text
        assert "eta 21.9s" in text
        assert "sim 30.0s (91%)" in text
        assert "oracle.violations 2" in text
        assert "bfs/lmi (retry 1)" in text
        assert "running" in text and "queued" in text

    def test_format_top_limits_job_rows(self):
        snapshot = self._snapshot()
        snapshot["jobs"] = snapshot["jobs"] * 6  # 12 rows
        text = format_top(snapshot, limit=3)
        assert "... 9 more job(s)" in text

    def test_top_once_against_live_server(self, capsys):
        board = ProgressBoard()
        board.begin_run("live", meta={"jobs": 2})
        job_id = board.job_queued("bfs", "lmi")
        board.job_running(job_id)
        with ObservabilityServer(0, board=board) as srv:
            assert cli_main([
                "top", "--once", "--port", str(srv.port),
            ]) == 0
        printed = capsys.readouterr().out
        assert "run live — running" in printed
        assert "bfs/lmi" in printed

    def test_top_once_unreachable_exits_one(self, capsys):
        # Bind-then-close guarantees a dead port.
        srv = ObservabilityServer(0).start()
        port = srv.port
        srv.stop()
        assert cli_main(["top", "--once", "--port", str(port)]) == 1
        assert "cannot reach" in capsys.readouterr().out

    def test_top_usage_errors(self, capsys):
        assert cli_main(["top", "--bogus"]) == 2
        assert cli_main(["top", "--port"]) == 2
        assert cli_main(["top", "--port", "nope"]) == 2
        capsys.readouterr()
        assert cli_main(["top", "--once"]) == 2  # no server given
        assert capsys.readouterr().out == (
            "repro top: no server given — pass --url or --port\n"
        )
        assert cli_main(["top", "--help"]) == 0
        capsys.readouterr()


# ----------------------------------------------------------------------
# CLI wiring


class TestServeWiring:
    def test_experiments_serve_flag_validation(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig4", "--serve", "nope"]) == 2
        assert "argument --serve: invalid int value: 'nope'" in (
            capsys.readouterr().err
        )
        assert main(["fig4", "--serve", "70000"]) == 2
        assert "--serve port must be in [0, 65535]" in capsys.readouterr().err
        assert main(["fig4", "--serve"]) == 2
        assert "argument --serve: expected one argument" in (
            capsys.readouterr().err
        )

    def test_experiments_run_with_ephemeral_server(self, capsys):
        from repro.experiments.__main__ import main

        baseline = set(threading.enumerate())
        assert main(["fig4", "--fast", "--serve", "0"]) == 0
        printed = capsys.readouterr().out
        assert "observability server at http://127.0.0.1:" in printed
        leaked = [
            t for t in threading.enumerate()
            if t not in baseline and t.is_alive()
        ]
        assert leaked == [], f"dangling threads: {leaked}"
