"""One HTTP plane, two mounts.

The experiments CLI's :class:`ObservabilityServer` and the ``repro
serve`` daemon both serve from :class:`repro.telemetry.server.HttpPlane`
and mount the same observability routes.  Every test here runs against
both, so a difference between the planes fails here first:

* the shared routes answer with the same statuses and content types,
  and ``/healthz`` with the same document;
* request bounds (431), ``/logs`` filters and SSE streams behave alike;
* shutdown closes idle keep-alive connections and dropped SSE clients
  release their connections.
"""

from __future__ import annotations

import http.client
import json
import socket
import time

import pytest

from repro.serve import ServeDaemon
from repro.telemetry import ProgressBoard
from repro.telemetry.log import LEVELS, LOG
from repro.telemetry.server import PROMETHEUS_CONTENT_TYPE, ObservabilityServer

JSON_CONTENT_TYPE = "application/json; charset=utf-8"


@pytest.fixture(params=["cli", "daemon"])
def plane(request):
    """A started plane: the CLI's server or a serve daemon."""
    if request.param == "cli":
        server = ObservabilityServer(0, board=ProgressBoard()).start()
    else:
        server = ServeDaemon(0).start()
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture()
def fresh_log():
    LOG.clear()
    yield LOG
    LOG.clear()


def _request(port: int, method: str, path: str):
    """(status, content type, body) of one request on a new connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read(),
        )
    finally:
        conn.close()


def _first_event(port: int, path: str):
    """(event name, decoded data) of an SSE stream's first frame."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"
        event = response.readline().decode("utf-8").strip()
        data = response.readline().decode("utf-8")
        return event, json.loads(data[len("data: "):])
    finally:
        conn.close()


#: (method, path, status, content type) every plane answers alike.
SHARED_ANSWERS = [
    ("GET", "/metrics", 200, PROMETHEUS_CONTENT_TYPE),
    ("GET", "/healthz", 200, JSON_CONTENT_TYPE),
    ("GET", "/progress?jobs=2", 200, JSON_CONTENT_TYPE),
    ("GET", "/progress?jobs=x", 400, JSON_CONTENT_TYPE),
    ("GET", "/trace", 200, JSON_CONTENT_TYPE),
    ("GET", "/trace/rtx-0000000000000000", 404, JSON_CONTENT_TYPE),
    ("GET", "/logs?limit=x", 400, JSON_CONTENT_TYPE),
    ("GET", "/nope", 404, JSON_CONTENT_TYPE),
    ("POST", "/metrics", 405, JSON_CONTENT_TYPE),
]


class TestSharedRoutes:
    def test_shared_routes_answer_alike(self, plane):
        for method, path, status, content_type in SHARED_ANSWERS:
            got_status, got_type, _ = _request(plane.port, method, path)
            assert (got_status, got_type) == (status, content_type), (
                method, path,
            )
        _, _, body = _request(plane.port, "GET", "/healthz")
        health = json.loads(body)
        assert set(health) == {"status", "uptime_seconds", "run", "metrics"}
        assert set(health["run"]) == {
            "name", "status", "total", "done", "failed",
        }
        _, _, body = _request(plane.port, "GET", "/nope")
        endpoints = json.loads(body)["endpoints"]
        assert {"/metrics", "/progress/stream", "/trace/<id>"} <= set(
            endpoints
        )

    def test_progress_stream_first_frame(self, plane):
        event, snapshot = _first_event(plane.port, "/progress/stream")
        assert event == "event: progress"
        assert snapshot["schema"] == "repro.telemetry.progress/v1"

    def test_oversized_header_is_431(self, plane):
        with socket.create_connection(("127.0.0.1", plane.port), 5) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n"
                b"X-Padding: " + b"a" * 70_000 + b"\r\n\r\n"
            )
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"431", status_line

    def test_logs_level_is_decoded_and_validated(self, plane, fresh_log):
        fresh_log.info("boring")
        fresh_log.warning("spicy")
        status, _, body = _request(
            plane.port, "GET", "/logs?level=warn%69ng"
        )
        assert status == 200
        assert [r["event"] for r in json.loads(body)["records"]] == [
            "spicy"
        ]
        status, _, body = _request(plane.port, "GET", "/logs?level=bogus")
        assert status == 400
        assert json.loads(body)["levels"] == list(LEVELS)


class TestShutdown:
    def test_idle_keep_alive_client_does_not_hang_stop(self, plane):
        conn = http.client.HTTPConnection("127.0.0.1", plane.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.getheader("Connection") == "keep-alive"
            thread = plane._thread
            started = time.monotonic()
            plane.stop(timeout=5)
            assert not thread.is_alive()
            assert time.monotonic() - started < 5
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "kind, path",
        [("cli", "/progress/stream"), ("daemon", "/stats/stream")],
        ids=["cli", "daemon"],
    )
    def test_dropped_sse_client_closes_its_connection(self, kind, path):
        """A client that vanishes mid-stream frees its connection
        within about one SSE interval."""
        server = (
            ObservabilityServer(0, board=ProgressBoard())
            if kind == "cli"
            else ServeDaemon(0)
        ).start()
        try:
            sock = socket.create_connection(("127.0.0.1", server.port), 5)
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()
            )
            assert sock.recv(4096)  # headers (+ first frame) arrived
            assert server._plane.open_connections == 1
            sock.close()
            deadline = time.monotonic() + 5.0
            while server._plane.open_connections and (
                time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert server._plane.open_connections == 0
        finally:
            server.stop()


def test_stats_stream_first_frame():
    with ServeDaemon(0) as daemon:
        event, stats = _first_event(daemon.port, "/stats/stream")
    assert event == "event: stats"
    assert stats["schema"] == "repro.serve-stats/v1"
