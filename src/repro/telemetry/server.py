"""The one HTTP plane: an asyncio core and the read-only observability
routes every server in the repository mounts.

:class:`HttpPlane` parses bounded HTTP/1.1 requests, dispatches them on
a ``(method, path)`` route table and serves keep-alive connections.
Two planes are built on it: :class:`ObservabilityServer` (the
experiments CLI's ``--serve``) hosts only
:func:`observability_routes`, and the ``repro serve`` daemon
(:class:`~repro.serve.daemon.ServeDaemon`) mounts the same routes next
to its own.  The shared routes:

``GET /metrics``
    Prometheus text exposition (version 0.0.4) rendered from the
    **live** registry via
    :meth:`~repro.telemetry.registry.MetricsRegistry.to_prometheus` —
    the same renderer behind ``--metrics``, so a scrape mid-run and
    the final artifact agree on names/labels.  An ``Accept`` header
    naming ``application/openmetrics-text`` gets the OpenMetrics
    rendering with trace-id exemplars on histogram buckets; the
    classic exposition never carries trace ids.
``GET /healthz``
    Small JSON liveness document: status, uptime, run counts.
``GET /progress``
    JSON :meth:`~repro.telemetry.progress.ProgressBoard.snapshot`
    (``?jobs=N`` bounds the per-job list).
``GET /progress/stream``
    Server-Sent Events over the same snapshot (the SSE rule below).
    ``repro top`` polls the JSON endpoint instead, so it also works
    through one-shot proxies.
``GET /trace/<id>`` and ``GET /trace``
    One request waterfall from the process-global
    :data:`~repro.telemetry.tracectx.TRACES` store, or the recent
    list (``?limit=N``).
``GET /logs``
    The structured log ring (:data:`~repro.telemetry.log.LOG`) as
    JSON; ``?level=``, ``?trace=`` and ``?limit=`` filter.

Request bounds: a three-part request line, at most
:data:`MAX_HEADERS` header fields, every line at most
:data:`MAX_LINE_BYTES` (431 otherwise) and a body of at most
:data:`MAX_BODY_BYTES` (413).  An unknown path gets 404 with the
table's ``endpoints``; a known path with another method gets 405.

The SSE rule: every :data:`SSE_INTERVAL_SECONDS` a stream sends
``event: <name>`` with the document's JSON if it differs from the
last frame sent, otherwise a ``: keep-alive`` comment.  A stream ends
when the client hangs up (a pending one-byte read completes) or the
plane stops.

The observability routes are strictly **read-only** over telemetry
state: they never emit events, never create instruments, and
therefore cannot perturb the byte-identical ``--metrics``/``--trace``
contract (locked by ``tests/test_observability_server.py``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import time
from http import HTTPStatus
from typing import (
    Awaitable, Callable, Dict, List, Mapping, Optional, Tuple, Union,
)
from urllib.parse import parse_qs

from .log import LEVELS, LOG
from .progress import PROGRESS, ProgressBoard
from .registry import DIAG_REGISTRIES
from .runtime import TELEMETRY, Telemetry
from .tracectx import TRACES

#: Content type of the Prometheus exposition endpoint.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Content type of the OpenMetrics exposition (exemplar-bearing).
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: SSE cadence: one frame (document or keep-alive) per interval.
SSE_INTERVAL_SECONDS = 0.5

#: Request bounds (see the module docstring).  A simulate request
#: body is ~200 bytes; anything near the body bound is abuse, not a
#: workload.
MAX_HEADERS = 100
MAX_LINE_BYTES = 8192
MAX_BODY_BYTES = 1 << 20

_PHRASES = {status.value: status.phrase for status in HTTPStatus}


def wants_openmetrics(accept: Optional[str]) -> bool:
    """True when the ``Accept`` header asks for OpenMetrics."""
    return bool(accept) and "application/openmetrics-text" in accept


def render_metrics_text(
    telemetry: Optional[Telemetry] = None, *, openmetrics: bool = False
) -> str:
    """The live ``/metrics`` body: hub registry + diagnostic registries.

    One Prometheus text document rendered from *telemetry*'s registry
    (default: the global hub) followed by every
    :data:`~repro.telemetry.registry.DIAG_REGISTRIES` entry.  Each
    render is retried a few times: another thread may register a new
    instrument mid-iteration, and instruments are only ever added,
    never removed, so a retry always converges.

    With *openmetrics* the parts come from
    :meth:`~repro.telemetry.registry.MetricsRegistry.to_openmetrics`
    (exemplar-bearing); the per-part ``# EOF`` terminators are
    stripped and exactly one closes the composed document.
    """
    hub = telemetry if telemetry is not None else TELEMETRY

    def _render(registry) -> str:
        for _ in range(5):
            try:
                if openmetrics:
                    return registry.to_openmetrics()
                return registry.to_prometheus()
            except RuntimeError:
                continue
        return ""

    parts = [_render(hub.registry)]
    parts.extend(_render(diag) for diag in DIAG_REGISTRIES)
    if openmetrics:
        stripped = []
        for part in parts:
            lines = [
                line
                for line in part.splitlines()
                if line.strip() != "# EOF"
            ]
            stripped.append("\n".join(lines) + "\n" if lines else "")
        parts = stripped
    text = "".join(part for part in parts if part)
    if openmetrics:
        text += "# EOF\n"
    return text


# ----------------------------------------------------------------------
# The asyncio core


class HttpError(Exception):
    """Raised by the parser or a handler: answer ``{"error": message}``
    (plus any *fields*) with *status*."""

    def __init__(self, status: int, message: str, **fields: object) -> None:
        super().__init__(message)
        self.status = status
        self.fields = fields

    def response(self) -> "Response":
        return json_response({"error": str(self), **self.fields}, self.status)


@dataclasses.dataclass
class Request:
    """One parsed request; header names are lower-cased."""

    method: str
    path: str
    query: Dict[str, List[str]]
    headers: Dict[str, str]
    body: bytes
    keep_alive: bool

    def param(self, name: str) -> Optional[str]:
        """The first (percent-decoded) value of query parameter *name*."""
        values = self.query.get(name)
        return values[0] if values else None

    def int_param(self, name: str, default: int) -> int:
        raw = self.param(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise HttpError(400, f"{name} must be an integer") from None


@dataclasses.dataclass
class Response:
    """One complete reply; *on_sent* runs once its bytes are flushed."""

    status: int
    content_type: str
    body: bytes
    headers: Tuple[Tuple[str, str], ...] = ()
    on_sent: Optional[Callable[[], None]] = None


@dataclasses.dataclass
class EventStream:
    """A Server-Sent Events reply: *event* frames of *document()*."""

    event: str
    document: Callable[[], object]


Handler = Callable[[Request], Awaitable[Union[Response, EventStream]]]


def json_response(
    document: object,
    status: int = 200,
    headers: Tuple[Tuple[str, str], ...] = (),
) -> Response:
    body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
    return Response(status, "application/json; charset=utf-8", body, headers)


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """The next request on a connection; None on a clean EOF."""
    headers: Dict[str, str] = {}
    try:
        line = await reader.readline()
        if not line:
            return None
        if len(line) > MAX_LINE_BYTES:
            raise HttpError(431, "header line too long")
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(raw) > MAX_LINE_BYTES:
                raise HttpError(431, "header line too long")
            if len(headers) >= MAX_HEADERS:
                raise HttpError(431, "too many header fields")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
    except ValueError:  # a line longer than the stream's buffer limit
        raise HttpError(431, "header line too long") from None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, version = parts
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise HttpError(400, "invalid Content-Length") from None
    if length < 0:
        raise HttpError(400, "invalid Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    path, _, query = target.partition("?")
    connection = headers.get("connection", "").lower()
    return Request(
        method=method,
        path=path.rstrip("/") or "/",
        query=parse_qs(query) if query else {},
        headers=headers,
        body=body,
        keep_alive=(
            connection != "close"
            if version == "HTTP/1.1"
            else connection == "keep-alive"
        ),
    )


async def _send(
    writer: asyncio.StreamWriter, response: Response, keep_alive: bool
) -> None:
    head = (
        f"HTTP/1.1 {response.status} {_PHRASES[response.status]}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
    )
    for name, value in response.headers:
        head += f"{name}: {value}\r\n"
    writer.write((head + "\r\n").encode("latin-1") + response.body)
    await writer.drain()
    if response.on_sent is not None:
        response.on_sent()


async def _stream(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    stream: EventStream,
) -> None:
    """The SSE rule (module docstring) until the client hangs up."""
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Cache-Control: no-cache\r\n"
        b"Connection: close\r\n\r\n"
    )
    last = None
    while True:
        payload = json.dumps(stream.document(), sort_keys=True)
        if payload != last:
            frame = f"event: {stream.event}\ndata: {payload}\n\n"
            last = payload
        else:
            frame = ": keep-alive\n\n"
        writer.write(frame.encode("utf-8"))
        await writer.drain()
        try:
            await asyncio.wait_for(reader.read(1), SSE_INTERVAL_SECONDS)
        except asyncio.TimeoutError:
            continue
        # SSE clients send nothing after the request, so a completed
        # read is EOF: the client hung up or the plane closed the
        # connection.
        return


class HttpPlane:
    """Asyncio HTTP/1.1 server over one ``(method, path)`` route table.

    A route path ending in ``/`` serves every path below it, so
    ``("GET", "/trace/")`` serves ``/trace/<id>``.  Every method runs
    on the event loop that called :meth:`start`.
    """

    def __init__(self, routes: Mapping[Tuple[str, str], Handler]) -> None:
        self._routes: Dict[str, Dict[str, Handler]] = {}
        for (method, path), handler in routes.items():
            self._routes.setdefault(path, {})[method] = handler
        self.port = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[asyncio.StreamWriter, "asyncio.Task"] = {}
        self._closing = False

    @property
    def open_connections(self) -> int:
        return len(self._connections)

    async def start(self, host: str, port: int) -> int:
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.start_server(self._serve, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def close(self) -> None:
        """Stop accepting connections and reading further requests."""
        self._closing = True
        self._server.close()

    async def stop(self) -> None:
        """Stop accepting, close every open connection, then wait for
        the server to close (which, since Python 3.12, waits for every
        connection — so an idle keep-alive client cannot hang it).
        Connections are aborted, not flushed: a client that stopped
        reading must not hold shutdown open."""
        self.close()
        for writer in list(self._connections):
            writer.transport.abort()
        if self._connections:
            await asyncio.wait(list(self._connections.values()))
        await self._server.wait_closed()

    def _route(self, path: str) -> Optional[Dict[str, Handler]]:
        handlers = self._routes.get(path)
        if handlers is None:
            for prefix, candidates in self._routes.items():
                if prefix.endswith("/") and path.startswith(prefix):
                    return candidates
        return handlers

    async def _dispatch(
        self, request: Request
    ) -> Union[Response, EventStream]:
        handlers = self._route(request.path)
        if handlers is None:
            endpoints = [
                path + "<id>" if path.endswith("/") else path
                for path in self._routes
            ]
            return json_response(
                {"error": "not found", "endpoints": endpoints}, 404
            )
        handler = handlers.get(request.method)
        if handler is None:
            return json_response(
                {"error": "method not allowed"},
                405,
                headers=(("Allow", ", ".join(handlers)),),
            )
        try:
            return await handler(request)
        except HttpError as exc:
            return exc.response()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except HttpError as exc:
                    await _send(writer, exc.response(), keep_alive=False)
                    return
                if request is None or self._closing:
                    return
                reply = await self._dispatch(request)
                if isinstance(reply, EventStream):
                    await _stream(reader, writer, reply)
                    return
                await _send(writer, reply, request.keep_alive)
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the client went away mid-request or mid-response
        finally:
            del self._connections[writer]
            writer.close()


# ----------------------------------------------------------------------
# The shared observability routes


def observability_routes(
    telemetry: Telemetry, board: ProgressBoard, started_at: float
) -> Dict[Tuple[str, str], Handler]:
    """The seven read-only routes every plane mounts.

    *started_at* is the ``time.perf_counter()`` reading ``/healthz``
    measures uptime from.
    """

    async def metrics(request: Request) -> Response:
        # Diagnostic registries (fabric cache/steal counters, serve
        # queue stats) ride only the live exposition — they are
        # operational, not part of the deterministic exports.
        openmetrics = wants_openmetrics(request.headers.get("accept"))
        text = render_metrics_text(telemetry, openmetrics=openmetrics)
        content_type = (
            OPENMETRICS_CONTENT_TYPE
            if openmetrics
            else PROMETHEUS_CONTENT_TYPE
        )
        return Response(200, content_type, text.encode("utf-8"))

    async def healthz(request: Request) -> Response:
        run = board.snapshot(max_jobs=0)["run"]
        return json_response(
            {
                "status": "ok",
                "uptime_seconds": round(time.perf_counter() - started_at, 3),
                "run": {
                    key: run[key]
                    for key in ("name", "status", "total", "done", "failed")
                },
                "metrics": len(telemetry.registry),
            }
        )

    async def progress(request: Request) -> Response:
        max_jobs = request.int_param("jobs", 256)
        return json_response(board.snapshot(max_jobs=max_jobs))

    async def progress_stream(request: Request) -> EventStream:
        return EventStream("progress", lambda: board.snapshot(max_jobs=64))

    async def trace_list(request: Request) -> Response:
        limit = request.int_param("limit", 32)
        return json_response(
            {
                "schema": "repro.telemetry.trace-list/v1",
                "count": len(TRACES),
                "traces": TRACES.recent(limit=limit),
            }
        )

    async def trace(request: Request) -> Response:
        trace_id = request.path[len("/trace/"):]
        document = TRACES.get(trace_id)
        if document is None:
            raise HttpError(404, "unknown trace", trace_id=trace_id)
        return json_response(document)

    async def logs(request: Request) -> Response:
        limit = request.int_param("limit", 256)
        level = request.param("level")
        if level is not None and level not in LEVELS:
            raise HttpError(
                400, f"unknown level {level!r}", levels=list(LEVELS)
            )
        return json_response(
            LOG.document(
                level=level,
                trace_id=request.param("trace"),
                event=request.param("event"),
                limit=limit,
            )
        )

    return {
        ("GET", "/metrics"): metrics,
        ("GET", "/healthz"): healthz,
        ("GET", "/progress"): progress,
        ("GET", "/progress/stream"): progress_stream,
        ("GET", "/trace"): trace_list,
        ("GET", "/trace/"): trace,
        ("GET", "/logs"): logs,
    }


class ObservabilityServer:
    """The experiments CLI's plane: the observability routes served
    from one named thread running its own event loop."""

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        *,
        telemetry: Optional[Telemetry] = None,
        board: Optional[ProgressBoard] = None,
    ) -> None:
        self.requested_port = port
        self.host = host
        self.telemetry = telemetry if telemetry is not None else TELEMETRY
        self.board = board if board is not None else PROGRESS
        self._plane: Optional[HttpPlane] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves port-0 ephemeral binds)."""
        if self._plane is None:
            return self.requested_port
        return self._plane.port

    @property
    def url(self) -> str:
        """Base URL clients should hit."""
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------

    def start(self) -> "ObservabilityServer":
        """Bind, then serve from a named daemon thread; returns self."""
        if self._plane is not None:
            raise RuntimeError("server already started")
        plane = HttpPlane(
            observability_routes(
                self.telemetry, self.board, time.perf_counter()
            )
        )
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(
                plane.start(self.host, self.requested_port)
            )
        except BaseException:
            loop.close()
            raise
        self._plane, self._loop = plane, loop
        self._thread = threading.Thread(
            target=loop.run_forever,
            name=f"repro-observability:{plane.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop serving and join the thread we created."""
        plane, loop, thread = self._plane, self._loop, self._thread
        if plane is None:
            return
        future = asyncio.run_coroutine_threadsafe(plane.stop(), loop)
        try:
            future.result(timeout)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout)
            loop.close()
            self._plane = self._loop = self._thread = None

    # ------------------------------------------------------------------

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "OPENMETRICS_CONTENT_TYPE",
    "SSE_INTERVAL_SECONDS",
    "MAX_BODY_BYTES",
    "EventStream",
    "HttpError",
    "HttpPlane",
    "Request",
    "Response",
    "json_response",
    "observability_routes",
    "render_metrics_text",
    "wants_openmetrics",
    "ObservabilityServer",
]
