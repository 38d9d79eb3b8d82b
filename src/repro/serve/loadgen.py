"""Zipf-shaped load generator for the ``repro.serve`` daemon.

Drives thousands of concurrent in-flight simulate requests from one
process: *concurrency* workers each hold a keep-alive connection and
pull from a shared, pre-computed request schedule.  The schedule is
zipf-distributed over a small *population* of distinct cells — the
multi-tenant shape the daemon optimises for, where a few hot cells
dominate and coalescing + caching should absorb almost all work.

Everything is deterministic given ``--seed``: the cell population, the
zipf picks and the tenant assignment, so a benchmark re-run generates
the identical request stream.

Zero-drop accounting: every scheduled request ends as an HTTP
response (``ok`` or an explicit ``429``) or an ``error``.  Transport
errors are retried once over a fresh connection; what remains counts
as ``errors`` and the swarm summary reports it — ``errors == 0`` is
the acceptance bar the benchmark and the CI smoke assert.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from typing import Dict, List, Optional, Sequence

from ..workloads.profiles import all_benchmarks

#: Default trace dimensions: small enough that a cold cell simulates
#: in tens of milliseconds, so the swarm exercises the serving plane
#: rather than the simulator.
DEFAULT_WARPS = 2
DEFAULT_INSTRUCTIONS = 200

_MECHANISMS = ("baseline", "lmi", "gpushield", "baggy")


def build_cells(
    population: int,
    *,
    warps: int = DEFAULT_WARPS,
    instructions_per_warp: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """*population* distinct simulate bodies (benchmark × mechanism ×
    salt), deterministic in *seed*."""
    rnd = random.Random(seed)
    benchmarks = list(all_benchmarks())
    rnd.shuffle(benchmarks)
    cells: List[Dict[str, object]] = []
    salt = 0
    while len(cells) < population:
        for benchmark in benchmarks:
            for mechanism in _MECHANISMS:
                if len(cells) >= population:
                    break
                cells.append(
                    {
                        "benchmark": benchmark,
                        "mechanism": mechanism,
                        "warps": warps,
                        "instructions_per_warp": instructions_per_warp,
                        "seed_salt": salt,
                    }
                )
            if len(cells) >= population:
                break
        salt += 1
    return cells


def zipf_schedule(
    requests: int, population: int, *, s: float, seed: int
) -> List[int]:
    """*requests* cell indices, zipf(s)-weighted over *population*."""
    rnd = random.Random(seed)
    weights = [1.0 / (rank + 1) ** s for rank in range(population)]
    return rnd.choices(range(population), weights=weights, k=requests)


async def _read_response(
    reader: asyncio.StreamReader,
) -> tuple:
    """One HTTP/1.1 response off a keep-alive connection."""
    line = await reader.readline()
    if not line:
        raise ConnectionResetError("server closed connection")
    parts = line.decode("latin-1").split(None, 2)
    if len(parts) < 2:
        raise ValueError(f"malformed status line {line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


def _request_bytes(host: str, path: str, body: Dict[str, object]) -> bytes:
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
    ).encode("latin-1")
    return head + b"\r\n" + payload


async def run_swarm(
    host: str,
    port: int,
    *,
    requests: int = 1000,
    concurrency: int = 100,
    tenants: int = 4,
    zipf_s: float = 1.1,
    population: int = 16,
    seed: int = 1234,
    warps: int = DEFAULT_WARPS,
    instructions_per_warp: int = DEFAULT_INSTRUCTIONS,
    cells: Optional[Sequence[Dict[str, object]]] = None,
) -> Dict[str, object]:
    """Run the swarm; returns the summary dict (see module docstring)."""
    if cells is None:
        cells = build_cells(
            population,
            warps=warps,
            instructions_per_warp=instructions_per_warp,
            seed=seed,
        )
    else:
        population = len(cells)
    schedule = zipf_schedule(requests, len(cells), s=zipf_s, seed=seed + 1)
    payloads = []
    for index, cell_index in enumerate(schedule):
        body = dict(cells[cell_index])
        body["tenant"] = f"tenant-{index % max(1, tenants)}"
        payloads.append(_request_bytes(host, "/v1/simulate", body))

    cursor = 0
    latencies: List[float] = []
    by_status: Dict[int, int] = {}
    by_source: Dict[str, int] = {}
    errors = 0
    # (elapsed_seconds, trace_id) per 200, so the summary can name the
    # slowest requests; trace ids of non-200s make failures debuggable.
    traced: List[tuple] = []
    failed_traces: List[Dict[str, object]] = []

    async def worker() -> None:
        nonlocal cursor, errors
        reader = writer = None

        async def connect():
            return await asyncio.open_connection(host, port)

        try:
            reader, writer = await connect()
        except OSError:
            pass
        while True:
            # No await between read and increment: the claim is atomic
            # on the single event-loop thread.
            claimed = cursor
            if claimed >= len(payloads):
                break
            cursor = claimed + 1
            payload = payloads[claimed]
            outcome = None
            for attempt in range(2):
                if writer is None:
                    try:
                        reader, writer = await connect()
                    except OSError:
                        continue
                try:
                    begin = time.perf_counter()
                    writer.write(payload)
                    await writer.drain()
                    status, headers, body = await _read_response(reader)
                    elapsed = time.perf_counter() - begin
                    outcome = (
                        status,
                        body,
                        elapsed,
                        headers.get("x-repro-trace-id"),
                    )
                    break
                except (
                    OSError,
                    ValueError,
                    asyncio.IncompleteReadError,
                ):
                    # Stale/broken connection: retry once, fresh.
                    try:
                        writer.close()
                    except Exception:
                        pass
                    reader = writer = None
            if outcome is None:
                errors += 1
                continue
            status, body, elapsed, trace_id = outcome
            by_status[status] = by_status.get(status, 0) + 1
            if status == 200:
                latencies.append(elapsed)
                if trace_id is not None:
                    traced.append((elapsed, trace_id))
                try:
                    source = json.loads(body.decode("utf-8")).get("source")
                except ValueError:
                    source = "unparseable"
                by_source[source] = by_source.get(source, 0) + 1
            elif status not in (429,) and trace_id is not None:
                failed_traces.append(
                    {"status": status, "trace_id": trace_id}
                )
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    begin = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    wall = time.perf_counter() - begin

    latencies.sort()

    def pct(q: float) -> Optional[float]:
        if not latencies:
            return None
        index = min(len(latencies) - 1, int(q * len(latencies)))
        return round(latencies[index] * 1000.0, 3)

    ok = by_status.get(200, 0)
    throttled = by_status.get(429, 0)
    answered = sum(by_status.values())
    traced.sort(key=lambda pair: -pair[0])
    slowest = [
        {"elapsed_ms": round(elapsed * 1000.0, 3), "trace_id": trace_id}
        for elapsed, trace_id in traced[:5]
    ]
    return {
        "schema": "repro.serve-loadgen/v1",
        "requests": len(payloads),
        "concurrency": concurrency,
        "tenants": tenants,
        "population": population,
        "zipf_s": zipf_s,
        "ok": ok,
        "throttled": throttled,
        "errors": errors,
        "dropped": len(payloads) - answered - errors,
        "wall_seconds": round(wall, 4),
        "requests_per_second": round(answered / wall, 2) if wall else 0.0,
        "p50_ms": pct(0.50),
        "p99_ms": pct(0.99),
        "by_status": {str(k): v for k, v in sorted(by_status.items())},
        "by_source": dict(sorted(by_source.items())),
        # Forensics: feed any of these to `repro trace show <id>` (or
        # GET /trace/<id>) while the daemon is still up.
        "slowest": slowest,
        "failed": failed_traces,
    }


def run_swarm_sync(host: str, port: int, **kwargs) -> Dict[str, object]:
    """Synchronous façade over :func:`run_swarm`."""
    return asyncio.run(run_swarm(host, port, **kwargs))


def main(argv: Optional[List[str]] = None) -> int:
    """``repro loadgen`` — swarm a running daemon, print the summary."""
    # Unset swarm flags stay out of the namespace, so run_swarm's
    # signature holds their defaults.
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Swarm a running repro serve daemon with "
        "zipf-distributed simulate requests and print the summary; "
        "exits 1 on any transport error or dropped response.",
        argument_default=argparse.SUPPRESS,
        allow_abbrev=False,
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="daemon address (default %(default)s)",
    )
    parser.add_argument(
        "--port", type=int, default=8080,
        help="daemon port (default %(default)s)",
    )
    defaults = run_swarm.__kwdefaults__
    for flag, dest, kind, text in (
        ("--requests", "requests", int, "requests in the schedule"),
        ("--concurrency", "concurrency", int, "connections in flight"),
        ("--tenants", "tenants", int, "tenants the requests rotate over"),
        ("--zipf", "zipf_s", float, "zipf exponent over the cells"),
        ("--population", "population", int, "distinct cells"),
        ("--seed", "seed", int, "seed of the cells and the schedule"),
        ("--warps", "warps", int, "warps per cell trace"),
        ("--instructions", "instructions_per_warp", int,
         "instructions per warp"),
    ):
        parser.add_argument(
            flag, dest=dest, type=kind, metavar="S" if kind is float else "N",
            help=f"{text} (default {defaults[dest]})",
        )
    parser.add_argument(
        "--json", dest="as_json", action="store_true", default=False,
        help="print the summary as JSON",
    )
    try:
        swarm = vars(parser.parse_args(argv))
    except SystemExit as exc:  # --help (0) or a usage error (2)
        return exc.code
    as_json = swarm.pop("as_json")
    summary = run_swarm_sync(swarm.pop("host"), swarm.pop("port"), **swarm)
    if as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"loadgen: {summary['requests']} requests @ "
            f"{summary['concurrency']} in-flight -> "
            f"{summary['requests_per_second']} req/s "
            f"(ok={summary['ok']} 429={summary['throttled']} "
            f"errors={summary['errors']} dropped={summary['dropped']}) "
            f"p50={summary['p50_ms']}ms p99={summary['p99_ms']}ms "
            f"sources={summary['by_source']}"
        )
        for entry in summary["slowest"]:
            print(
                f"loadgen: slow {entry['elapsed_ms']}ms "
                f"trace={entry['trace_id']}"
            )
        for entry in summary["failed"]:
            print(
                f"loadgen: failed status={entry['status']} "
                f"trace={entry['trace_id']}"
            )
    return 0 if summary["errors"] == 0 and summary["dropped"] == 0 else 1


if __name__ == "__main__":  # pragma: no cover - direct module entry
    sys.exit(main())


__all__ = [
    "DEFAULT_WARPS",
    "DEFAULT_INSTRUCTIONS",
    "build_cells",
    "zipf_schedule",
    "run_swarm",
    "run_swarm_sync",
    "main",
]
