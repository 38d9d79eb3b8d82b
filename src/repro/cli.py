"""The ``repro`` command-line front end.

Subcommands::

    repro report [--ledger PATH] [--bench-dir DIR] [--out PATH]
                 [--metric NAME] [--threshold FRACTION] [--check]
                 [--json PATH] [--bisect]
    repro top [--url URL | --port PORT [--host HOST]]
              [--interval SECS] [--limit N] [--once]
    repro ledger merge SRC [SRC ...] --out DEST
    repro experiments [...]   # forwards to python -m repro.experiments

``repro report`` renders a self-contained HTML report (no network
access: inline CSS and SVG only) from the run ledger plus any
``BENCH_*.json`` documents, and with ``--check`` exits nonzero when
the latest throughput of any ledger series falls more than the
threshold (default 20%) below the median of its prior history.
``--json PATH`` additionally writes the machine-readable summary
(:data:`repro.telemetry.report.REPORT_SUMMARY_SCHEMA`); ``--bisect``
walks the commit-anchored ledger history and names the first commit
where each gated series regressed.

``repro ledger merge`` folds shard/machine ledgers (flat JSONL files
or segment directories) into one destination, deduplicating records —
the multi-shard companion of the segmented
:class:`~repro.telemetry.ledger.RunLedger`.

``repro top`` is the live companion: it polls the ``/progress``
endpoint of a run started with ``--serve`` (or
``REPRO_METRICS_PORT``) and redraws a terminal table of in-flight
jobs — state, phase, wall time, throughput, ETA, violation counts.

Installed as a console script via ``pyproject.toml``; also reachable
as ``python -m repro`` when the package is only on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

from .telemetry.ledger import RunLedger, default_ledger_path, merge_ledgers
from .telemetry.report import (
    DEFAULT_MIN_HISTORY,
    DEFAULT_REGRESSION_THRESHOLD,
    bisect_regressions,
    gateable_series,
    load_bench_documents,
    write_report,
    write_summary,
)
from .telemetry.server import port_from_env

_REPORT_USAGE = """\
usage: repro report [--ledger PATH] [--bench-dir DIR] [--out PATH]
                    [--metric NAME] [--threshold FRACTION] [--check]
                    [--json PATH] [--bisect]

Renders a self-contained HTML report from the run ledger and any
BENCH_*.json benchmark documents; --check exits 1 on a throughput
regression against the ledger median (and says so explicitly when the
ledger has too little history to gate anything).  --json PATH also
writes the machine-readable summary document.  --bisect walks the
ledger's commit-anchored history and prints, per series, the first
commit whose median value regressed past the threshold."""

_LEDGER_USAGE = """\
usage: repro ledger merge SRC [SRC ...] --out DEST

Folds the ledger(s) SRC — flat .jsonl files or segment directories —
into DEST, deduplicating identical records and ordering by timestamp.
Idempotent: re-merging the same sources adds nothing."""

_TOP_USAGE = """\
usage: repro top [--url URL | --port PORT [--host HOST]]
                 [--interval SECS] [--limit N] [--once]

Polls the /progress endpoint of a run started with
`python -m repro.experiments ... --serve PORT` and redraws a live
table of jobs, phases, throughput and ETA.  --once prints a single
snapshot and exits (nonzero if the server is unreachable)."""

_TRACE_USAGE = """\
usage: repro trace show ID [--url URL | --port PORT [--host HOST]]
                          [--width N]
       repro trace list [--url URL | --port PORT [--host HOST]]
                        [--limit N]

`show` fetches /trace/ID from a running serve daemon (or a --serve'd
experiments run) and renders the request's stage waterfall as a
terminal Gantt; `list` prints the most recent traces.  The trace id
comes from the X-Repro-Trace-Id response header (curl -D-) or from
`repro loadgen`'s slowest/failed listing.  Default server:
--url, else --port/--host, else REPRO_METRICS_PORT, else port 8080
(the serve default)."""

_USAGE = """\
usage: repro <command> [...]

commands:
  report        render the HTML run report / regression check
  top           live terminal view of a --serve'd experiments run
  trace         show a request's stage waterfall from /trace/<id>
  ledger        merge shard/machine run ledgers
  experiments   run the paper-reproduction experiments CLI
  serve         run the multi-tenant simulation daemon
  loadgen       swarm a running daemon with zipf-distributed requests"""


def _report_main(argv: List[str]) -> int:
    ledger_path = default_ledger_path()
    bench_dir = os.path.dirname(ledger_path) or "."
    bench_dir_given = False
    out_path: Optional[str] = None
    json_path: Optional[str] = None
    metric = "throughput"
    threshold = DEFAULT_REGRESSION_THRESHOLD
    check = False
    bisect = False

    value_flags = (
        "--ledger", "--bench-dir", "--out", "--metric", "--threshold",
        "--json",
    )
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg in ("-h", "--help"):
            print(_REPORT_USAGE)
            return 0
        if arg == "--check":
            check = True
        elif arg == "--bisect":
            bisect = True
        elif arg in value_flags or arg.startswith(
            tuple(f"{flag}=" for flag in value_flags)
        ):
            if "=" in arg:
                flag, value = arg.split("=", 1)
            else:
                flag = arg
                if index + 1 >= len(argv):
                    print(f"{flag} requires a value")
                    return 2
                index += 1
                value = argv[index]
            if flag == "--ledger":
                ledger_path = value
                if not bench_dir_given:
                    bench_dir = os.path.dirname(value) or "."
            elif flag == "--bench-dir":
                bench_dir = value
                bench_dir_given = True
            elif flag == "--out":
                out_path = value
            elif flag == "--json":
                json_path = value
            elif flag == "--metric":
                metric = value
            else:  # --threshold
                try:
                    threshold = float(value)
                except ValueError:
                    print(f"--threshold expects a fraction, got {value!r}")
                    return 2
                if not 0 < threshold < 1:
                    print("--threshold must be in (0, 1)")
                    return 2
        else:
            print(f"unknown report argument {arg!r}")
            print(_REPORT_USAGE)
            return 2
        index += 1

    if out_path is None:
        out_path = os.path.join(bench_dir, "report.html")

    ledger = RunLedger(ledger_path)
    bench_docs = load_bench_documents(bench_dir)
    path, failures = write_report(
        out_path, ledger, bench_docs, metric=metric, threshold=threshold
    )
    print(
        f"[report] {len(ledger.read())} ledger records, "
        f"{len(bench_docs)} benchmark documents -> {path}"
    )
    if json_path:
        _, summary = write_summary(
            json_path, ledger, bench_docs,
            metric=metric, threshold=threshold,
        )
        print(
            f"[report] JSON summary "
            f"({len(summary['series'])} series) -> {json_path}"
        )
    for message in failures:
        print(f"[report] REGRESSION: {message}")
    if bisect:
        culprits = bisect_regressions(
            ledger, metric=metric, threshold=threshold
        )
        if culprits:
            for name in sorted(culprits):
                info = culprits[name]
                print(
                    f"[bisect] {name}: first regressed at commit "
                    f"{info['sha']} — {metric} {info['value']:.6g} vs "
                    f"prior median {info['baseline']:.6g} "
                    f"({float(info['drop_fraction']) * 100:.1f}% drop, "
                    f"{info['prior_commits']} prior commit(s))"
                )
        else:
            print(
                "[bisect] no commit-attributable regression in the "
                f"ledger history (metric {metric!r}, threshold "
                f"{threshold * 100:.0f}%)"
            )
    if check and failures:
        print(f"[report] --check failed ({len(failures)} regression(s))")
        return 1
    if check:
        gateable = gateable_series(ledger, metric=metric)
        if not gateable:
            print(
                "[report] --check skipped: ledger has no series with "
                "enough history to compare (need at least "
                f"{DEFAULT_MIN_HISTORY + 1} runs of metric {metric!r}); "
                "nothing to gate yet"
            )
            return 0
        print(
            f"[report] --check passed ({len(gateable)} series gated)"
        )
    return 0


# ----------------------------------------------------------------------
# repro ledger — segment-store maintenance


def _ledger_main(argv: List[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(_LEDGER_USAGE)
        return 0 if argv else 2
    if argv[0] != "merge":
        print(f"unknown ledger subcommand {argv[0]!r}")
        print(_LEDGER_USAGE)
        return 2
    sources: List[str] = []
    dest: Optional[str] = None
    index = 1
    while index < len(argv):
        arg = argv[index]
        if arg in ("-h", "--help"):
            print(_LEDGER_USAGE)
            return 0
        if arg == "--out" or arg.startswith("--out="):
            if "=" in arg:
                dest = arg.split("=", 1)[1]
            else:
                if index + 1 >= len(argv):
                    print("--out requires a value")
                    return 2
                index += 1
                dest = argv[index]
        elif arg.startswith("-"):
            print(f"unknown ledger merge argument {arg!r}")
            print(_LEDGER_USAGE)
            return 2
        else:
            sources.append(arg)
        index += 1
    if not sources or dest is None:
        print("ledger merge needs at least one SRC and --out DEST")
        print(_LEDGER_USAGE)
        return 2
    missing = [src for src in sources if not os.path.exists(src)]
    if missing:
        for src in missing:
            print(f"ledger merge: source not found: {src}")
        return 2
    added, total = merge_ledgers(sources, dest)
    print(
        f"[ledger] merged {len(sources)} source(s) -> {dest}: "
        f"{added} new record(s), {total} total"
    )
    return 0


# ----------------------------------------------------------------------
# repro top — live terminal view over /progress


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 90:
        return f"{value / 60:.1f}m"
    return f"{value:.1f}s"


def format_top(snapshot: Dict[str, object], limit: int = 12) -> str:
    """Render one ``/progress`` snapshot as a terminal table.

    Pure formatting (no I/O, no clock reads) so tests can feed it
    canned snapshots; ``repro top`` redraws its output every poll.
    """
    run = snapshot.get("run") or {}
    phases = snapshot.get("phases") or {}
    violations = snapshot.get("violations") or {}
    jobs = snapshot.get("jobs") or []
    lines: List[str] = []
    status = run.get("status", "idle")
    meta = run.get("meta") or {}
    meta_text = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    title = run.get("name") or "(no run)"
    lines.append(
        f"run {title} — {status}"
        + (f"  [{meta_text}]" if meta_text else "")
    )
    # `skipped` counts cells served from the fabric's result cache —
    # shown separately from `done` so a warm rerun reads honestly
    # (older servers omit the key; hide the column then).
    skipped = run.get("skipped")
    lines.append(
        f"jobs {run.get('done', 0)}/{run.get('total', 0)} done · "
        + (f"{skipped} skipped · " if skipped else "")
        + f"{run.get('running', 0)} running · "
        f"{run.get('queued', 0)} queued · "
        f"{run.get('failed', 0)} failed · "
        f"{run.get('retries', 0)} retries"
    )
    rate = run.get("jobs_per_second")
    lines.append(
        "throughput "
        + (f"{rate:.2f} jobs/s" if isinstance(rate, (int, float)) else "-")
        + f" · ewma {_fmt_seconds(run.get('ewma_job_seconds'))}/job"
        + f" · eta {_fmt_seconds(run.get('eta_seconds'))}"
        + f" · uptime {_fmt_seconds(run.get('uptime_seconds'))}"
    )
    if phases:
        total = sum(
            entry.get("seconds", 0.0) for entry in phases.values()
        ) or 1.0
        parts = [
            f"{name} {entry.get('seconds', 0.0):.1f}s "
            f"({entry.get('seconds', 0.0) / total * 100:.0f}%)"
            for name, entry in sorted(
                phases.items(),
                key=lambda kv: -kv[1].get("seconds", 0.0),
            )
        ]
        lines.append("phases: " + " · ".join(parts))
    if violations:
        lines.append(
            "violations: "
            + " · ".join(
                f"{name} {int(value)}"
                for name, value in sorted(violations.items())
            )
        )
    if jobs:
        lines.append("")
        lines.append(
            f"{'JOB':<34} {'STATE':<8} {'PHASE':<12} {'WALL':>8}"
        )
        for job in jobs[:limit]:
            label = f"{job.get('benchmark', '?')}/{job.get('mechanism', '?')}"
            retries = job.get("retries") or 0
            if retries:
                label += f" (retry {retries})"
            lines.append(
                f"{label:<34.34} {str(job.get('state', '?')):<8} "
                f"{str(job.get('phase') or '-'):<12} "
                f"{_fmt_seconds(job.get('wall_seconds')):>8}"
            )
        hidden = len(jobs) - min(len(jobs), limit)
        if hidden > 0:
            lines.append(f"... {hidden} more job(s)")
    return "\n".join(lines)


def _fetch_snapshot(url: str, timeout: float = 2.0) -> Dict[str, object]:
    """GET ``url`` and parse the JSON body (raises on any failure)."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        payload = json.loads(response.read().decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"unexpected /progress payload: {payload!r}")
    return payload


def _top_main(argv: List[str]) -> int:
    url: Optional[str] = None
    host = "127.0.0.1"
    port: Optional[int] = None
    interval = 1.0
    limit = 12
    once = False

    value_flags = ("--url", "--host", "--port", "--interval", "--limit")
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg in ("-h", "--help"):
            print(_TOP_USAGE)
            return 0
        if arg == "--once":
            once = True
        elif arg in value_flags or arg.startswith(
            tuple(f"{flag}=" for flag in value_flags)
        ):
            if "=" in arg:
                flag, value = arg.split("=", 1)
            else:
                flag = arg
                if index + 1 >= len(argv):
                    print(f"{flag} requires a value")
                    return 2
                index += 1
                value = argv[index]
            if flag == "--url":
                url = value
            elif flag == "--host":
                host = value
            elif flag in ("--port", "--interval", "--limit"):
                try:
                    number = float(value)
                except ValueError:
                    print(f"{flag} expects a number, got {value!r}")
                    return 2
                if flag == "--port":
                    port = int(number)
                elif flag == "--interval":
                    interval = max(0.05, number)
                else:
                    limit = max(1, int(number))
        else:
            print(f"unknown top argument {arg!r}")
            print(_TOP_USAGE)
            return 2
        index += 1

    if url is None:
        if port is None:
            try:
                port = port_from_env()
            except ValueError as exc:
                print(f"repro top: {exc}")
                return 2
        if port is None:
            print(
                "repro top: no server given — pass --url/--port or set "
                "REPRO_METRICS_PORT"
            )
            return 2
        url = f"http://{host}:{port}"
    progress_url = url.rstrip("/") + f"/progress?jobs={limit}"

    try:
        while True:
            try:
                snapshot = _fetch_snapshot(progress_url)
            except (urllib.error.URLError, OSError, ValueError) as exc:
                print(f"repro top: cannot reach {progress_url}: {exc}")
                return 1
            text = format_top(snapshot, limit=limit)
            if once:
                print(text)
                return 0
            # Clear + home, then redraw (plain ANSI; no curses dep).
            sys.stdout.write("\x1b[H\x1b[2J" + text + "\n")
            sys.stdout.flush()
            run = snapshot.get("run") or {}
            if not snapshot.get("active") and run.get("status") in (
                "done", "failed"
            ):
                return 0 if run.get("status") == "done" else 1
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


# ----------------------------------------------------------------------
# repro trace — request waterfall forensics over /trace/<id>


def format_trace(document: Dict[str, object], width: int = 48) -> str:
    """Render one ``/trace/<id>`` document as a terminal Gantt.

    Pure formatting (no I/O) so tests can feed it canned documents —
    same discipline as :func:`format_top`.  Each stage renders one row
    with its offset/duration in milliseconds and a proportional bar;
    the bars tile the request end to end because the daemon backs any
    gap into an ``unattributed`` stage.
    """
    total = float(document.get("total_ms") or 0.0)
    stages = document.get("stages") or []
    attrs = document.get("attrs") or {}
    state = "complete" if document.get("complete") else "open"
    lines: List[str] = [
        f"trace {document.get('trace_id', '?')} — {state}, "
        f"total {total:.2f}ms"
    ]
    if attrs:
        lines.append(
            "  " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        )
    if not stages:
        lines.append("  (no stages recorded)")
        return "\n".join(lines)
    span = total or sum(
        float(s.get("duration_ms", 0.0)) for s in stages
    ) or 1.0
    name_width = max(
        [len("STAGE")] + [len(str(s.get("stage", "?"))) for s in stages]
    )
    lines.append(
        f"  {'STAGE':<{name_width}} {'OFFSET':>10} {'DURATION':>10}"
        "  WATERFALL"
    )
    for s in stages:
        offset = float(s.get("offset_ms", 0.0))
        duration = float(s.get("duration_ms", 0.0))
        begin = min(width - 1, int(offset / span * width))
        length = max(1, int(round(duration / span * width)))
        length = min(length, width - begin)
        bar = "·" * begin + "█" * length + "·" * (width - begin - length)
        lines.append(
            f"  {str(s.get('stage', '?')):<{name_width}} "
            f"{offset:>8.2f}ms {duration:>8.2f}ms  |{bar}|"
        )
    return "\n".join(lines)


def _trace_server_url(
    url: Optional[str], host: str, port: Optional[int]
) -> str:
    """The server's base URL; raises ValueError on an invalid
    ``REPRO_METRICS_PORT``."""
    if url is not None:
        return url.rstrip("/")
    if port is None:
        port = port_from_env()
    return f"http://{host}:{port if port is not None else 8080}"


def _trace_main(argv: List[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(_TRACE_USAGE)
        return 0 if argv else 2
    action, rest = argv[0], argv[1:]
    if action not in ("show", "list"):
        print(f"unknown trace action {action!r}")
        print(_TRACE_USAGE)
        return 2
    trace_id: Optional[str] = None
    url: Optional[str] = None
    host = "127.0.0.1"
    port: Optional[int] = None
    width = 48
    limit = 16
    value_flags = ("--url", "--host", "--port", "--width", "--limit")
    index = 0
    while index < len(rest):
        arg = rest[index]
        if arg in ("-h", "--help"):
            print(_TRACE_USAGE)
            return 0
        if "=" in arg and arg.split("=", 1)[0] in value_flags:
            flag, value = arg.split("=", 1)
        elif arg in value_flags:
            if index + 1 >= len(rest):
                print(f"{arg} requires a value")
                return 2
            index += 1
            flag, value = arg, rest[index]
        elif not arg.startswith("-") and trace_id is None:
            trace_id = arg
            index += 1
            continue
        else:
            print(f"unknown trace argument {arg!r}")
            print(_TRACE_USAGE)
            return 2
        index += 1
        if flag == "--url":
            url = value
        elif flag == "--host":
            host = value
        elif flag in ("--port", "--width", "--limit"):
            try:
                number = int(value)
            except ValueError:
                print(f"{flag} expects an integer, got {value!r}")
                return 2
            if flag == "--port":
                port = number
            elif flag == "--width":
                width = max(8, number)
            else:
                limit = max(1, number)
    try:
        base = _trace_server_url(url, host, port)
    except ValueError as exc:
        print(f"repro trace: {exc}")
        return 2
    if action == "show":
        if trace_id is None:
            print("repro trace show: missing trace id")
            print(_TRACE_USAGE)
            return 2
        target = f"{base}/trace/{trace_id}"
        try:
            document = _fetch_snapshot(target, timeout=5.0)
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                print(f"repro trace: unknown trace {trace_id!r} on {base}")
                return 1
            print(f"repro trace: cannot reach {target}: {exc}")
            return 1
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"repro trace: cannot reach {target}: {exc}")
            return 1
        print(format_trace(document, width=width))
        return 0
    target = f"{base}/trace?limit={limit}"
    try:
        document = _fetch_snapshot(target, timeout=5.0)
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"repro trace: cannot reach {target}: {exc}")
        return 1
    traces = document.get("traces") or []
    if not traces:
        print("repro trace: no traces recorded yet")
        return 0
    print(f"{'TRACE':<22} {'TOTAL':>10}  ATTRS")
    for entry in traces:
        attrs = entry.get("attrs") or {}
        attr_text = " ".join(
            f"{k}={v}" for k, v in sorted(attrs.items())
        )
        total = entry.get("total_ms")
        total_text = f"{total:.2f}ms" if total is not None else "-"
        print(
            f"{str(entry.get('trace_id', '?')):<22} {total_text:>10}  "
            f"{attr_text}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE)
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command == "report":
        return _report_main(rest)
    if command == "top":
        return _top_main(rest)
    if command == "trace":
        return _trace_main(rest)
    if command == "ledger":
        return _ledger_main(rest)
    if command == "experiments":
        from .experiments.__main__ import main as experiments_main

        return experiments_main(rest)
    if command == "serve":
        from .serve.daemon import main as serve_main

        return serve_main(rest)
    if command == "loadgen":
        from .serve.loadgen import main as loadgen_main

        return loadgen_main(rest)
    print(f"unknown command {command!r}")
    print(_USAGE)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
