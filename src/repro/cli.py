"""The ``repro`` command-line front end.

Subcommands (``repro <command> --help`` lists each one's flags)::

    repro report [--ledger PATH] [--bench-dir DIR] [--out PATH]
                 [--metric NAME] [--threshold FRACTION] [--check]
                 [--json PATH] [--bisect]
    repro top [--url URL | --port PORT [--host HOST]]
              [--interval SECS] [--limit N] [--once]
    repro trace show ID [--url URL | --port PORT [--host HOST]] [--width N]
    repro trace list [--url URL | --port PORT [--host HOST]] [--limit N]
    repro ledger merge SRC [SRC ...] --out DEST
    repro experiments [...]   # forwards to python -m repro.experiments
    repro serve [...]         # the simulation daemon (repro.serve.daemon)
    repro loadgen [...]       # the load generator (repro.serve.loadgen)

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
endpoint of a run started with ``--serve`` and redraws a terminal
table of in-flight jobs — state, phase, wall time, throughput, ETA,
violation counts.

Every command declares its flags once with :mod:`argparse`; ``--help``
exits 0 and a usage error exits 2.  ``experiments``, ``serve`` and
``loadgen`` hand their arguments to their own modules' parsers.

Installed as a console script via ``pyproject.toml``; also reachable
as ``python -m repro`` when the package is only on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import importlib
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

#: Commands whose modules parse their own arguments: ``module`` and
#: the one-line help ``repro --help`` shows.  The experiments CLI
#: parses with ``parse_intermixed_args`` (experiment names may sit
#: between flags), which argparse does not support under subparsers;
#: serve and loadgen keep their parser next to what it configures
#: (``python -m repro.serve`` runs the same one).
_FORWARDED = {
    "experiments": (
        "repro.experiments.__main__",
        "run the paper-reproduction experiments CLI",
    ),
    "serve": ("repro.serve.daemon", "run the multi-tenant simulation daemon"),
    "loadgen": (
        "repro.serve.loadgen",
        "swarm a running daemon with zipf-distributed requests",
    ),
}


def _fraction(text: str) -> float:
    """``--threshold``: a fraction strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a fraction, got {text!r}"
        ) from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text!r}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", allow_abbrev=False)
    commands = parser.add_subparsers(
        dest="command", metavar="<command>", required=True
    )

    report = commands.add_parser(
        "report",
        allow_abbrev=False,
        help="render the HTML run report / regression check",
        description=(
            "Renders a self-contained HTML report from the run ledger and "
            "any BENCH_*.json benchmark documents; --check exits 1 on a "
            "throughput regression against the ledger median (and says so "
            "explicitly when the ledger has too little history to gate "
            "anything).  --json PATH also writes the machine-readable "
            "summary document.  --bisect walks the ledger's commit-anchored "
            "history and prints, per series, the first commit whose median "
            "value regressed past the threshold."
        ),
    )
    report.add_argument(
        "--ledger", default=default_ledger_path(), metavar="PATH",
        help="run ledger file or segment directory (default %(default)s)",
    )
    report.add_argument(
        "--bench-dir", metavar="DIR",
        help="where the BENCH_*.json documents are (default: the "
        "ledger's directory)",
    )
    report.add_argument(
        "--out", metavar="PATH",
        help="HTML report path (default BENCH_DIR/report.html)",
    )
    report.add_argument(
        "--metric", default="throughput", metavar="NAME",
        help="ledger metric to gate (default %(default)s)",
    )
    report.add_argument(
        "--threshold", type=_fraction,
        default=DEFAULT_REGRESSION_THRESHOLD, metavar="FRACTION",
        help="regression threshold in (0, 1) (default %(default)s)",
    )
    report.add_argument(
        "--check", action="store_true", help="exit 1 on a regression"
    )
    report.add_argument(
        "--json", metavar="PATH", help="also write the JSON summary"
    )
    report.add_argument(
        "--bisect", action="store_true",
        help="name the first regressing commit of each series",
    )
    report.set_defaults(run=_report_main)

    # --url/--port/--host: the server `top` and `trace` talk to.
    server = argparse.ArgumentParser(add_help=False)
    server.add_argument("--url", help="server base URL (wins over --port)")
    server.add_argument(
        "--host", default="127.0.0.1", help="server host (default %(default)s)"
    )
    server.add_argument("--port", type=int, help="server port")

    top = commands.add_parser(
        "top",
        parents=[server],
        allow_abbrev=False,
        help="live terminal view of a --serve'd experiments run",
        description=(
            "Polls the /progress endpoint of a run started with "
            "`python -m repro.experiments ... --serve PORT` and redraws a "
            "live table of jobs, phases, throughput and ETA.  --once prints "
            "a single snapshot and exits (nonzero if the server is "
            "unreachable)."
        ),
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECS",
        help="seconds between polls (default %(default)s)",
    )
    top.add_argument(
        "--limit", type=int, default=12, metavar="N",
        help="job rows shown (default %(default)s)",
    )
    top.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    top.set_defaults(run=_top_main)

    trace = commands.add_parser(
        "trace",
        allow_abbrev=False,
        help="show a request's stage waterfall from /trace/<id>",
        description=(
            "`show` fetches /trace/ID from a running serve daemon (or a "
            "--serve'd experiments run) and renders the request's stage "
            "waterfall as a terminal Gantt; `list` prints the most recent "
            "traces.  The trace id comes from the X-Repro-Trace-Id response "
            "header (curl -D-) or from `repro loadgen`'s slowest/failed "
            "listing.  Default server: --url, else --port/--host, else "
            "port 8080 (the serve default)."
        ),
    )
    actions = trace.add_subparsers(
        dest="action", metavar="<action>", required=True
    )
    show = actions.add_parser(
        "show", parents=[server], allow_abbrev=False,
        help="render one request's waterfall",
    )
    show.add_argument("trace_id", metavar="ID")
    show.add_argument(
        "--width", type=int, default=48, metavar="N",
        help="waterfall width in characters (default %(default)s)",
    )
    show.set_defaults(run=_trace_main)
    listing = actions.add_parser(
        "list", parents=[server], allow_abbrev=False,
        help="print the most recent traces",
    )
    listing.add_argument(
        "--limit", type=int, default=16, metavar="N",
        help="traces listed (default %(default)s)",
    )
    listing.set_defaults(run=_trace_main)

    ledger = commands.add_parser(
        "ledger", allow_abbrev=False, help="merge shard/machine run ledgers"
    )
    ledger_actions = ledger.add_subparsers(
        dest="action", metavar="<action>", required=True
    )
    merge = ledger_actions.add_parser(
        "merge",
        allow_abbrev=False,
        help="fold ledgers into one",
        description=(
            "Folds the ledger(s) SRC — flat .jsonl files or segment "
            "directories — into DEST, deduplicating identical records and "
            "ordering by timestamp.  Idempotent: re-merging the same "
            "sources adds nothing."
        ),
    )
    merge.add_argument("sources", nargs="+", metavar="SRC")
    merge.add_argument("--out", required=True, metavar="DEST")
    merge.set_defaults(run=_ledger_main)

    # Listed for --help only: main() hands these to their own parsers.
    for name, (_, text) in _FORWARDED.items():
        commands.add_parser(name, help=text, add_help=False)
    return parser


def _report_main(args: argparse.Namespace) -> int:
    metric, threshold = args.metric, args.threshold
    bench_dir = args.bench_dir
    if bench_dir is None:
        bench_dir = os.path.dirname(args.ledger) or "."
    out_path = args.out
    if out_path is None:
        out_path = os.path.join(bench_dir, "report.html")

    ledger = RunLedger(args.ledger)
    bench_docs = load_bench_documents(bench_dir)
    path, failures = write_report(
        out_path, ledger, bench_docs, metric=metric, threshold=threshold
    )
    print(
        f"[report] {len(ledger.read())} ledger records, "
        f"{len(bench_docs)} benchmark documents -> {path}"
    )
    if args.json:
        _, summary = write_summary(
            args.json, ledger, bench_docs,
            metric=metric, threshold=threshold,
        )
        print(
            f"[report] JSON summary "
            f"({len(summary['series'])} series) -> {args.json}"
        )
    for message in failures:
        print(f"[report] REGRESSION: {message}")
    if args.bisect:
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
    if args.check and failures:
        print(f"[report] --check failed ({len(failures)} regression(s))")
        return 1
    if args.check:
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


def _ledger_main(args: argparse.Namespace) -> int:
    sources, dest = args.sources, args.out
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


def _top_main(args: argparse.Namespace) -> int:
    url, port = args.url, args.port
    interval = max(0.05, args.interval)
    limit = max(1, args.limit)
    once = args.once
    if url is None:
        if port is None:
            print("repro top: no server given — pass --url or --port")
            return 2
        url = f"http://{args.host}:{port}"
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


def _trace_main(args: argparse.Namespace) -> int:
    if args.url is not None:
        base = args.url.rstrip("/")
    else:
        port = args.port if args.port is not None else 8080
        base = f"http://{args.host}:{port}"
    if args.action == "show":
        trace_id = args.trace_id
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
        print(format_trace(document, width=max(8, args.width)))
        return 0
    target = f"{base}/trace?limit={max(1, args.limit)}"
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


def _run(argv: List[str]) -> int:
    if argv and argv[0] in _FORWARDED:
        module = importlib.import_module(_FORWARDED[argv[0]][0])
        return module.main(argv[1:])
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (2)
        return exc.code
    return args.run(args)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader hung up (`repro trace show ID | head`): send the
        # rest of the output nowhere and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
