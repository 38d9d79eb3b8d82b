"""Self-contained HTML reports and regression checks over the ledger.

Closes the observability loop: raw counters land in BENCH_*.json and
the run ledger (:mod:`repro.telemetry.ledger`); this module turns them
into something a human (or a CI gate) reads:

* :func:`build_html` — one dependency-free HTML file (inline CSS,
  inline SVG sparklines, **no network access**) with three sections:
  per-mechanism simulator-overhead bars, the latest metric table of
  every ``BENCH_*.json`` document (engine, sim, fabric, serve), and
  perf-trajectory sparklines over the ledger history of every
  recorded series.
* :func:`check_regressions` — the ``repro report --check`` gate: for
  every ledger series, compare the latest ``throughput`` (or other
  chosen metric) against the **median of the prior history**; a drop
  beyond the threshold (default 20%) is a failure.  The median makes
  the gate robust to one noisy CI machine in the history, and series
  with fewer than ``min_history`` prior points pass, so a fresh
  ledger is green by construction.

Everything here is pure formatting over dicts — no telemetry state is
touched, so it can run on artifacts from another machine.
"""

from __future__ import annotations

import glob
import html
import json
import os
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.files import publish
from .export import write_json
from .ledger import RunLedger

#: Default relative throughput drop that fails ``repro report --check``.
DEFAULT_REGRESSION_THRESHOLD = 0.20

#: Schema tag stamped into the ``repro report --json`` summary.
REPORT_SUMMARY_SCHEMA = "repro.telemetry.report/v1"

#: Prior runs a series needs before the regression gate applies to it.
DEFAULT_MIN_HISTORY = 2


# ----------------------------------------------------------------------
# Inputs


def load_bench_documents(directory: str) -> Dict[str, Dict]:
    """All ``BENCH_*.json`` documents in *directory*, keyed by stem.

    Unreadable or non-JSON files are skipped (a half-written benchmark
    artifact must not take the report down with it).
    """
    documents: Dict[str, Dict] = {}
    pattern = os.path.join(directory, "BENCH_*.json")
    for path in sorted(glob.glob(pattern)):
        stem = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(document, dict):
            documents[stem] = document
    return documents


# ----------------------------------------------------------------------
# Regression gate


def check_regressions(
    ledger: RunLedger,
    *,
    metric: str = "throughput",
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> List[str]:
    """Failure messages for series whose latest value regressed.

    For each series in *ledger* carrying *metric*: with at least
    *min_history* prior points, the latest value must not fall more
    than *threshold* below the **median of the prior points**.  Series
    with too little history pass (a fresh ledger is green by
    construction).  Returns human-readable failure strings; empty
    means the gate passes.
    """
    failures: List[str] = []
    for name in ledger.names():
        series = ledger.series(name, metric)
        if len(series) < min_history + 1:
            continue
        latest = series[-1]
        baseline = statistics.median(series[:-1])
        if baseline <= 0:
            continue
        drop = 1.0 - latest / baseline
        if drop > threshold:
            failures.append(
                f"{name}: {metric} {latest:.6g} is {drop * 100:.1f}% below "
                f"the ledger median {baseline:.6g} "
                f"(threshold {threshold * 100:.0f}%, "
                f"{len(series) - 1} prior runs)"
            )
    return failures


def bisect_regressions(
    ledger: RunLedger,
    *,
    metric: str = "throughput",
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> Dict[str, Dict[str, object]]:
    """Pin the first commit where each gated series regressed.

    The ledger anchors every record to a git SHA, so a regression can
    be *bisected* offline: for each series carrying *metric*, group
    its values by commit in first-seen order and walk the commits
    chronologically; the culprit is the first commit whose median
    value falls more than *threshold* below the median of everything
    recorded before it.  Robust to a noisy run on either side of the
    boundary (medians on both) and needs no checkouts or reruns —
    CI history alone answers "which commit made fig12 slow?".

    Returns ``series name -> {sha, value, baseline, drop_fraction,
    prior_commits}`` for regressed series only; an empty dict means no
    series shows a commit-attributable regression.
    """
    out: Dict[str, Dict[str, object]] = {}
    for name in ledger.names():
        commits: List[str] = []
        values: Dict[str, List[float]] = {}
        for record in ledger.read():
            if record.get("name") != name:
                continue
            metrics = record.get("metrics")
            if not isinstance(metrics, dict) or metric not in metrics:
                continue
            try:
                value = float(metrics[metric])
            except (TypeError, ValueError):
                continue
            sha = str(record.get("git_sha", "unknown"))
            if sha not in values:
                commits.append(sha)
                values[sha] = []
            values[sha].append(value)
        prior: List[float] = []
        for index, sha in enumerate(commits):
            if prior:
                baseline = statistics.median(prior)
                current = statistics.median(values[sha])
                if baseline > 0:
                    drop = 1.0 - current / baseline
                    if drop > threshold:
                        out[name] = {
                            "sha": sha,
                            "value": current,
                            "baseline": baseline,
                            "drop_fraction": round(drop, 6),
                            "prior_commits": index,
                        }
                        break
            prior.extend(values[sha])
    return out


def gateable_series(
    ledger: RunLedger,
    *,
    metric: str = "throughput",
    min_history: int = DEFAULT_MIN_HISTORY,
) -> List[str]:
    """Series names with enough history for the gate to compare.

    A series is gateable once it carries ``min_history`` prior values
    *plus* a latest one for *metric*.  ``repro report --check`` uses
    an empty result to say, explicitly, that it had nothing to gate —
    rather than printing a silently-vacuous "passed".
    """
    return [
        name
        for name in ledger.names()
        if len(ledger.series(name, metric)) >= min_history + 1
    ]


# ----------------------------------------------------------------------
# Machine-readable summary (``repro report --json``)


def build_summary(
    ledger: RunLedger,
    bench_docs: Optional[Dict[str, Dict]] = None,
    *,
    metric: str = "throughput",
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> Dict[str, object]:
    """One JSON document with everything a CI step branches on.

    Latest-vs-median per series, the regression verdicts, the
    telemetry-overhead budget from ``BENCH_sim.json``, and the latest
    per-phase wall-time attribution — the machine-readable companion
    of :func:`build_html`, written by ``repro report --json``.
    """
    bench_docs = bench_docs or {}
    failures = check_regressions(
        ledger, metric=metric, threshold=threshold, min_history=min_history
    )
    failed = {message.split(":", 1)[0] for message in failures}
    series_out: Dict[str, object] = {}
    for name in ledger.names():
        series = ledger.series(name, metric)
        if not series:
            continue
        latest = series[-1]
        prior = series[:-1]
        median_prior = statistics.median(prior) if prior else None
        drop = (
            1.0 - latest / median_prior
            if median_prior and median_prior > 0
            else None
        )
        series_out[name] = {
            "runs": len(series),
            "latest": latest,
            "median_prior": median_prior,
            "drop_fraction": round(drop, 6) if drop is not None else None,
            "gated": len(series) >= min_history + 1,
            "regressed": name in failed,
        }
    summary: Dict[str, object] = {
        "schema": REPORT_SUMMARY_SCHEMA,
        "metric": metric,
        "threshold": threshold,
        "min_history": min_history,
        "gateable_series": gateable_series(
            ledger, metric=metric, min_history=min_history
        ),
        "failures": failures,
        "failure_count": len(failures),
        "series": series_out,
        "phases": latest_phase_attribution(ledger),
        "fabric": latest_fabric_counters(ledger),
        "serve": latest_serve_stats(ledger),
    }
    sim = bench_docs.get("BENCH_sim")
    overhead = sim.get("telemetry_overhead") if isinstance(sim, dict) else None
    summary["telemetry_overhead"] = (
        overhead if isinstance(overhead, dict) else None
    )
    return summary


def write_summary(
    path: str,
    ledger: RunLedger,
    bench_docs: Optional[Dict[str, Dict]] = None,
    **kwargs,
) -> Tuple[str, Dict[str, object]]:
    """Render and atomically write the JSON summary; returns
    ``(path, summary)``."""
    summary = build_summary(ledger, bench_docs, **kwargs)
    write_json(path, summary)
    return path, summary


def latest_phase_attribution(ledger: RunLedger) -> Dict[str, float]:
    """Per-phase seconds summed over the **latest** record of each
    series that carries a ``phases`` block (live-plane attribution)."""
    latest: Dict[str, Dict[str, float]] = {}
    for record in ledger.read():
        phases = record.get("phases")
        name = record.get("name")
        if isinstance(phases, dict) and isinstance(name, str):
            latest[name] = {
                k: float(v)
                for k, v in phases.items()
                if isinstance(v, (int, float))
            }
    totals: Dict[str, float] = {}
    for phases in latest.values():
        for phase, seconds in phases.items():
            totals[phase] = round(totals.get(phase, 0.0) + seconds, 6)
    return dict(sorted(totals.items()))


def latest_fabric_counters(ledger: RunLedger) -> Dict[str, int]:
    """Fabric cell counters summed over the **latest** record of each
    series that carries a ``fabric`` block (cells skipped/stolen/
    redispatched — the machine-readable view of cache effectiveness)."""
    latest: Dict[str, Dict[str, int]] = {}
    for record in ledger.read():
        fabric = record.get("fabric")
        name = record.get("name")
        if isinstance(fabric, dict) and isinstance(name, str):
            latest[name] = {
                k: int(v)
                for k, v in fabric.items()
                if isinstance(v, (int, float))
            }
    totals: Dict[str, int] = {}
    for counters in latest.values():
        for key, count in counters.items():
            totals[key] = totals.get(key, 0) + count
    return dict(sorted(totals.items()))


def latest_serve_stats(
    ledger: RunLedger,
) -> Dict[str, Dict[str, object]]:
    """The **latest** ``serve`` block per series, keyed by series name.

    Unlike the fabric counters, serving-plane blocks are not summable
    (hit rates and latency percentiles describe one run), so the
    summary keeps each series' most recent block whole — the
    ``repro report --json`` view of how the daemon performed last
    time the serve benchmark/smoke ran.
    """
    latest: Dict[str, Dict[str, object]] = {}
    for record in ledger.read():
        serve = record.get("serve")
        name = record.get("name")
        if isinstance(serve, dict) and isinstance(name, str):
            latest[name] = dict(serve)
    return dict(sorted(latest.items()))


# ----------------------------------------------------------------------
# HTML rendering helpers (all inline; the file must be self-contained)

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 64rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
h2 { margin-top: 2rem; }
table { border-collapse: collapse; margin: .8rem 0; font-size: .9rem; }
th, td { border: 1px solid #c8c8d8; padding: .25rem .6rem;
         text-align: right; }
th { background: #eef0f6; }
td.k, th.k { text-align: left; font-family: ui-monospace, monospace; }
.bar { display: inline-block; height: .8rem; background: #4466cc;
       vertical-align: middle; }
.bar.warn { background: #cc5544; }
.meta { color: #667; font-size: .8rem; }
.fail { color: #b00020; font-weight: 600; }
.ok { color: #107040; font-weight: 600; }
svg.spark { vertical-align: middle; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return _esc(value)


def sparkline_svg(
    values: Sequence[float], *, width: int = 140, height: int = 28
) -> str:
    """Inline SVG polyline sparkline for *values* (last point marked)."""
    points = [float(v) for v in values]
    if not points:
        return ""
    if len(points) == 1:
        points = points * 2
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    pad = 2.0
    step = (width - 2 * pad) / (len(points) - 1)
    coords = [
        (
            round(pad + i * step, 2),
            round(height - pad - (v - lo) / span * (height - 2 * pad), 2),
        )
        for i, v in enumerate(points)
    ]
    path = " ".join(f"{x},{y}" for x, y in coords)
    lx, ly = coords[-1]
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        'xmlns="http://www.w3.org/2000/svg">'
        f'<polyline fill="none" stroke="#4466cc" stroke-width="1.5" '
        f'points="{path}"/>'
        f'<circle cx="{lx}" cy="{ly}" r="2.5" fill="#cc5544"/>'
        "</svg>"
    )


def _bar(fraction: float, *, warn: bool = False, scale: float = 220) -> str:
    width = max(1, int(round(min(max(fraction, 0.0), 1.0) * scale)))
    cls = "bar warn" if warn else "bar"
    return f'<span class="{cls}" style="width:{width}px"></span>'


def _overhead_section(bench_docs: Dict[str, Dict]) -> List[str]:
    """Per-mechanism simulator overhead bars from BENCH_sim.json."""
    sim = bench_docs.get("BENCH_sim")
    if not sim or "models" not in sim:
        return []
    lines = ["<h2>Per-mechanism simulator throughput</h2>", "<table>"]
    lines.append(
        "<tr><th class=k>mechanism</th><th>records/s (columnar)</th>"
        "<th>speedup vs scalar</th><th></th></tr>"
    )
    models = sim["models"]
    try:
        top = max(
            float(row.get("columnar_records_per_second", 0) or 0)
            for row in models.values()
        ) or 1.0
    except ValueError:
        return []
    for name in sorted(models):
        row = models[name]
        rps = float(row.get("columnar_records_per_second", 0) or 0)
        speedup = row.get("geomean_speedup", "")
        lines.append(
            f"<tr><td class=k>{_esc(name)}</td><td>{_fmt(rps)}</td>"
            f"<td>{_fmt(speedup)}×</td><td>{_bar(rps / top)}</td></tr>"
        )
    lines.append("</table>")
    overhead = sim.get("telemetry_overhead")
    if isinstance(overhead, dict):
        pct = float(overhead.get("overhead_fraction", 0.0)) * 100
        budget = float(overhead.get("budget_fraction", 0.05)) * 100
        cls = "ok" if pct <= budget else "fail"
        lines.append(
            f'<p>Telemetry overhead (metrics on): <span class="{cls}">'
            f"{pct:.2f}%</span> of a {budget:.0f}% budget "
            f"(sampling {_esc(overhead.get('sample', '1'))}).</p>"
        )
    return lines


def _bench_tables(bench_docs: Dict[str, Dict]) -> List[str]:
    """Flat key→value tables for each BENCH_*.json document."""
    lines: List[str] = []
    for stem in sorted(bench_docs):
        document = bench_docs[stem]
        lines.append(f"<h2>{_esc(stem)}</h2>")
        lines.append("<table>")
        lines.append("<tr><th class=k>metric</th><th>value</th></tr>")
        for key in sorted(document):
            value = document[key]
            if isinstance(value, (dict, list)):
                continue
            lines.append(
                f"<tr><td class=k>{_esc(key)}</td>"
                f"<td>{_fmt(value)}</td></tr>"
            )
        lines.append("</table>")
    return lines


def _trajectory_section(
    ledger: RunLedger, metric: str, failures: Sequence[str]
) -> List[str]:
    names = ledger.names()
    lines = ["<h2>Perf trajectory (ledger history)</h2>"]
    if not names:
        lines.append("<p class=meta>No ledger records yet.</p>")
        return lines
    failed = {message.split(":", 1)[0] for message in failures}
    lines.append("<table>")
    lines.append(
        f"<tr><th class=k>series</th><th>runs</th><th>latest {metric}"
        "</th><th>median</th><th>trend</th><th>status</th></tr>"
    )
    for name in names:
        series = ledger.series(name, metric)
        if not series:
            continue
        latest = series[-1]
        baseline = (
            statistics.median(series[:-1]) if len(series) > 1 else latest
        )
        status = (
            '<span class=fail>regressed</span>'
            if name in failed
            else '<span class=ok>ok</span>'
        )
        lines.append(
            f"<tr><td class=k>{_esc(name)}</td><td>{len(series)}</td>"
            f"<td>{_fmt(latest)}</td><td>{_fmt(baseline)}</td>"
            f"<td>{sparkline_svg(series)}</td><td>{status}</td></tr>"
        )
    lines.append("</table>")
    return lines


def _phase_section(ledger: RunLedger) -> List[str]:
    """Per-phase wall-time attribution from the latest ledger records."""
    totals = latest_phase_attribution(ledger)
    if not totals:
        return []
    grand = sum(totals.values()) or 1.0
    lines = ["<h2>Phase attribution (latest runs)</h2>", "<table>"]
    lines.append(
        "<tr><th class=k>phase</th><th>seconds</th><th>share</th>"
        "<th></th></tr>"
    )
    for phase, seconds in sorted(
        totals.items(), key=lambda kv: -kv[1]
    ):
        share = seconds / grand
        lines.append(
            f"<tr><td class=k>{_esc(phase)}</td><td>{_fmt(seconds)}</td>"
            f"<td>{share * 100:.1f}%</td><td>{_bar(share)}</td></tr>"
        )
    lines.append("</table>")
    lines.append(
        "<p class=meta>compile / trace_expand / sim / export wall "
        "seconds, summed over the latest ledger record of each series "
        "that carries them.</p>"
    )
    return lines


def _serve_section(ledger: RunLedger) -> List[str]:
    """Serving-plane summary from the latest serve ledger blocks."""
    blocks = latest_serve_stats(ledger)
    if not blocks:
        return []
    lines = ["<h2>Serving plane (latest runs)</h2>", "<table>"]
    lines.append(
        "<tr><th class=k>series</th><th>req/s</th><th>hit rate</th>"
        "<th>batch occ.</th><th>p50 ms</th><th>p99 ms</th></tr>"
    )
    def cell(value: object) -> str:
        return "&ndash;" if value is None else _fmt(value)

    for name, block in blocks.items():
        latency = block.get("latency_ms")
        latency = latency if isinstance(latency, dict) else {}
        lines.append(
            f"<tr><td class=k>{_esc(name)}</td>"
            f"<td>{cell(block.get('requests_per_second'))}</td>"
            f"<td>{cell(block.get('hit_rate'))}</td>"
            f"<td>{cell(block.get('batch_occupancy'))}</td>"
            f"<td>{cell(latency.get('p50'))}</td>"
            f"<td>{cell(latency.get('p99'))}</td></tr>"
        )
    lines.append("</table>")
    lines.append(
        "<p class=meta>repro.serve daemon throughput: coalesced + "
        "cached request serving, from each series' most recent "
        "ledger record carrying a serve block.</p>"
    )
    slow: List[Tuple[str, Dict[str, object]]] = []
    for name, block in blocks.items():
        captures = block.get("slow_requests")
        if isinstance(captures, list):
            slow.extend(
                (name, capture)
                for capture in captures
                if isinstance(capture, dict)
            )
    if slow:
        slow.sort(
            key=lambda pair: -float(pair[1].get("elapsed_ms") or 0.0)
        )
        lines.append("<h2>Slow requests (forensics)</h2>")
        lines.append("<table>")
        lines.append(
            "<tr><th class=k>series</th><th class=k>trace</th>"
            "<th>elapsed ms</th><th>threshold ms</th>"
            "<th class=k>source</th><th class=k>digest</th></tr>"
        )
        for name, capture in slow[:16]:
            digest = str(capture.get("digest") or "")
            lines.append(
                f"<tr><td class=k>{_esc(name)}</td>"
                f"<td class=k>{_esc(capture.get('trace_id'))}</td>"
                f"<td>{_fmt(capture.get('elapsed_ms'))}</td>"
                f"<td>{_fmt(capture.get('threshold_ms'))}</td>"
                f"<td class=k>{_esc(capture.get('source'))}</td>"
                f"<td class=k>{_esc(digest[:16])}</td></tr>"
            )
        lines.append("</table>")
        lines.append(
            "<p class=meta>requests the daemon captured above its slow "
            "threshold; feed a trace id to <code>repro trace show</code> "
            "against a live daemon for the per-stage waterfall.</p>"
        )
    return lines


def build_html(
    ledger: RunLedger,
    bench_docs: Optional[Dict[str, Dict]] = None,
    *,
    metric: str = "throughput",
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    title: str = "repro run report",
) -> Tuple[str, List[str]]:
    """Render the self-contained HTML report.

    Returns ``(html_text, failures)`` where *failures* is the
    :func:`check_regressions` result embedded in the report header —
    so ``repro report`` renders and gates from one pass.
    """
    bench_docs = bench_docs or {}
    failures = check_regressions(ledger, metric=metric, threshold=threshold)
    records = ledger.read()
    latest_sha = records[-1].get("git_sha", "unknown") if records else "n/a"
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<p class=meta>{len(records)} ledger records · "
        f"latest git {_esc(latest_sha)} · regression threshold "
        f"{threshold * 100:.0f}% vs ledger median</p>",
    ]
    if failures:
        parts.append("<p class=fail>Regressions detected:</p><ul>")
        parts.extend(
            f"<li class=fail>{_esc(message)}</li>" for message in failures
        )
        parts.append("</ul>")
    else:
        parts.append('<p class=ok>No regressions against ledger history.</p>')
    parts.extend(_overhead_section(bench_docs))
    parts.extend(_trajectory_section(ledger, metric, failures))
    parts.extend(_phase_section(ledger))
    parts.extend(_serve_section(ledger))
    parts.extend(_bench_tables(bench_docs))
    parts.append("</body></html>")
    return "\n".join(parts) + "\n", failures


def write_report(
    path: str,
    ledger: RunLedger,
    bench_docs: Optional[Dict[str, Dict]] = None,
    **kwargs,
) -> Tuple[str, List[str]]:
    """Render and atomically write the report; returns (path, failures)."""
    text, failures = build_html(ledger, bench_docs, **kwargs)
    publish(path, lambda tmp: Path(tmp).write_text(text, "utf-8"))
    return path, failures


__all__ = [
    "DEFAULT_REGRESSION_THRESHOLD",
    "DEFAULT_MIN_HISTORY",
    "REPORT_SUMMARY_SCHEMA",
    "load_bench_documents",
    "check_regressions",
    "bisect_regressions",
    "gateable_series",
    "build_summary",
    "write_summary",
    "latest_phase_attribution",
    "latest_fabric_counters",
    "latest_serve_stats",
    "sparkline_svg",
    "build_html",
    "write_report",
]
