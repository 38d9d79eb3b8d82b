"""Shared helpers for the benchmark harness.

Each benchmark regenerates one paper artefact (table or figure),
asserts its qualitative shape, and archives the regenerated rows under
``benchmarks/out/`` so the numbers are inspectable after a
``pytest benchmarks/ --benchmark-only`` run.

Telemetry is switched on for the whole benchmark session (with an
aggressive sampling rate so the event ring stays cheap); ``archive``
writes a ``<name>.json`` companion next to each table carrying the
telemetry counter totals accumulated so far, so a benchmark run leaves
behind machine-readable observability data alongside the tables.

``record_run`` appends one structured record per benchmark to the
versioned JSONL run ledger (``benchmarks/out/ledger.jsonl``, the
default ``repro report`` reads) — the history that ``repro report``
renders as perf-trajectory sparklines and that ``repro report
--check`` gates CI against.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Optional

import pytest

from repro.telemetry.ledger import RunLedger, git_sha
from repro.telemetry.runtime import TELEMETRY

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: One ledger per benchmark session, lazily bound to
#: benchmarks/out/ledger.jsonl.
_LEDGER: Optional[RunLedger] = None
_GIT_SHA: Optional[str] = None


@pytest.fixture(scope="session", autouse=True)
def _telemetry_session():
    """Enable the global telemetry hub for the benchmark session."""
    TELEMETRY.configure(enabled=True, deterministic=True,
                        sample_every=1024)
    yield TELEMETRY
    TELEMETRY.configure(enabled=False)


def _ledger() -> RunLedger:
    global _LEDGER, _GIT_SHA
    if _LEDGER is None:
        _LEDGER = RunLedger(str(OUT_DIR / "ledger.jsonl"))
        _GIT_SHA = git_sha()
    return _LEDGER


def record_run(
    name: str,
    *,
    metrics: Optional[Dict[str, float]] = None,
    config: Optional[Dict[str, object]] = None,
    counters: Optional[Dict[str, object]] = None,
    wall_seconds: Optional[float] = None,
    serve: Optional[Dict[str, object]] = None,
) -> None:
    """Append one benchmark record to the run ledger."""
    ledger = _ledger()
    ledger.record(
        "benchmark",
        name,
        config=config,
        counters=counters,
        metrics=metrics,
        wall_seconds=wall_seconds,
        sha=_GIT_SHA,
        serve=serve,
    )


def archive(name: str, text: str) -> None:
    """Write a regenerated table to benchmarks/out/<name>.txt.

    When telemetry is enabled (it is, session-wide), also write
    ``benchmarks/out/<name>.json`` with the registry counter totals,
    and append a ledger record so the artefact shows up in the perf
    trajectory.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    if TELEMETRY.enabled:
        snapshot = TELEMETRY.registry.snapshot()
        document = {
            "artifact": name,
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "events": {
                "emitted": TELEMETRY.recorder.emitted,
                "dropped": TELEMETRY.recorder.dropped,
                "sampled_out": TELEMETRY.recorder.sampled_out,
            },
        }
        (OUT_DIR / f"{name}.json").write_text(
            json.dumps(document, sort_keys=True, indent=2) + "\n"
        )
        record_run(
            name,
            counters={
                "events_emitted": TELEMETRY.recorder.emitted,
                "metrics_registered": len(TELEMETRY.registry),
            },
        )
    print(f"\n[{name}] archived to {path}\n{text}")
