"""Persistent run ledger: one JSONL record per experiment/benchmark run.

The telemetry subsystem observes a *single* run; the ledger gives the
repository a *trajectory*.  Every experiment or benchmark invocation
can append one structured record — git SHA, engine/mechanism
configuration, :class:`~repro.sim.core.SimStats`-style counter totals,
throughput and wall time — to a versioned, append-only JSONL file.
The ``repro report`` CLI (:mod:`repro.telemetry.report`) then renders
the accumulated history as perf-trajectory sparklines and runs the
``--check`` regression gate against the ledger median, so a slowdown
is noticed when it lands rather than when a 3× floor assert finally
trips.

Format
------
One JSON object per line.  Every record carries:

``schema``
    :data:`LEDGER_SCHEMA` (``repro.telemetry.ledger/v1``).  Unknown
    schemas are skipped on read, so the format can evolve.
``kind``
    Record family — ``"experiment"`` or ``"benchmark"``.
``name``
    Stable series key (e.g. ``"fig12"``, ``"sim_throughput"``).
``git_sha``
    Short commit SHA of the working tree (``"unknown"`` outside git).
``created_at``
    UTC ISO-8601 timestamp (wall clock; the only non-deterministic
    field, and the reason the ledger itself is never compared
    byte-for-byte).

plus caller-provided ``config``, ``counters``, ``metrics`` (numeric
series the regression check consumes, e.g. ``throughput``) and
``wall_seconds``.

Appends are atomic at line granularity: the record is rendered to one
``\\n``-terminated line and written by
:func:`~repro.common.files.append_line` (one locked ``O_APPEND``
write), so concurrent writers interleave whole records, never partial
ones.

Growth cap
----------
The ledger is append-only but not unbounded: when an append pushes the
file past :data:`LEDGER_MAX_BYTES` (64 MiB) it is compacted in place
to the **newest** records fitting half the cap — published with
:func:`~repro.common.files.publish` under the appends' lock, so
readers see either the old or the new file and no record
appended meanwhile is lost.  Compacting to half the cap keeps the
amortized cost O(1) per append instead of recompacting on every write
at the boundary.

Segmented (commit-anchored) mode
--------------------------------
Pointing a :class:`RunLedger` at a **directory** (an existing dir, or
any path spelled with a trailing separator) switches it to segment
mode: each writer process appends to its own
``seg-<gitsha>-<runid>.jsonl`` file inside the directory, named for
the commit that produced the records plus a per-process run id.  That
makes concurrent shards (or machines sharing a filesystem) natural
writers — no two processes ever touch the same file — and makes the
store *mergeable*: :func:`merge_ledgers` (CLI: ``repro ledger merge``)
folds any mix of segment directories and flat JSONL files into one
destination, deduplicating identical records and ordering by
``created_at``.  Reads present the union of all segments in the same
deterministic order, so ``repro report`` works unchanged on either
layout.  Rotation in segment mode drops the oldest whole segments
(never the one this process is writing) instead of rewriting files in
place, preserving the each-file-is-append-only property that makes
segments safe to rsync mid-run.
"""

from __future__ import annotations

import json
import os
import subprocess
import uuid
from contextlib import suppress
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..common.files import append_line, locked, publish

#: Version tag stamped into (and required of) every ledger record.
LEDGER_SCHEMA = "repro.telemetry.ledger/v1"

#: Growth cap in bytes: an append that pushes the ledger past it
#: compacts the file (or, in segment mode, the directory) to half.
#: Read at each append, so tests can shrink it.
LEDGER_MAX_BYTES = 64 * 1024 * 1024

#: On-disk location of a :class:`RunLedger` given no path (shared
#: with the benchmark artifacts).
DEFAULT_LEDGER_PATH = os.path.join("benchmarks", "out", "ledger.jsonl")


def git_sha(cwd: Optional[str] = None) -> str:
    """Short commit SHA of the working tree (``"unknown"`` outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def make_record(
    kind: str,
    name: str,
    *,
    config: Optional[Dict[str, object]] = None,
    counters: Optional[Dict[str, object]] = None,
    metrics: Optional[Dict[str, float]] = None,
    wall_seconds: Optional[float] = None,
    phases: Optional[Dict[str, float]] = None,
    meta: Optional[Dict[str, object]] = None,
    sha: Optional[str] = None,
    fabric: Optional[Dict[str, object]] = None,
    serve: Optional[Dict[str, object]] = None,
    created_at: Optional[str] = None,
) -> Dict[str, object]:
    """Build one schema-stamped ledger record (not yet persisted).

    *metrics* is the numeric series dict the regression check reads
    (conventionally including ``throughput``); *counters* carries
    registry/SimStats totals; *config* the engine/mechanism settings
    that produced them; *fabric* the experiment-fabric operational
    counters (cells skipped/stolen/redispatched) for this run;
    *serve* the serving-plane summary (hit rate, latency percentiles,
    batch occupancy) of a ``repro.serve`` benchmark/smoke run — kept
    as-is because its values mix floats and counts.
    """
    record: Dict[str, object] = {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "name": name,
        "git_sha": sha if sha is not None else git_sha(),
        "created_at": created_at
        if created_at is not None
        else datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    if config:
        record["config"] = config
    if counters:
        record["counters"] = counters
    if metrics:
        record["metrics"] = {k: float(v) for k, v in metrics.items()}
    if wall_seconds is not None:
        record["wall_seconds"] = round(float(wall_seconds), 6)
    if phases:
        record["phases"] = {
            k: round(float(v), 6) for k, v in phases.items()
        }
    if meta:
        record["meta"] = meta
    if fabric:
        record["fabric"] = {k: int(v) for k, v in fabric.items()}
    if serve:
        record["serve"] = dict(serve)
    return record


def _read_jsonl(path: str) -> List[Dict[str, object]]:
    """Valid ledger records of one JSONL file, in append order.

    Malformed lines and unknown schemas are skipped (the ledger must
    survive version bumps and torn writes from killed runs).
    """
    if not os.path.exists(path):
        return []
    records: List[Dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if (
                    isinstance(record, dict)
                    and record.get("schema") == LEDGER_SCHEMA
                ):
                    records.append(record)
    except OSError:
        return []
    return records


class RunLedger:
    """Append-only JSONL ledger of experiment/benchmark runs.

    Flat mode (*path* names a ``.jsonl`` file) appends to that file.
    Segment mode (*path* names a directory — existing, or spelled with
    a trailing separator) appends to a per-process commit-anchored
    segment file inside it; see the module docstring.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path if path is not None else DEFAULT_LEDGER_PATH
        self.segmented = self.path.endswith(os.sep) or os.path.isdir(
            self.path
        )
        #: Lazily-chosen per-process segment file (segment mode only);
        #: one RunLedger instance == one writer == one segment.
        self._segment: Optional[str] = None

    # ------------------------------------------------------------------
    # Writing

    def _write_path(self) -> str:
        """The file this instance appends to (lazy in segment mode)."""
        if not self.segmented:
            return self.path
        if self._segment is None:
            run_id = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
            self._segment = os.path.join(
                self.path, f"seg-{git_sha()}-{run_id}.jsonl"
            )
        return self._segment

    def append(self, record: Dict[str, object]) -> Dict[str, object]:
        """Persist one record (schema-stamping it if needed).

        Parent directories are created; the line lands through
        :func:`~repro.common.files.append_line`, so concurrent writers
        interleave whole records.
        """
        if record.get("schema") != LEDGER_SCHEMA:
            record = dict(record)
            record["schema"] = LEDGER_SCHEMA
        append_line(
            self._write_path(), json.dumps(record, sort_keys=True) + "\n"
        )
        self._maybe_rotate()
        return record

    def _maybe_rotate(self) -> None:
        """Compact to the newest records when the size cap is hit.

        Keeps the newest valid lines whose total size fits half of
        :data:`LEDGER_MAX_BYTES` (so rotations amortize instead of
        firing on every append at the boundary) and publishes the
        compacted file atomically.  Compaction holds the lock appends
        take, so a record appended meanwhile waits and lands in the
        compacted file instead of being dropped.  Malformed and
        foreign-schema lines are dropped during compaction — they
        carry no replayable history.
        """
        max_bytes = LEDGER_MAX_BYTES
        if self.segmented:
            self._rotate_segments(max_bytes)
            return
        with locked(f"{self.path}.lock"):
            try:
                size = os.path.getsize(self.path)
            except OSError:
                return
            if size <= max_bytes:
                return
            keep_budget = max_bytes // 2
            kept: List[bytes] = []
            kept_size = 0
            try:
                with open(self.path, "rb") as handle:
                    lines = handle.readlines()
            except OSError:
                return
            for raw in reversed(lines):  # newest first
                text = raw.strip()
                if not text:
                    continue
                try:
                    record = json.loads(text)
                except ValueError:
                    continue
                if (
                    not isinstance(record, dict)
                    or record.get("schema") != LEDGER_SCHEMA
                ):
                    continue
                if kept and kept_size + len(raw) > keep_budget:
                    break
                kept.append(text + b"\n")
                kept_size += len(raw)
            data = b"".join(reversed(kept))  # oldest first again
            publish(self.path, lambda tmp: Path(tmp).write_bytes(data))

    def _rotate_segments(self, max_bytes: int) -> None:
        """Drop the oldest whole segments once the dir exceeds the cap.

        Each segment stays append-only (never rewritten in place); the
        segment this process is writing is always preserved, and a
        dropped segment takes its ``.lock`` sidecar with it.  Keeps
        deleting the oldest segment — by first-record ``created_at``,
        filename as the tiebreak — until the directory fits half the
        cap, mirroring the flat-mode amortization.
        """
        sized: List[Tuple[str, str, int]] = []  # (sort key, path, size)
        total = 0
        for path in self._segment_files():
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            records = _read_jsonl(path)
            first = (
                str(records[0].get("created_at", "")) if records else ""
            )
            sized.append((first, path, size))
            total += size
        if total <= max_bytes:
            return
        keep_budget = max_bytes // 2
        for _, path, size in sorted(
            sized, key=lambda item: (item[0], os.path.basename(item[1]))
        ):
            if total <= keep_budget:
                break
            if path == self._segment:
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            with suppress(OSError):
                os.remove(f"{path}.lock")

    def record(self, kind: str, name: str, **fields) -> Dict[str, object]:
        """:func:`make_record` + :meth:`append` in one call."""
        return self.append(make_record(kind, name, **fields))

    # ------------------------------------------------------------------
    # Reading

    def _segment_files(self) -> List[str]:
        """Segment paths in filename order (segment mode only)."""
        if not self.segmented or not os.path.isdir(self.path):
            return []
        return [
            os.path.join(self.path, entry)
            for entry in sorted(os.listdir(self.path))
            if entry.startswith("seg-") and entry.endswith(".jsonl")
        ]

    def read(self) -> List[Dict[str, object]]:
        """All valid records, in deterministic chronological order.

        Flat mode returns append order.  Segment mode returns the
        union of every segment, stably sorted by ``created_at``
        (segments visited in filename order supply the tiebreak) — so
        two shards that wrote interleaved records read back in the
        same order on every machine that holds the same segments.

        Malformed lines and unknown schemas are skipped (the ledger
        must survive version bumps and torn writes from killed runs).
        """
        if not self.segmented:
            return _read_jsonl(self.path)
        records: List[Dict[str, object]] = []
        for path in self._segment_files():
            records.extend(_read_jsonl(path))
        records.sort(key=lambda rec: str(rec.get("created_at", "")))
        return records

    def series(
        self, name: str, metric: str = "throughput"
    ) -> List[float]:
        """Chronological values of ``metrics[metric]`` for series *name*."""
        out: List[float] = []
        for record in self.read():
            if record.get("name") != name:
                continue
            metrics = record.get("metrics")
            if isinstance(metrics, dict) and metric in metrics:
                try:
                    out.append(float(metrics[metric]))
                except (TypeError, ValueError):
                    continue
        return out

    def names(self) -> List[str]:
        """Distinct series names, in first-seen order."""
        seen: List[str] = []
        for record in self.read():
            name = record.get("name")
            if isinstance(name, str) and name not in seen:
                seen.append(name)
        return seen


def merge_ledgers(
    sources: Iterable[str], dest: str
) -> Tuple[int, int]:
    """Fold ledgers *sources* into *dest*; returns ``(added, total)``.

    Each source (and the destination) may be a flat JSONL file or a
    segment directory — :class:`RunLedger` reads either.  Records are
    deduplicated by their canonical JSON rendering (two shards that
    each recorded the same run contribute one copy), ordered stably by
    ``created_at``, and appended to *dest* preserving their original
    timestamps and git SHAs.  Idempotent: merging the same sources
    twice adds nothing the second time.
    """
    destination = RunLedger(dest)
    seen = {
        json.dumps(record, sort_keys=True)
        for record in destination.read()
    }
    fresh: List[Tuple[str, str, Dict[str, object]]] = []
    for source in sources:
        for record in RunLedger(source).read():
            key = json.dumps(record, sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            fresh.append(
                (str(record.get("created_at", "")), key, record)
            )
    fresh.sort(key=lambda item: item[0])
    for _, _, record in fresh:
        destination.append(record)
    return len(fresh), len(seen)


__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_MAX_BYTES",
    "DEFAULT_LEDGER_PATH",
    "git_sha",
    "make_record",
    "merge_ledgers",
    "RunLedger",
]
