"""Content-addressed kernel-trace cache.

Synthesizing a benchmark trace is deterministic — the generator is
seeded from the benchmark name — yet the paper artefacts re-ran it for
every (experiment × mechanism × process) combination.  This module
memoises :func:`~repro.workloads.synthetic.synthesize_trace` behind a
content-addressed key so identical requests pay synthesis once:

* **key** — SHA-256 over ``(profile name, warps, instructions/warp,
  seed salt, profile fingerprint)``.  The fingerprint digests every
  :class:`~repro.workloads.profiles.BenchmarkProfile` field, so
  editing a profile (or passing a custom ``spec``) can never serve a
  stale trace.
* **L1: in-process LRU** — an ``OrderedDict`` bounded by ``capacity``
  entries.  Hits return the *same* trace object, shared by every
  mechanism's simulator.  Only the trace is cached: each simulator run
  decodes its own issue plan and drops it afterwards.
* **L2: optional on-disk columnar layer** — ``disk_dir``, which the
  experiments CLI's ``--trace-cache DIR`` sets on :data:`TRACE_CACHE`
  for one run.  Entries are versioned columnar ``.npz``
  containers (:func:`~repro.sim.tracefile.dump_trace_npz`), written
  with :func:`~repro.common.files.publish` so concurrent engine
  workers can share one directory.  Their members are stored, not
  deflated: a run-all's 56 traces take about 25 MB instead of 4.8 MB,
  and writing them takes about 0.1 s, where deflating took ~1.9 s,
  more than synthesizing them.  Deflated entries from older runs
  still load as disk hits.  The layer is best-effort: a failed
  write is dropped, and unreadable/corrupt entries (a truncated file,
  a member failing its CRC-32 check) fall back to synthesis and are
  overwritten.  Only ``.npz`` entries are read; any other file in the
  directory is ignored.

Traces are immutable once synthesized (a trace's columns, and the
instruction lists built from them on demand, are never mutated), which
is what makes sharing one object between simulators safe.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Optional

from ..common.errors import TraceFormatError
from ..common.files import publish
from ..sim.trace import KernelTrace
from ..sim.tracefile import dump_trace_npz, load_trace_npz
from .profiles import BenchmarkProfile, profile
from .synthetic import synthesize_trace


@functools.lru_cache(maxsize=256)
def profile_fingerprint(spec: BenchmarkProfile) -> str:
    """Stable digest of every profile field (hex SHA-256).

    Memoized on the profile's value — a frozen dataclass hashes and
    compares by its fields — so an edited profile is a new key, never
    a stale hit.
    """
    rendered = ";".join(
        f"{field.name}={getattr(spec, field.name)!r}"
        for field in fields(spec)
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def trace_key(
    spec: BenchmarkProfile,
    *,
    warps: int,
    instructions_per_warp: int,
    seed_salt: int = 0,
) -> str:
    """Content address of one synthesis request (hex SHA-256)."""
    raw = (
        f"{spec.name}|warps={warps}|instructions={instructions_per_warp}"
        f"|salt={seed_salt}|profile={profile_fingerprint(spec)}"
    )
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def request_key(
    benchmark: str,
    warps: int,
    instructions_per_warp: int,
    seed_salt: int = 0,
) -> str:
    """Content address of an engine-shaped request (hex SHA-256).

    Convenience over :func:`trace_key` for callers that hold the
    engine's ``(benchmark, warps, instructions, salt)`` tuple rather
    than a profile object — the experiment fabric digests grid cells
    through this, so a cell digest tracks profile edits exactly the
    way the trace cache itself does.
    """
    return trace_key(
        profile(benchmark),
        warps=warps,
        instructions_per_warp=instructions_per_warp,
        seed_salt=seed_salt,
    )


@dataclass
class TraceCacheStats:
    """Hit/miss counters for both cache layers."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get_or_synthesize`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """In-process hit fraction (0 when never used)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class TraceCache:
    """Two-layer (memory LRU + optional disk) trace cache.

    Thread-safe, with per-key synthesis locking: the LRU map and the
    counters sit behind one short-held lock, while disk loads and
    synthesis run under a *per-key* lock.  Two threads requesting the
    same missing trace serialize (the loser finds the winner's entry
    and counts a hit); threads requesting *different* missing traces
    synthesize concurrently — the shape the ``repro.serve`` daemon's
    executor threads need, and what the 16-thread hammer test in
    ``tests/test_trace_cache.py`` locks.
    """

    def __init__(
        self, capacity: int = 64, disk_dir: Optional[str] = None
    ) -> None:
        if capacity <= 0:
            raise ValueError("trace cache capacity must be positive")
        self.capacity = capacity
        self.disk_dir = disk_dir
        self.stats = TraceCacheStats()
        self._entries: "OrderedDict[str, KernelTrace]" = OrderedDict()
        self._lock = threading.Lock()
        #: key -> in-flight synthesis lock; entries live only while a
        #: miss is being filled (the filler drops its key on publish).
        self._key_locks: dict = {}

    # ------------------------------------------------------------------

    def configure(
        self,
        *,
        capacity: Optional[int] = None,
        disk_dir: Optional[str] = None,
        clear: bool = False,
    ) -> "TraceCache":
        """Adjust capacity / disk layer; optionally drop all entries."""
        with self._lock:
            if capacity is not None:
                if capacity <= 0:
                    raise ValueError("trace cache capacity must be positive")
                self.capacity = capacity
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
            if disk_dir is not None:
                self.disk_dir = disk_dir or None
            if clear:
                self._entries.clear()
                self.stats = TraceCacheStats()
        return self

    def clear(self) -> None:
        """Drop every in-memory entry and zero the counters."""
        self.configure(clear=True)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------

    def _disk_path(self, key: str) -> Optional[str]:
        if not self.disk_dir:
            return None
        return os.path.join(self.disk_dir, f"trace-{key}.npz")

    def _disk_load(self, key: str) -> Optional[KernelTrace]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            # The loaded trace is backed by the stored columns, which
            # are validated on load, so the simulator's plan decode
            # starts from those arrays.
            return load_trace_npz(path)
        except TraceFormatError:
            return None  # corrupt/foreign entry: fall back

    def _disk_store(self, key: str, trace: KernelTrace) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            publish(path, lambda tmp: dump_trace_npz(trace, tmp))
            with self._lock:
                self.stats.disk_writes += 1
        except OSError:
            pass  # disk layer is best-effort

    def _remember(self, key: str, trace: KernelTrace) -> None:
        self._entries[key] = trace
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------

    def get_or_synthesize(
        self,
        benchmark: str,
        *,
        warps: int = 8,
        instructions_per_warp: int = 2000,
        seed_salt: int = 0,
        spec: Optional[BenchmarkProfile] = None,
    ) -> KernelTrace:
        """The trace for this request, synthesizing at most once."""
        spec = spec if spec is not None else profile(benchmark)
        key = trace_key(
            spec,
            warps=warps,
            instructions_per_warp=instructions_per_warp,
            seed_salt=seed_salt,
        )
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return cached
            key_lock = self._key_locks.get(key)
            if key_lock is None:
                key_lock = self._key_locks[key] = threading.Lock()
        # Fill the miss under the per-key lock only: a concurrent
        # request for the same key waits here (and then reads the
        # winner's entry), while requests for other keys synthesize in
        # parallel.
        with key_lock:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return cached
                self.stats.misses += 1
            trace = self._disk_load(key)
            disk_hit = trace is not None
            if trace is None:
                trace = synthesize_trace(
                    benchmark,
                    warps=warps,
                    instructions_per_warp=instructions_per_warp,
                    seed_salt=seed_salt,
                    spec=spec,
                )
                self._disk_store(key, trace)
            with self._lock:
                if disk_hit:
                    self.stats.disk_hits += 1
                self._remember(key, trace)
                # Waiters still holding this lock object re-check the
                # entry map first, so dropping the key here is safe —
                # it just keeps the lock table from outliving misses.
                self._key_locks.pop(key, None)
            return trace

    def get_or_synthesize_many(self, requests) -> list:
        """Traces for a whole batch of requests, deduping in-batch.

        *requests* is a sequence of ``(benchmark, warps,
        instructions_per_warp, seed_salt)`` tuples — the experiment
        engine's job shape.  Duplicates within the batch resolve to
        the *same* trace object through one cache lookup, so a batched
        engine group running four mechanisms of one benchmark pays a
        single lock acquisition (and at most a single synthesis)
        instead of four.  Returns one trace per request, in order.
        """
        memo: dict = {}
        out = []
        for request in requests:
            trace = memo.get(request)
            if trace is None:
                benchmark, warps, instructions_per_warp, seed_salt = request
                trace = self.get_or_synthesize(
                    benchmark,
                    warps=warps,
                    instructions_per_warp=instructions_per_warp,
                    seed_salt=seed_salt,
                )
                memo[request] = trace
            out.append(trace)
        return out


#: Process-global cache, memory only unless :func:`configure_trace_cache`
#: sets a disk layer.
TRACE_CACHE = TraceCache()


def cached_trace(
    benchmark: str,
    *,
    warps: int = 8,
    instructions_per_warp: int = 2000,
    seed_salt: int = 0,
    spec: Optional[BenchmarkProfile] = None,
) -> KernelTrace:
    """Drop-in cached façade over ``synthesize_trace``."""
    return TRACE_CACHE.get_or_synthesize(
        benchmark,
        warps=warps,
        instructions_per_warp=instructions_per_warp,
        seed_salt=seed_salt,
        spec=spec,
    )


def configure_trace_cache(
    *,
    capacity: Optional[int] = None,
    disk_dir: Optional[str] = None,
    clear: bool = False,
) -> TraceCache:
    """Configure the process-global cache; returns it."""
    return TRACE_CACHE.configure(
        capacity=capacity, disk_dir=disk_dir, clear=clear
    )


__all__ = [
    "TraceCache",
    "TraceCacheStats",
    "TRACE_CACHE",
    "cached_trace",
    "configure_trace_cache",
    "profile_fingerprint",
    "request_key",
    "trace_key",
]
