"""Crash matrix for the five on-disk stores.

Every store writes through :mod:`repro.common.files`; this suite
checks the rule once per store, through a small adapter per store
(write version *v*, read back the versions it holds):

* **write fails** — a forked child ignores ``SIGXFSZ``, lowers
  ``RLIMIT_FSIZE`` below the new entry's size and writes a large
  version 2.  Each store keeps its own error policy (the cell cache,
  exports and ledger raise; the trace cache drops the write; codegen
  reports ``compile-failed``), version 1 stays readable, no
  ``*.tmp.*`` file is left behind, and the next write succeeds.
* **killed before rename** — a forked child whose ``os.replace``
  SIGKILLs the process writes version 2.  Version 1 stays readable
  and the next write succeeds; the killed child's orphaned temp file
  is allowed (nothing runs in a SIGKILLed process to remove it).
* **garbage at the path** (compiled kernel only) — a non-ELF file at
  the ``.so`` cache path makes ``load_cell`` rebuild once.

Garbage entries of the other stores are covered where those stores are
tested (``TestCellCache::test_garbage_entry_is_corrupt_miss``,
``test_trace_cache.py::test_corrupt_disk_entry_falls_back_to_synthesis``,
``TestRunLedger::test_malformed_and_foreign_lines_are_skipped``).

Every operation runs in a fresh fork, so no in-process memo — the
trace LRU, the codegen memo, a ``dlopen`` handle — can answer for
what is on disk.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import signal

import pytest

from repro.common.config import DEFAULT_GPU_CONFIG
from repro.experiments.engine import model_factory
from repro.experiments.fabric import CELL_SCHEMA, CellCache
from repro.sim import SmSimulator, codegen
from repro.sim.codegen import CACHE_ENV, CODEGEN_STATS, CellSpec, CompiledCell
from repro.sim.trace import KernelTrace
from repro.telemetry.export import write_json
from repro.telemetry.ledger import LEDGER_MAX_MB_ENV, RunLedger
from repro.workloads import TraceCache, synthesize_trace

#: Soft file-size limit of the *write fails* child; every store's
#: version 2 is larger than this.
FSIZE_LIMIT = 4096

#: Padding that makes version 2 large.
BIG = 64 * 1024


def _forked(fn, *, fsize_limit=None, kill_on_replace=False):
    """Run ``fn()`` in a forked child and report how it ended.

    Returns ``("returned", value)``, ``("raised", exception type
    name)`` or ``("killed", signal number)``.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        try:
            os.close(read_fd)
            if fsize_limit is not None:
                signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
                hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
                resource.setrlimit(
                    resource.RLIMIT_FSIZE, (fsize_limit, hard)
                )
            if kill_on_replace:
                os.replace = lambda *a, **k: os.kill(
                    os.getpid(), signal.SIGKILL
                )
            try:
                outcome = ("returned", fn())
            except Exception as exc:
                outcome = ("raised", type(exc).__name__)
            os.write(write_fd, pickle.dumps(outcome))
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        return ("killed", os.WTERMSIG(status))
    return pickle.loads(data)


def _needs_kernel():
    if codegen._find_cc() is None:
        pytest.skip("no C toolchain")
    pytest.importorskip("cffi")


# ----------------------------------------------------------------------
# Store adapters: write(version, big) and read() -> versions held.


class CellStore:
    name = "cell-cache"
    failed_write = ("raised", "OSError")
    after_kill = [1]
    _DIGEST = "d" * 64

    def __init__(self, root, monkeypatch):
        self.root = root
        self.cache = CellCache(str(root))

    def write(self, version, big=False):
        self.cache.store({
            "schema": CELL_SCHEMA,
            "digest": self._DIGEST,
            "job": {"benchmark": "gaussian", "mechanism": "lmi"},
            "cycles": version,
            "pad": b"x" * (BIG if big else 0),
        })

    def read(self):
        record = self.cache.load(self._DIGEST, want_events=False)
        return [] if record is None else [record["cycles"]]


class TraceStore:
    name = "trace-cache"
    failed_write = ("returned", 0)  # best-effort: the write is dropped
    after_kill = [1]
    _KEY = "k" * 64

    def __init__(self, root, monkeypatch):
        self.root = root
        self.cache = TraceCache(disk_dir=str(root))

    def write(self, version, big=False):
        source = synthesize_trace(
            "gaussian", warps=8 if big else 2,
            instructions_per_warp=2000 if big else 50,
        )
        before = self.cache.stats.disk_writes
        self.cache._disk_store(
            self._KEY, KernelTrace(name=f"v{version}", warps=source.warps)
        )
        return self.cache.stats.disk_writes - before

    def read(self):
        trace = self.cache._disk_load(self._KEY)
        return [] if trace is None else [int(trace.name[1:])]


class ExportStore:
    name = "exports"
    failed_write = ("raised", "OSError")
    after_kill = [1]

    def __init__(self, root, monkeypatch):
        self.root = root
        self.path = str(root / "metrics.json")

    def write(self, version, big=False):
        pad = "x" * (BIG if big else 0)
        write_json(self.path, {"version": version, "pad": pad})

    def read(self):
        try:
            with open(self.path, encoding="utf-8") as handle:
                return [json.load(handle)["version"]]
        except FileNotFoundError:
            return []


class LedgerStore:
    name = "ledger"
    failed_write = ("raised", "OSError")
    # The append lands before the compaction it triggers is killed.
    after_kill = [1, 2]

    def __init__(self, root, monkeypatch):
        self.root = root
        self.ledger = RunLedger(str(root / "ledger.jsonl"))
        # ~1 KB cap: a large version 2 makes its append compact the
        # file, the store's only rename.
        monkeypatch.setenv(LEDGER_MAX_MB_ENV, "0.001")

    def write(self, version, big=False):
        self.ledger.record(
            "benchmark", "durable",
            metrics={"version": float(version)},
            config={"pad": "x" * (BIG if big else 0)},
        )

    def read(self):
        return [
            int(record["metrics"]["version"])
            for record in self.ledger.read()
        ]


class KernelStore:
    name = "codegen"
    failed_write = ("returned", "compile-failed")
    after_kill = [1]

    def __init__(self, root, monkeypatch):
        _needs_kernel()
        self.root = root
        monkeypatch.setenv(CACHE_ENV, str(root))

    @staticmethod
    def _spec(version):
        # One cell (and one .so) per version; every .so is larger than
        # FSIZE_LIMIT, so each version counts as large.
        return CellSpec(
            has_probes=False, l1_ways=4, l1_latency=40 + version,
            l2_ways=8, l2_latency=201, dram_latency=351,
            line_cycles=4, tx_cycles=4,
        )

    def write(self, version, big=False):
        cell = codegen._load_uncached(self._spec(version))
        return "compiled" if isinstance(cell, CompiledCell) else cell

    def read(self):
        # Load without building: only kernels already on disk count.
        codegen._compile_so = lambda *args: False
        return [
            version for version in (1, 2, 3)
            if isinstance(
                codegen._load_uncached(self._spec(version)), CompiledCell
            )
        ]


STORES = [CellStore, TraceStore, ExportStore, LedgerStore, KernelStore]


@pytest.fixture(params=STORES, ids=[store.name for store in STORES])
def store(request, tmp_path, monkeypatch):
    return request.param(tmp_path / "store", monkeypatch)


def _temp_files(root):
    return sorted(p.name for p in root.rglob("*") if ".tmp." in p.name)


def _write(store, version, **kwargs):
    outcome = _forked(lambda: store.write(version, **kwargs))
    assert outcome[0] == "returned", outcome
    return outcome[1]


def _read(store):
    outcome = _forked(store.read)
    assert outcome[0] == "returned", outcome
    return outcome[1]


def test_write_fails_keeps_old_version_and_leaves_no_temp(store):
    _write(store, 1)
    outcome = _forked(
        lambda: store.write(2, big=True), fsize_limit=FSIZE_LIMIT
    )
    assert outcome == store.failed_write
    assert _read(store) == [1]
    assert _temp_files(store.root) == []
    _write(store, 3)
    assert _read(store)[-1] == 3


def test_killed_before_rename_keeps_old_version(store):
    _write(store, 1)
    outcome = _forked(lambda: store.write(2, big=True), kill_on_replace=True)
    assert outcome == ("killed", signal.SIGKILL)
    assert _read(store) == store.after_kill
    # The killed child's temp file may remain; it is never read.
    _write(store, 3)
    assert _read(store)[-1] == 3


# ----------------------------------------------------------------------
# Garbage at the compiled-kernel path.


def _baseline_cycles(trace):
    simulator = SmSimulator(DEFAULT_GPU_CONFIG, model_factory("baseline"))
    return simulator.run(trace).cycles


def test_garbage_kernel_is_rebuilt_once(tmp_path, monkeypatch, fresh_memo):
    _needs_kernel()
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    trace = synthesize_trace("needle", warps=2, instructions_per_warp=100)
    # The fresh build runs in a child, so this process has never
    # loaded the .so: dlopen must read what is on disk.
    fresh = _forked(lambda: _baseline_cycles(trace))
    assert fresh[0] == "returned", fresh
    [so_path] = tmp_path.glob("lmi_cell_*.so")
    # Garbage arrives under a new inode, as a rename by another writer
    # would place it: dlopen hands back an object already loaded from
    # the same inode without reading the file.
    garbage = tmp_path / "garbage"
    garbage.write_bytes(b"not an ELF object\n")
    os.replace(garbage, so_path)
    failures = CODEGEN_STATS.failures
    compiles = CODEGEN_STATS.compiles
    assert _baseline_cycles(trace) == fresh[1]
    assert CODEGEN_STATS.compiles == compiles + 1
    assert CODEGEN_STATS.failures == failures
    assert so_path.read_bytes()[:4] == b"\x7fELF"
