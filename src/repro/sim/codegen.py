"""Build, cache and load the native C units.

Three fixed translation units run the reproduction's hot loops: the
simulator kernel (``sim/kernel.c``, :mod:`repro.sim.native`), the
issue-plan decoder (``sim/plan.c``, :mod:`repro.sim.plan`) and the
trace synthesizer (``workloads/synthetic.c``,
:mod:`repro.workloads.synthetic`).  None is generated: each takes what
varies (a cell's machine, a model's parameters, a profile) in a
parameter block, so one build serves every configuration.
:func:`load_cell` is the one way in:

* **Declarations from the source.**  A unit's cffi declarations are
  the text between its ``/* cdef-begin */`` and ``/* cdef-end */``
  markers, so the C file is the only copy of its interface.
* **Race-safe on-disk cache.**  Shared objects are keyed by (source
  digest, compiler identity, flags) under a per-user cache directory
  (``REPRO_NATIVE_CACHE`` overrides).  The source and the compiler's
  output are published with :func:`~repro.common.files.publish` under
  a per-key ``flock``, so concurrent ``--jobs`` workers either reuse a
  finished build or wait for the one in flight: ``cc -O2 -shared
  -fPIC`` runs at most once per unit per machine, and warm runs never
  invoke it.
* **Fallback reasons, not exceptions.**  With no cffi or no C compiler
  a unit is ``"no-toolchain"`` and nothing is compiled; a failed build
  is ``"compile-failed"``.  Each caller then takes its Python or NumPy
  path and counts the reason through
  :func:`repro.sim.native.note_fallback`.

Compile/cache activity is observable through :data:`CODEGEN_STATS`
and the :data:`repro.sim.native.NATIVE_DIAG` diagnostics registry —
deliberately *not* the main telemetry registry, whose exported
snapshots must stay byte-identical across engines and batch sizes.
"""

from __future__ import annotations

import hashlib
import logging
import os
import subprocess
import tempfile
import threading
import time
from contextlib import suppress
from pathlib import Path
from shutil import which
from typing import Dict, Optional, Tuple, Union

from ..common.files import locked, publish

__all__ = [
    "CACHE_ENV",
    "CODEGEN_STATS",
    "cell_cache_dir",
    "load_cell",
]

log = logging.getLogger("repro.sim.codegen")

#: Overrides the on-disk directory for built units.
CACHE_ENV = "REPRO_NATIVE_CACHE"


class CodegenStats:
    """Process-wide codegen/compile accounting (see BENCH_sim.json)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.compiles = 0
        self.compile_seconds = 0.0
        self.disk_hits = 0
        self.memo_hits = 0
        self.failures = 0
        self.batch_calls = 0
        self.batch_cells = 0
        self.max_batch = 0
        #: Unit name -> the digest of its loaded build.
        self.cells: Dict[str, str] = {}

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view for benchmark/ledger archiving."""
        return {
            "compiles": self.compiles,
            "compile_seconds": self.compile_seconds,
            "disk_hits": self.disk_hits,
            "memo_hits": self.memo_hits,
            "failures": self.failures,
            "batch_calls": self.batch_calls,
            "batch_cells": self.batch_cells,
            "max_batch": self.max_batch,
            "cells": dict(self.cells),
        }


#: Singleton compile/cache/batch accounting for this process.
CODEGEN_STATS = CodegenStats()


# ----------------------------------------------------------------------
# Compile, cache, load.


def cell_cache_dir() -> str:
    """On-disk directory for the built units and their sources."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    tag = (
        f"repro-sim-native-{os.getuid()}"
        if hasattr(os, "getuid")
        else "repro-sim-native"
    )
    return os.path.join(tempfile.gettempdir(), tag)


def _find_cc() -> Optional[str]:
    return which("cc") or which("gcc") or which("clang")


def _cc_identity(cc: str) -> str:
    """Compiler identity token for the build-cache key.

    The resolved path plus its mtime/size: a compiler upgrade (or a
    different toolchain at the same PATH name) changes the key, so a
    stale ``.so`` is never dlopen'ed against the wrong build.
    """
    try:
        st = os.stat(cc)
        return f"{os.path.realpath(cc)}:{st.st_mtime_ns}:{st.st_size}"
    except OSError:
        return os.path.realpath(cc)


#: The one compile-flag set; part of the build-cache key.
_FLAGS: Tuple[str, ...] = ("-O2", "-shared", "-fPIC")

#: The markers a unit's cffi declarations sit between.
_CDEF_BEGIN, _CDEF_END = "/* cdef-begin */", "/* cdef-end */"

#: A loaded unit, ``(ffi, lib)``, or the reason it is unavailable:
#: ``"no-toolchain"`` or ``"compile-failed"``.
Loaded = Union[Tuple[object, object], str]

# In-process memo: a unit's path -> what :func:`load_cell` returned.
_MEMO: Dict[str, Loaded] = {}
_MEMO_LOCK = threading.Lock()


def _compile_so(cc: str, source: str, so_path: str) -> bool:
    """Compile *source* into *so_path* (atomic publish).  True on OK."""
    src_path = so_path[:-3] + ".c"  # kept next to the .so

    def compile_to(tmp: str) -> None:
        started = time.perf_counter()
        subprocess.run(
            [cc, *_FLAGS, "-o", tmp, src_path],
            capture_output=True,
            check=True,
        )
        CODEGEN_STATS.compiles += 1
        CODEGEN_STATS.compile_seconds += time.perf_counter() - started

    os.makedirs(os.path.dirname(so_path), exist_ok=True)
    # Concurrent builders of one unit (pool workers, parallel pytest)
    # serialize here; the loser finds the finished .so inside the lock.
    # Without fcntl there is no lock, but the publish stays atomic:
    # the worst case is a redundant compile.
    with locked(so_path + ".lock"):
        if os.path.exists(so_path):
            return True  # another worker finished the build first
        try:
            publish(
                src_path, lambda tmp: Path(tmp).write_text(source, "utf-8")
            )
            publish(so_path, compile_to)
        except (OSError, subprocess.CalledProcessError):
            return False
        return True


def _build(stem: str, source: str) -> Loaded:
    """Compile *source* into the disk cache (or reuse its build) and
    dlopen it as ``stem_<digest>.so``."""
    try:
        from cffi import FFI
    except ImportError:
        return "no-toolchain"
    cc = _find_cc()
    if cc is None:
        return "no-toolchain"
    _, begin, rest = source.partition(_CDEF_BEGIN)
    cdef, end, _ = rest.partition(_CDEF_END)
    if not (begin and end):
        log.warning("native unit %s declares no cdef", stem)
        return "compile-failed"
    key = "\x00".join((source, _cc_identity(cc), " ".join(_FLAGS)))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    so_path = os.path.join(cell_cache_dir(), f"{stem}_{digest}.so")
    try:
        ffi = FFI()
        ffi.cdef(cdef)
        if os.path.exists(so_path):
            CODEGEN_STATS.disk_hits += 1
        elif not _compile_so(cc, source, so_path):
            return "compile-failed"
        try:
            lib = ffi.dlopen(so_path)
        except OSError:
            # A torn or foreign file at the cache path: rebuild once.
            with suppress(OSError):
                os.unlink(so_path)
            if not _compile_so(cc, source, so_path):
                return "compile-failed"
            lib = ffi.dlopen(so_path)
    except Exception:
        return "compile-failed"
    CODEGEN_STATS.cells[stem] = digest
    return ffi, lib


def load_cell(path: Union[str, "os.PathLike[str]"]) -> Loaded:
    """``(ffi, lib)`` of the C unit at *path*, or a fallback reason.

    The unit is built into the disk cache on its first use on this
    machine and loaded once per process; a failure is memoized too.
    Returns ``"no-toolchain"`` when cffi or a C compiler is missing
    (nothing is compiled then) and ``"compile-failed"`` when the unit
    cannot be read, built or loaded.
    """
    key = os.fspath(path)
    with _MEMO_LOCK:
        cached = _MEMO.get(key)
        if cached is not None:
            if not isinstance(cached, str):
                CODEGEN_STATS.memo_hits += 1
            return cached
    stem = Path(key).stem
    try:
        source = Path(key).read_text("utf-8")
    except OSError:
        loaded: Loaded = "compile-failed"
    else:
        loaded = _build(stem, source)
    if isinstance(loaded, str):
        CODEGEN_STATS.failures += 1
        log.info(
            "native %s unavailable (%s); using the Python path", stem, loaded
        )
    with _MEMO_LOCK:
        _MEMO[key] = loaded
    return loaded


def _reset_memo() -> None:
    """Drop the in-process unit memo (tests only)."""
    with _MEMO_LOCK:
        _MEMO.clear()
