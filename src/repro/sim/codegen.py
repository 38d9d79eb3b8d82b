"""Per-cell native codegen for the columnar simulator.

The first native executor (PR 3's ``sim/native.py``) shipped one
fixed C kernel: every latency, way count and the GPUShield probe path
arrived as runtime arguments, every trace paid one FFI crossing, and
warp counts past the 64-bit ready mask silently fell back to Python.
This module replaces that kernel with *generated* C, specialized per
(timing-model, mechanism) **cell**:

* **Constant folding.**  The cell's declared latencies (L1/L2 hit,
  DRAM, line streaming, LSU transaction serialization) and cache way
  counts are baked into the source as literals, so the compiler
  unrolls the set-associative LRU scan for the cell's exact
  associativity instead of looping over a runtime ``ways``.
* **Path elision.**  Cells whose issue plans never carry RCache
  probes (baseline, LMI, Baggy Bounds) are compiled without the
  GPUShield probe/RCache code at all — not branched around, absent.
* **Multi-word ready mask.**  Each cell carries one scheduler, over a
  ready mask of as many ``uint64_t`` words as the trace has warps, so
  >64-warp traces stop silently losing the native path.
* **One ABI for every cell.**  All cells export the same one entry
  point, ``lmi_cell_run_batch``: N traces through one crossing, run
  one after another, each as a scalar block and a pointer slab; the
  slab's first 20 slots are the issue plan's columns, in the order
  and under the names :mod:`repro.sim.columnar` defines them.  The
  Python side (:mod:`repro.sim.native`) therefore marshals
  identically for every cell and can group mixed workloads by cell.
* **Race-safe on-disk cache.**  Shared objects are keyed by (source
  digest, compiler identity, flags) under a per-user cache directory
  (``REPRO_NATIVE_CACHE`` overrides).  The source and the compiler's
  output are published with :func:`~repro.common.files.publish` under
  a per-key ``flock``, so concurrent ``--jobs`` workers either reuse a
  finished build or wait for the one in flight — ``cc`` runs at most
  once per cell per machine, and warm runs never invoke it.  The
  same path builds the two fixed translation units that are not
  generated, the trace synthesizer of :mod:`repro.workloads.synthetic`
  and the plan decoder of :mod:`repro.sim.plan`
  (:func:`load_source`).
* **Serial batches.**  A batch runs its cells one after another on
  the calling thread, compiled with one flag set (``-O2 -shared
  -fPIC``).  Parallelism lives above the kernel: grids spread over
  forked ``--jobs`` workers, and the serve daemon's executor threads
  each cross the FFI on their own (cffi releases the GIL for the
  call).

Semantics are never specialized away: every generated kernel replays
the exact GTO scheduler, LRU cache and DRAM-channel behaviour of
:func:`repro.sim.columnar.run_columnar`, locked by the equivalence
suite against :mod:`repro.sim.reference` cell by cell.

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
from dataclasses import dataclass
from pathlib import Path
from shutil import which
from typing import Callable, Dict, Optional, Tuple, Union

from ..common.files import locked, publish
from .columnar import PLAN_COLUMNS, PROBE_COLUMNS

__all__ = [
    "CACHE_ENV",
    "NPTRS",
    "NSCALARS",
    "OUT_SLOTS",
    "CellSpec",
    "CompiledCell",
    "CODEGEN_STATS",
    "cell_cache_dir",
    "generate_cell_source",
    "load_cell",
    "load_source",
]

log = logging.getLogger("repro.sim.codegen")

#: Overrides the on-disk directory for generated sources and ``.so``s.
CACHE_ENV = "REPRO_NATIVE_CACHE"

#: Pointer-slab slots per cell (run columns, record tables, line and
#: probe geometry, cache tag/touched arrays, DRAM timeline, event
#: buffer, output block) — one uniform ABI for every generated cell.
NPTRS = 29

#: Scalar slots per cell: warp_count, ev_cap.
NSCALARS = 2

#: ``int64`` output slots per cell: 13 result counters (matching the
#: historical fixed kernel) plus a status word.
OUT_SLOTS = 14

_CDEF = """
void lmi_cell_run_batch(int64_t n, const int64_t *scalars, void **ptrs);
"""


@dataclass(frozen=True)
class CellSpec:
    """Everything a (timing-model, mechanism) cell folds into its C.

    Two cells with equal specs generate byte-identical sources and
    therefore share one compiled object (the disk cache is keyed on
    the source digest) — e.g. baseline, LMI and Baggy Bounds under one
    :class:`~repro.common.config.GpuConfig` all lower to the same
    probe-free kernel, while GPUShield compiles the probe variant.
    """

    has_probes: bool
    l1_ways: int
    l1_latency: int
    l2_ways: int
    l2_latency: int
    dram_latency: int
    line_cycles: int
    tx_cycles: int
    rc_ways: int = 0

    def describe(self) -> str:
        """Compact human-readable cell label (stats, log lines)."""
        core = (
            f"l1={self.l1_ways}w/{self.l1_latency}c"
            f":l2={self.l2_ways}w/{self.l2_latency}c"
            f":dram={self.dram_latency}+{self.line_cycles}"
            f":tx={self.tx_cycles}"
        )
        if self.has_probes:
            return f"probes:rc={self.rc_ways}w:{core}"
        return f"plain:{core}"


@dataclass
class CompiledCell:
    """A dlopen'ed per-cell kernel plus its provenance."""

    spec: CellSpec
    digest: str
    so_path: str
    ffi: object
    lib: object


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
# C source generation.


def _lru_function(ways: int) -> str:
    """Set-associative LRU row probe specialized for *ways*.

    ``row[0]`` is the LRU victim, ``row[occupancy-1]`` the MRU; ``-1``
    marks empty slots.  Mirrors :class:`~repro.sim.cache.ArrayLruCache`
    rows exactly (hit promotes to MRU, miss fills or evicts the LRU
    slot).  The trip counts are compile-time constants, so the
    compiler fully unrolls both scans.
    """
    return f"""
static int lru_hit_w{ways}(int64_t *row, int64_t tag)
{{
    int64_t i, j, t;
    for (i = 0; i < {ways}; i++) {{
        t = row[i];
        if (t == tag) {{
            for (j = i + 1; j < {ways} && row[j] != -1; j++)
                row[j - 1] = row[j];
            row[j - 1] = tag;
            return 1;
        }}
        if (t == -1)
            break;
    }}
    if (i == {ways}) {{
        for (j = 1; j < {ways}; j++)
            row[j - 1] = row[j];
        row[{ways} - 1] = tag;
    }} else {{
        row[i] = tag;
    }}
    return 0;
}}
"""


def _unpack_block(spec: CellSpec) -> str:
    """Pointer-slab and scalar-block unpack prologue.

    Slots 0–19 are the issue plan's columns, under their
    :class:`~repro.sim.columnar.IssuePlan` names and in its slab order
    (the probe columns only in probe cells).
    """
    columns = PLAN_COLUMNS + (PROBE_COLUMNS if spec.has_probes else ())
    lines = [
        f"    const int64_t *{name} = (const int64_t *)pp[{slot}];"
        for slot, name in enumerate(columns)
    ]
    if spec.has_probes:
        lines += [
            "    int64_t *rc_tags = (int64_t *)pp[22];",
            "    uint8_t *rc_touched = (uint8_t *)pp[25];",
        ]
    lines += [
        "    int64_t *l1_tags = (int64_t *)pp[20];",
        "    int64_t *l2_tags = (int64_t *)pp[21];",
        "    uint8_t *l1_touched = (uint8_t *)pp[23];",
        "    uint8_t *l2_touched = (uint8_t *)pp[24];",
        "    int64_t *free_at = (int64_t *)pp[26];",
        "    int64_t *ev_buf = (int64_t *)pp[27];",
        "    int64_t *out = (int64_t *)pp[28];",
        "    const int64_t warp_count = sc[0];",
        "    const int64_t ev_cap = sc[1];",
    ]
    return "\n".join(lines)


def _counter_block(spec: CellSpec) -> str:
    lines = [
        "    int64_t live = 0, clock = 0, next_wake = NEVER, stall = 0;",
        "    int64_t l1h = 0, l1m = 0, l2h = 0, l2m = 0;",
        "    int64_t dreq = 0, dqd = 0;",
        "    int64_t ev_n = 0;",
        "    int64_t w;",
    ]
    if spec.has_probes:
        lines.insert(3, "    int64_t rch = 0, rcm = 0, pl2h = 0, pl2m = 0;")
    return "\n".join(lines)


def _probe_mid_block(spec: CellSpec) -> str:
    """Probe walk for state-only (non-final) memory records."""
    if not spec.has_probes:
        return ""
    return f"""
                    for (li = rec_probe_start[rec];
                         li < rec_probe_start[rec + 1]; li++) {{
                        int64_t rs = probe_rcs[li];
                        rc_touched[rs] = 1;
                        if (lru_hit_w{spec.rc_ways}(
                                rc_tags + rs * {spec.rc_ways},
                                probe_rct[li])) {{
                            rch++;
                            continue;
                        }}
                        rcm++;
                        {{
                            int64_t s2 = probe_mls[li];
                            l2_touched[s2] = 1;
                            if (lru_hit_w{spec.l2_ways}(
                                    l2_tags + s2 * {spec.l2_ways},
                                    probe_mlt[li])) {{
                                pl2h++;
                            }} else {{
                                int64_t now = clock + rec_rel[rec];
                                int64_t ch = probe_mch[li];
                                int64_t fr = free_at[ch];
                                int64_t st = now >= fr ? now : fr;
                                pl2m++;
                                free_at[ch] = st + {spec.line_cycles};
                                dreq++;
                                dqd += st - now;
                            }}
                        }}
                    }}"""


def _probe_final_block(spec: CellSpec) -> str:
    """Probe walk for the run-final stateful memory record."""
    if not spec.has_probes:
        return ""
    return f"""
                    {{
                        int64_t extra = 0, pslow = 0, plat;
                        for (li = rec_probe_start[rec];
                             li < rec_probe_start[rec + 1]; li++) {{
                            int64_t rs = probe_rcs[li];
                            rc_touched[rs] = 1;
                            if (lru_hit_w{spec.rc_ways}(
                                    rc_tags + rs * {spec.rc_ways},
                                    probe_rct[li])) {{
                                rch++;
                                continue;
                            }}
                            rcm++;
                            extra++;
                            {{
                                int64_t s2 = probe_mls[li];
                                l2_touched[s2] = 1;
                                if (lru_hit_w{spec.l2_ways}(
                                        l2_tags + s2 * {spec.l2_ways},
                                        probe_mlt[li])) {{
                                    pl2h++;
                                    plat = {spec.l2_latency};
                                }} else {{
                                    int64_t ch = probe_mch[li];
                                    int64_t fr = free_at[ch];
                                    int64_t st = now >= fr ? now : fr;
                                    pl2m++;
                                    free_at[ch] = st + {spec.line_cycles};
                                    dreq++;
                                    dqd += st - now;
                                    plat = st + {spec.dram_latency} - now;
                                }}
                            }}
                            if (plat > pslow)
                                pslow = plat;
                        }}
                        if (extra > 1)
                            pslow += {spec.tx_cycles} * (extra - 1);
                        slowest += pslow;
                    }}"""


def _issue_body(spec: CellSpec) -> str:
    """One issue-slot body: issue event, memory walk, retire.

    Identical in semantics to the Python issue loop — latencies and
    way counts are the only things folded to literals.
    """
    return f"""        {{
            int64_t ri = ridx[w]++;
            int64_t length = run_length[ri];
            int64_t comp = run_comp[ri];
            int64_t lo = run_mem_lo[ri];
            int64_t hi = run_mem_hi[ri];
            int64_t complete;

            if (ev_buf && ev_n < ev_cap) {{
                int64_t eb = ev_n * 3;
                ev_buf[eb] = clock;
                ev_buf[eb + 1] = w;
                ev_buf[eb + 2] = length;
                ev_n++;
            }}

            if (lo != hi) {{
                int64_t base = rec_base[w];
                int64_t last = (comp >= 0) ? hi : hi - 1;
                int64_t m, li, rec;
                for (m = lo; m < last; m++) {{
                    rec = base + m;
                    for (li = rec_line_start[rec];
                         li < rec_line_start[rec + 1]; li++) {{
                        int64_t s1 = line_l1s[li];
                        l1_touched[s1] = 1;
                        if (lru_hit_w{spec.l1_ways}(
                                l1_tags + s1 * {spec.l1_ways},
                                line_l1t[li])) {{
                            l1h++;
                        }} else {{
                            int64_t s2 = line_l2s[li];
                            l1m++;
                            l2_touched[s2] = 1;
                            if (lru_hit_w{spec.l2_ways}(
                                    l2_tags + s2 * {spec.l2_ways},
                                    line_l2t[li])) {{
                                l2h++;
                            }} else {{
                                int64_t now = clock + rec_rel[rec];
                                int64_t ch = line_ch[li];
                                int64_t fr = free_at[ch];
                                int64_t st = now >= fr ? now : fr;
                                l2m++;
                                free_at[ch] = st + {spec.line_cycles};
                                dreq++;
                                dqd += st - now;
                            }}
                        }}
                    }}{_probe_mid_block(spec)}
                }}
                if (comp < 0) {{
                    int64_t slowest = 0;
                    int64_t now, lat, cand;
                    rec = base + last;
                    now = clock + rec_rel[rec];
                    for (li = rec_line_start[rec];
                         li < rec_line_start[rec + 1]; li++) {{
                        int64_t s1 = line_l1s[li];
                        l1_touched[s1] = 1;
                        if (lru_hit_w{spec.l1_ways}(
                                l1_tags + s1 * {spec.l1_ways},
                                line_l1t[li])) {{
                            l1h++;
                            lat = {spec.l1_latency};
                        }} else {{
                            int64_t s2 = line_l2s[li];
                            l1m++;
                            l2_touched[s2] = 1;
                            if (lru_hit_w{spec.l2_ways}(
                                    l2_tags + s2 * {spec.l2_ways},
                                    line_l2t[li])) {{
                                l2h++;
                                lat = {spec.l2_latency};
                            }} else {{
                                int64_t ch = line_ch[li];
                                int64_t fr = free_at[ch];
                                int64_t st = now >= fr ? now : fr;
                                l2m++;
                                free_at[ch] = st + {spec.line_cycles};
                                dreq++;
                                dqd += st - now;
                                lat = st + {spec.dram_latency} - now;
                            }}
                        }}
                        cand = lat + line_txo[li];
                        if (cand > slowest)
                            slowest = cand;
                    }}{_probe_final_block(spec)}
                    comp = length - 2 + slowest - comp;
                }}
            }}

            complete = clock + comp;
            clock += length;
{_RETIRE}
        }}"""


_RETIRE = """            if (ridx[w] == run_start[w + 1]) {
                live--;
                ready[cur_word] &= ~cur_bit;
                ready_count--;
                finals[w] = complete;
            } else if (complete > clock) {
                if (ready_count == 1 && next_wake >= complete) {
                    stall += complete - clock;
                    clock = complete;
                } else {
                    ready[cur_word] &= ~cur_bit;
                    ready_count--;
                    wake_at[w] = complete;
                    if (complete < next_wake)
                        next_wake = complete;
                }
            }"""


def _epilogue_block(spec: CellSpec) -> str:
    probes = (
        """        out[6] = rch;
        out[7] = rcm;
        out[8] = pl2h;
        out[9] = pl2m;"""
        if spec.has_probes
        else """        out[6] = 0;
        out[7] = 0;
        out[8] = 0;
        out[9] = 0;"""
    )
    return f"""    {{
        int64_t finish = 0;
        for (w = 0; w < warp_count; w++)
            if (finals[w] > finish)
                finish = finals[w];
        out[0] = l1h;
        out[1] = l1m;
        out[2] = l2h;
        out[3] = l2m;
        out[4] = dreq;
        out[5] = dqd;
{probes}
        out[10] = stall;
        out[11] = finish;
        out[12] = ev_n;
        out[13] = 0;
        free(scratch);
    }}"""


def _scheduler(spec: CellSpec) -> str:
    """The GTO scheduler over a multi-word ready mask, any warp count.

    Oldest ready warp = lowest set bit scanning the mask words upward,
    current-warp priority on ties, and the single-ready clock
    fast-forward expressed through an incrementally maintained
    ``ready_count`` (only the current warp is ready when
    ``ready_count == 1``, since it holds its bit).  Scheduler scratch
    is one heap block; on allocation failure the kernel reports status
    1 *before touching any simulator state*, and the caller falls back
    to the Python loop.
    """
    return f"""
static void lmi_run_one(const int64_t *sc, void *const *pp)
{{
{_unpack_block(spec)}
    int64_t n_words = (warp_count + 63) >> 6;
    int64_t *scratch = (int64_t *)malloc(
        (size_t)(warp_count * 3 + n_words) * sizeof(int64_t));
    int64_t *wake_at, *ridx, *finals;
    uint64_t *ready;
    int64_t ready_count = 0;
    int64_t current = 0, cur_word = 0;
    uint64_t cur_bit = 1;
    int64_t k;
{_counter_block(spec)}

    if (!scratch) {{
        out[13] = 1;
        return;
    }}
    wake_at = scratch;
    ridx = scratch + warp_count;
    finals = scratch + warp_count * 2;
    ready = (uint64_t *)(scratch + warp_count * 3);
    for (k = 0; k < n_words; k++)
        ready[k] = 0;

    for (w = 0; w < warp_count; w++) {{
        wake_at[w] = NEVER;
        finals[w] = 0;
        ridx[w] = run_start[w];
        if (run_start[w] < run_start[w + 1]) {{
            ready[w >> 6] |= (uint64_t)1 << (w & 63);
            live++;
            ready_count++;
        }}
    }}

    while (live) {{
        if (next_wake <= clock) {{
            int64_t nw = NEVER, t;
            for (w = 0; w < warp_count; w++) {{
                t = wake_at[w];
                if (t <= clock) {{
                    ready[w >> 6] |= (uint64_t)1 << (w & 63);
                    wake_at[w] = NEVER;
                    ready_count++;
                }} else if (t < nw) {{
                    nw = t;
                }}
            }}
            next_wake = nw;
        }}
        if (ready_count) {{
            if (!(ready[cur_word] & cur_bit)) {{
                int b;
                for (k = 0; !ready[k]; k++)
                    ;
                b = (int)__builtin_ctzll(ready[k]);
                cur_word = k;
                cur_bit = (uint64_t)1 << b;
                current = (k << 6) + b;
            }}
        }} else {{
            stall += next_wake - clock;
            clock = next_wake;
            continue;
        }}
        w = current;
{_issue_body(spec)}
    }}

{_epilogue_block(spec)}
}}
"""


def generate_cell_source(spec: CellSpec) -> str:
    """The complete C translation unit for *spec*.

    Deterministic: equal specs yield byte-identical sources (this is
    what keys the on-disk build cache).
    """
    ways = sorted({spec.l1_ways, spec.l2_ways} | (
        {spec.rc_ways} if spec.has_probes else set()
    ))
    lru_functions = "".join(_lru_function(w) for w in ways)
    return f"""/* Generated by repro.sim.codegen — do not edit.
 * cell: {spec.describe()}
 */
#include <stdint.h>
#include <stdlib.h>

#define NEVER ((int64_t)1 << 62)

enum {{ LMI_NPTRS = {NPTRS}, LMI_NSCALARS = {NSCALARS} }};
{lru_functions}{_scheduler(spec)}
void lmi_cell_run_batch(int64_t n, const int64_t *sc, void **pp)
{{
    int64_t i;
    for (i = 0; i < n; i++)
        lmi_run_one(sc + i * LMI_NSCALARS,
                    (void *const *)(pp + i * LMI_NPTRS));
}}
"""


# ----------------------------------------------------------------------
# Compile, cache, load.


def cell_cache_dir() -> str:
    """On-disk directory for generated sources and shared objects."""
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

# In-process memo: CellSpec (or a fixed source's ``(stem, source)``)
# -> the loaded kernel, or str (the fallback reason: "no-toolchain" /
# "compile-failed").
_MEMO: Dict[object, object] = {}
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
    # Concurrent builders of one cell (pool workers, parallel pytest)
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


def _dlopen(so_path: str, cdef: str):
    from cffi import FFI

    ffi = FFI()
    ffi.cdef(cdef)
    return ffi, ffi.dlopen(so_path)


def _build(
    stem: str, source: str, cdef: str
) -> Union[Tuple[str, str, object, object], str]:
    """Compile *source* into the disk cache (or reuse its build) and
    dlopen it as ``stem_<digest>.so``.

    Returns ``(digest, so_path, ffi, lib)``, ``"no-toolchain"`` when no
    C compiler is on ``PATH``, or ``"compile-failed"`` when the source
    failed to build or load.
    """
    cc = _find_cc()
    if cc is None:
        return "no-toolchain"
    key = "\x00".join((source, _cc_identity(cc), " ".join(_FLAGS)))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    so_path = os.path.join(cell_cache_dir(), f"{stem}_{digest}.so")
    try:
        if os.path.exists(so_path):
            CODEGEN_STATS.disk_hits += 1
        elif not _compile_so(cc, source, so_path):
            return "compile-failed"
        try:
            ffi, lib = _dlopen(so_path, cdef)
        except Exception:
            # A torn or foreign file at the cache path: rebuild once.
            try:
                os.unlink(so_path)
            except OSError:
                pass
            if not _compile_so(cc, source, so_path):
                return "compile-failed"
            ffi, lib = _dlopen(so_path, cdef)
    except Exception:
        return "compile-failed"
    return digest, so_path, ffi, lib


def _load_uncached(spec: CellSpec) -> Union[CompiledCell, str]:
    try:
        source = generate_cell_source(spec)
    except Exception:  # pragma: no cover - generator bug safety net
        log.exception("cell source generation failed for %s", spec)
        return "compile-failed"
    built = _build("lmi_cell", source, _CDEF)
    if isinstance(built, str):
        return built
    digest, so_path, ffi, lib = built
    CODEGEN_STATS.cells[spec.describe()] = digest
    return CompiledCell(
        spec=spec, digest=digest, so_path=so_path, ffi=ffi, lib=lib
    )


def _memoized(key, load: Callable[[], object], label: str):
    """``load()`` once per process per *key*; failures are memoized too."""
    with _MEMO_LOCK:
        cached = _MEMO.get(key)
        if cached is not None:
            if not isinstance(cached, str):
                CODEGEN_STATS.memo_hits += 1
            return cached
    loaded = load()
    if isinstance(loaded, str):
        CODEGEN_STATS.failures += 1
        log.info(
            "native %s unavailable (%s); using the Python loop",
            label,
            loaded,
        )
    with _MEMO_LOCK:
        _MEMO[key] = loaded
    return loaded


def load_cell(spec: CellSpec) -> Union[CompiledCell, str]:
    """The compiled kernel for *spec*, or a fallback-reason string.

    Memoized per process; the on-disk ``.so`` cache makes the first
    in-process load of a previously-built cell a pure ``dlopen``.
    Returns ``"no-toolchain"`` when no C compiler is on ``PATH`` and
    ``"compile-failed"`` when the cell failed to build or load.
    """
    return _memoized(
        spec, lambda: _load_uncached(spec), f"cell {spec.describe()}"
    )


def load_source(
    stem: str, source: str, cdef: str
) -> Union[Tuple[object, object], str]:
    """``(ffi, lib)`` for a fixed C *source*, or a fallback-reason string.

    The same compile, disk cache and memo as :func:`load_cell`, for a
    translation unit that is not generated per cell (the trace
    synthesizer's, the plan decoder's).  *cdef* declares what the
    library exports.
    """

    def load() -> Union[Tuple[object, object], str]:
        built = _build(stem, source, cdef)
        if isinstance(built, str):
            return built
        digest, _, ffi, lib = built
        CODEGEN_STATS.cells[stem] = digest
        return ffi, lib

    return _memoized((stem, source), load, stem)


def _reset_memo() -> None:
    """Drop the in-process kernel memo (tests only)."""
    with _MEMO_LOCK:
        _MEMO.clear()

