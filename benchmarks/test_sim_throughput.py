"""Bench: columnar simulator throughput → ``BENCH_sim.json``.

Measures the simulator's fast path (the generated C kernel when a
toolchain is present, else the pure-Python columnar loop) against the
scalar oracle, ``reference_simulate``, over the Figure 12 profile set,
one cell per (benchmark × timing model):

1. **Equivalence gate.**  Every cell first simulates cold on both the
   fast path and the oracle and asserts identical cycles and
   :class:`SimStats` — the speedup of a wrong simulator is
   meaningless, so timing only starts after the digests match.
2. **Interleaved timing.**  Oracle and fast-path runs alternate inside
   the same measurement window (min of N reps each), so slow machine
   drift cannot manufacture or hide a speedup.
3. **Floor.**  The archived geomean speedup must clear ``3.0×`` when
   the native executor is active (it measures ~12–20× here); without a
   C toolchain the pure-Python columnar loop must simply never be
   slower.

Throughput is reported as *trace records per second*: dynamic
instructions actually issued (including model-injected checks) divided
by wall time.  ``REPRO_BENCH_FAST=1`` shrinks the profile set and
trace sizes for CI smoke runs.  The document lands in
``benchmarks/out/BENCH_sim.json``.

4. **Telemetry overhead budget.**  The fast path now carries live
   telemetry (batched counters + sampled warp-issue events), so this
   benchmark also times columnar runs with telemetry *on* (sparse
   ``1/1024`` sampling, the documented production setting) against
   telemetry *off*, interleaved the same way, and asserts the
   overhead stays within the ≤5% budget from DESIGN.md.  The measured
   fraction is archived under ``telemetry_overhead`` in
   ``BENCH_sim.json`` and rendered by ``repro report``.

5. **Live-plane overhead.**  A third per-rep pass runs with the full
   observability plane engaged — telemetry on, the progress board
   active, the HTTP server up, and a separate scraper process
   hitting ``/metrics`` + ``/progress`` at 2 Hz (30x the default
   Prometheus cadence) — and must also stay within the same ≤5%
   budget, archived alongside as ``live_overhead_fraction``.

6. **Per-cell codegen gain + batched FFI.**  The generated
   specialized kernels must clear ``3.0×`` the geomean records/s of
   the interpreted one-size-fits-all executor they replaced (the
   committed pre-codegen BENCH numbers, pinned in
   ``PREVIOUS_NATIVE_RECORDS_PER_SECOND``), archived under
   ``codegen_gain``.  One batched ``run_native_batch`` crossing over
   the whole grid is timed against per-call dispatch
   (``native_batch``), and the process's compile/cache/batch
   accounting (``CODEGEN_STATS``: compile seconds, disk/memo hits,
   cells, max batch/threads) is archived under ``codegen``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

from conftest import OUT_DIR, record_run

from repro.experiments import run_fig12
from repro.experiments.engine import model_factory
from repro.sim import SmSimulator, native_available, reference_simulate
from repro.sim.codegen import CODEGEN_STATS, resolve_threads
from repro.telemetry.progress import ProgressBoard
from repro.telemetry.runtime import SAMPLE_ENV, TELEMETRY
from repro.telemetry.server import ObservabilityServer
from repro.workloads import synthesize_trace
from repro.workloads.profiles import all_benchmarks

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

MODELS = ("baseline", "lmi", "gpushield", "baggy")

#: The fig12 profile set (all 28 benchmarks), or a smoke subset.
BENCHMARKS = (
    ("gaussian", "needle", "LSTM", "bert", "bfs", "hotspot")
    if FAST
    else tuple(all_benchmarks())
)
WARPS, INSTRUCTIONS = (8, 600) if FAST else (16, 2000)
#: Interleaved timing reps per cell.  Three in both modes: the timed
#: windows are short (sub-millisecond on the native path), and a
#: min-of-two estimate is too easily inflated by the 1-core
#: container's scheduling noise to gate percent-level floors.
REPS = 3

#: Geomean speedup the fast path must clear over the scalar oracle
#: (``reference_simulate``).  The native C executor has an order of
#: magnitude of headroom over this; the pure-Python loop (no
#: toolchain) must only never be slower.
FLOOR = 3.0

#: Native trace-records/s of the interpreted one-size-fits-all C
#: executor the per-cell codegen replaced — the committed
#: ``BENCH_sim.json`` before this optimisation, measured on the same
#: container (fast mode, 8 warps × 600 instructions).  The generated
#: kernels must clear ``CODEGEN_GAIN_FLOOR``× their geomean.
PREVIOUS_NATIVE_RECORDS_PER_SECOND = {
    "baseline": 2_263_772,
    "lmi": 2_352_924,
    "gpushield": 2_066_910,
    "baggy": 6_893_986,
}
CODEGEN_GAIN_FLOOR = 3.0

#: Telemetry overhead budget on the columnar fast path (DESIGN.md,
#: "Observability"): with metrics on and sparse event sampling the
#: engine must stay within 5% of its telemetry-off throughput.
TELEMETRY_BUDGET = 0.05
TELEMETRY_SAMPLE = "1/1024"


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _cell(trace, mechanism):
    """Equivalence-gate then time one (trace, model) cell.

    Returns ``(digest, records, scalar_seconds, columnar_seconds)``
    with both times the min over *REPS* interleaved fresh-simulator
    runs.
    """
    # 1. Equivalence gate: cold caches, both engines, full stats.
    want = reference_simulate(trace, model_factory(mechanism))
    got = SmSimulator(model=model_factory(mechanism)).run(trace)
    assert got.cycles == want.cycles, (trace.name, mechanism)
    assert got.stats == want.stats, (trace.name, mechanism)
    digest = hashlib.sha256(
        repr((got.cycles, sorted(got.stats.__dict__.items()))).encode()
    ).hexdigest()[:16]

    # 2. Interleaved timing: scalar/columnar alternate per rep.  Both
    # sides are timed with the collector parked (collect before,
    # disable inside — the ``_window()`` convention below): the scalar
    # reference runs allocate millions of objects, and letting their
    # collection cycles land inside whichever window runs next charges
    # a process-wide cost to one engine at random.
    scalar = columnar = float("inf")
    for _ in range(REPS):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            reference_simulate(trace, model_factory(mechanism))
            scalar = min(scalar, time.perf_counter() - started)
        finally:
            gc.enable()
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            SmSimulator(model=model_factory(mechanism)).run(trace)
            columnar = min(columnar, time.perf_counter() - started)
        finally:
            gc.enable()
    return digest, got.stats.instructions, scalar, columnar


def _batched_native(traces):
    """Batched vs single-call native dispatch over the full grid.

    Prepares one request per (trace, model) cell — fresh simulator,
    decoded plan — outside the timed window, then times (a) one
    ``run_native`` call per request and (b) a single
    ``run_native_batch`` over all of them, interleaved per rep.
    Returns ``None`` without a toolchain.
    """
    if not native_available():
        return None
    from repro.sim import SimStats
    from repro.sim.native import run_native, run_native_batch

    def prepare():
        requests = []
        records = 0
        for trace in traces:
            for mechanism in MODELS:
                sim = SmSimulator(model=model_factory(mechanism))
                plan = sim._fast_plan(trace)
                records += plan.total_instructions
                requests.append((sim, plan, SimStats(), None, 1, 0))
        return requests, records

    single = batch = float("inf")
    records = 0
    # More reps than the grid cells get: each window is only a few
    # milliseconds, so the min needs more samples to shed the 1-core
    # container's scheduling noise.
    for _ in range(max(REPS, 6)):
        requests, records = prepare()
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            for request in requests:
                assert run_native(*request) is not None
            single = min(single, time.perf_counter() - started)
        finally:
            gc.enable()
        requests, records = prepare()
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            cycles = run_native_batch(requests)
            batch = min(batch, time.perf_counter() - started)
        finally:
            gc.enable()
        assert all(value is not None for value in cycles)
    return {
        "cells": len(requests),
        "records": records,
        "threads": resolve_threads(len(requests)),
        "single_records_per_second": round(records / single),
        "batch_records_per_second": round(records / batch),
        "batch_speedup": round(single / batch, 3),
    }


#: Out-of-process scraper: GET /metrics + /progress every 0.5 s —
#: 30x more aggressive than the Prometheus default scrape interval
#: (15 s) — printing one line after the first successful pair so the
#: parent can synchronize window start.
_SCRAPER_SOURCE = """\
import sys, time, urllib.request
url = sys.argv[1]
announced = False
while True:
    try:
        with urllib.request.urlopen(url + "/metrics", timeout=1) as r:
            r.read()
        with urllib.request.urlopen(url + "/progress", timeout=1) as r:
            r.read()
        if not announced:
            print("ready", flush=True)
            announced = True
    except OSError:
        pass
    time.sleep(0.5)
"""


@contextlib.contextmanager
def _external_scraper(url):
    """Run the 2 Hz scraper in its own process for the body.

    Waits for the first completed scrape pair before yielding, so the
    timed window starts with the scraper demonstrably live.
    """
    scraper = subprocess.Popen(
        [sys.executable, "-c", _SCRAPER_SOURCE, url],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        assert scraper.stdout.readline().strip() == b"ready"
        yield
    finally:
        scraper.terminate()
        scraper.wait(timeout=10)


def _telemetry_overhead(mechanism="lmi"):
    """Columnar wall time with telemetry on (sparse) vs off.

    Telemetry-on runs use the documented production sampling
    (``REPRO_TELEMETRY_SAMPLE=1/1024``) so the event comb — not a
    flood of per-issue emits — is what gets measured.  Traces are
    always production-sized (16 warps × 2000 instructions, the
    full-mode grid) even under ``REPRO_BENCH_FAST``: the per-run
    publish cost is fixed, so smoke-sized traces would measure
    amortisation, not the fast path.

    Each rep times one off-window and one on-window over all traces,
    back to back; the overhead is ``min(on) / min(off) - 1``.  The
    min is the right estimator here (the same ``timeit`` convention
    ``_cell`` uses): scheduler and cgroup interference is strictly
    *additive* — a window is never faster than the uncontended cost
    — so the fastest window on each side is the cleanest sample of
    the code's true cost, while means and medians keep whatever
    noise the container injects (±20% per window on shared CI
    runners, far above the percent-level signal being gated).  The
    collector is disabled inside the timed windows: collection
    cycles amortise over the whole process but tend to *trigger*
    inside whichever window allocates, which mis-attributes a
    process-wide cost to the telemetry side of the pair.

    Two further windows per rep measure the **live plane**: telemetry
    on *plus* an active progress board and the observability HTTP
    server being scraped at 2 Hz, paired against its own adjacent
    telemetry-off window and gated the same min-ratio way.  The
    scraper runs in a **separate process** (like a real Prometheus)
    and windows are timed in process CPU seconds, so the cost
    measured is the server side of each scrape — handler thread,
    exposition render, socket writes — not the client's own work
    competing for the machine's cores.  The scraper only
    lives during live windows, so it cannot leak noise into the
    off/on pair.  All windows are stretched to ~0.25 s (repeating
    the trace set) so the scrape cadence amortizes the way it does
    over a real multi-second run instead of being quantized to
    all-or-nothing per window.

    Returns ``(overhead_fraction, live_overhead_fraction,
    noise_floor_fraction, off_seconds, on_seconds, live_seconds)``
    with the seconds the min window's process-CPU times; fractions
    may be slightly negative on a noisy machine.
    ``noise_floor_fraction`` is the pooled spread (max/min − 1) of
    all telemetry-*off* windows — an off-vs-off null measuring how
    much identical work varies on this machine — so the budget
    checks widen by exactly the noise the container demonstrated.
    """
    names = BENCHMARKS[:3] if FAST else BENCHMARKS[:6]
    traces = [
        synthesize_trace(name, warps=16, instructions_per_warp=2000)
        for name in names
    ]
    saved_env = os.environ.get(SAMPLE_ENV)
    os.environ[SAMPLE_ENV] = TELEMETRY_SAMPLE
    off_passes, on_passes = [], []
    off_live_passes, live_passes = [], []

    board = ProgressBoard()
    server = ObservabilityServer(0, board=board)
    server.start()
    try:
        # Warm-up: pay the one-off columnar plan build per trace
        # outside the timed window (it lands on whichever side runs
        # first and would otherwise dwarf the percent-level signal).
        # Also sizes the window: repeat the trace set until one pass
        # takes ~0.25 s, so percent-level ratios resolve.
        TELEMETRY.enabled = False
        for trace in traces:  # cold pass: plan builds, not sized
            SmSimulator(model=model_factory(mechanism)).run(trace)
        started = time.perf_counter()
        for trace in traces:  # warm pass: sizes the window
            SmSimulator(model=model_factory(mechanism)).run(trace)
        warm = time.perf_counter() - started
        inner = max(1, math.ceil(0.25 / max(warm, 1e-6)))

        def _window():
            # Collect *before* each window and disable inside: with
            # windows this long, letting garbage pile up across the
            # whole rep loop would slow every later window in a rep
            # (allocator pressure is monotone), biasing the ratios.
            #
            # Windows are timed with process CPU time, not wall
            # time: the budget is a CPU-cost budget, and
            # ``process_time`` bills every thread of *this* process
            # — simulator plus the HTTP handler rendering each
            # scrape — while excluding the scraper client process
            # and whatever the container's co-tenants are doing.  On
            # a single-core CI box, wall time would charge the
            # scraper's own client-side work to the live plane.
            gc.collect()
            gc.disable()
            try:
                started = time.process_time()
                for _ in range(inner):
                    for trace in traces:
                        SmSimulator(
                            model=model_factory(mechanism)
                        ).run(trace)
                return time.process_time() - started
            finally:
                gc.enable()

        for _ in range(max(REPS + 1, 10)):
            TELEMETRY.enabled = False
            off = _window()
            TELEMETRY.enabled = True
            on = _window()
            # Live plane: board active + external 2 Hz scraper.  The
            # ratio is taken against its *own adjacent* off window
            # (not the rep's first one): each comparison then spans
            # back-to-back windows, so slow machine drift across the
            # rep cancels instead of landing on the live side.
            TELEMETRY.enabled = False
            off_live = _window()
            TELEMETRY.enabled = True
            board.begin_run("bench-live")
            with _external_scraper(server.url):
                live = _window()
            board.end_run()
            off_passes.append(off)
            on_passes.append(on)
            off_live_passes.append(off_live)
            live_passes.append(live)
    finally:
        server.stop()
        TELEMETRY.enabled = False
        if saved_env is None:
            os.environ.pop(SAMPLE_ENV, None)
        else:
            os.environ[SAMPLE_ENV] = saved_env
    # Ratio of mins, not a median of per-rep ratios: interference is
    # additive, so min(window) on each side converges on the true
    # uncontended cost while any averaged statistic keeps the noise.
    overhead = min(on_passes) / min(off_passes) - 1.0
    live_overhead = min(live_passes) / min(off_live_passes) - 1.0
    # Null measurement: the rep loop times two *identical*
    # telemetry-off windows per rep, so the pooled spread of those
    # windows is machine noise demonstrated on the very code being
    # gated — identical work can differ by this much here, so a gate
    # tighter than this would fail on the container's co-tenants,
    # not on telemetry.  On a quiet machine the spread is ~0 and the
    # budget gates at full strength.
    null_windows = off_passes + off_live_passes
    noise_floor = max(null_windows) / min(null_windows) - 1.0
    return (
        overhead,
        live_overhead,
        noise_floor,
        min(off_passes),
        min(on_passes),
        min(live_passes),
    )


def test_sim_throughput():
    saved = TELEMETRY.enabled
    # Telemetry off for the engine comparison so the scalar/columnar
    # cells measure the data plane alone; the live-telemetry cost is
    # measured separately below against its own ≤5% budget.
    TELEMETRY.enabled = False
    CODEGEN_STATS.reset()  # per-run compile/cache/batch accounting
    try:
        per_model = {
            m: {"records": 0, "scalar_s": 0.0, "columnar_s": 0.0,
                "speedups": []}
            for m in MODELS
        }
        digests = {}
        traces = []
        for name in BENCHMARKS:
            trace = synthesize_trace(
                name, warps=WARPS, instructions_per_warp=INSTRUCTIONS
            )
            traces.append(trace)
            for mechanism in MODELS:
                digest, records, scalar_s, columnar_s = _cell(
                    trace, mechanism
                )
                digests[f"{name}/{mechanism}"] = digest
                bucket = per_model[mechanism]
                bucket["records"] += records
                bucket["scalar_s"] += scalar_s
                bucket["columnar_s"] += columnar_s
                bucket["speedups"].append(scalar_s / columnar_s)

        speedups = [s for b in per_model.values() for s in b["speedups"]]
        geomean = _geomean(speedups)

        # Batched FFI dispatch over the whole grid (None: no toolchain).
        native_batch = _batched_native(traces)

        # Telemetry overhead on the fast path (sparse sampling),
        # plus the full live plane (board + server + 2 Hz scraper).
        (
            overhead, live_overhead, noise_floor, off_seconds,
            on_seconds, live_seconds,
        ) = _telemetry_overhead()

        # fig12 --fast wall clock under the columnar engine.
        started = time.perf_counter()
        run_fig12(
            BENCHMARKS if FAST else None,
            warps=8,
            instructions_per_warp=400,
            jobs=1,
        )
        fig12_fast_seconds = time.perf_counter() - started
    finally:
        TELEMETRY.enabled = saved

    document = {
        "benchmark": "sim_throughput",
        "fast": FAST,
        "executor": "native" if native_available() else "python",
        "grid": {
            "benchmarks": list(BENCHMARKS),
            "models": list(MODELS),
            "warps": WARPS,
            "instructions_per_warp": INSTRUCTIONS,
            "reps": REPS,
        },
        "equivalence_digests": digests,
        "models": {
            m: {
                "records": b["records"],
                "scalar_records_per_second": round(
                    b["records"] / b["scalar_s"]
                ),
                "columnar_records_per_second": round(
                    b["records"] / b["columnar_s"]
                ),
                "geomean_speedup": round(_geomean(b["speedups"]), 3),
                "min_speedup": round(min(b["speedups"]), 3),
            }
            for m, b in per_model.items()
        },
        "geomean_speedup": round(geomean, 3),
        "floor": FLOOR if native_available() else 1.0,
        "native_batch": native_batch,
        "codegen": CODEGEN_STATS.snapshot(),
        "codegen_gain": {
            "previous_native_records_per_second": dict(
                PREVIOUS_NATIVE_RECORDS_PER_SECOND
            ),
            "per_model": {
                m: round(
                    (b["records"] / b["columnar_s"])
                    / PREVIOUS_NATIVE_RECORDS_PER_SECOND[m],
                    3,
                )
                for m, b in per_model.items()
            },
            "geomean": round(
                _geomean(
                    [
                        (b["records"] / b["columnar_s"])
                        / PREVIOUS_NATIVE_RECORDS_PER_SECOND[m]
                        for m, b in per_model.items()
                    ]
                ),
                3,
            ),
            "floor": CODEGEN_GAIN_FLOOR if native_available() else None,
        },
        "fig12_fast_seconds": round(fig12_fast_seconds, 4),
        "telemetry_overhead": {
            "overhead_fraction": round(overhead, 4),
            "live_overhead_fraction": round(live_overhead, 4),
            "noise_floor_fraction": round(noise_floor, 4),
            "budget_fraction": TELEMETRY_BUDGET,
            "sample": TELEMETRY_SAMPLE,
            "off_seconds": round(off_seconds, 4),
            "on_seconds": round(on_seconds, 4),
            "live_seconds": round(live_seconds, 4),
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_sim.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\n[sim_throughput] archived to {path}")
    print(json.dumps(document, indent=2, sort_keys=True))

    total_records = sum(b["records"] for b in per_model.values())
    total_columnar = sum(b["columnar_s"] for b in per_model.values())
    record_run(
        "sim_throughput",
        config={
            "fast": FAST,
            "executor": document["executor"],
            "warps": WARPS,
            "instructions_per_warp": INSTRUCTIONS,
        },
        counters={"records": total_records},
        metrics={
            "throughput": total_records / total_columnar,
            "geomean_speedup": geomean,
            "codegen_gain_geomean": document["codegen_gain"]["geomean"],
            "telemetry_overhead_fraction": overhead,
            "live_overhead_fraction": live_overhead,
        },
        wall_seconds=fig12_fast_seconds,
    )

    # The floor only applies after every cell passed its equivalence
    # gate above — a fast wrong simulator would have failed already.
    if native_available():
        assert geomean >= FLOOR, f"geomean {geomean:.2f}x below {FLOOR}x"
        # Per-cell codegen gain over the interpreted executor it
        # replaced (the committed pre-codegen BENCH numbers): the
        # generated kernels must clear 3x geomean records/s.
        codegen_gain = document["codegen_gain"]["geomean"]
        assert codegen_gain >= CODEGEN_GAIN_FLOOR, (
            f"codegen gain {codegen_gain:.2f}x below "
            f"{CODEGEN_GAIN_FLOOR}x the pre-codegen native throughput"
        )
        assert native_batch is not None
        # Batching must not cost meaningful throughput over per-call
        # dispatch (on a multi-core box the threaded kernels push it
        # well >1; on this 1-core container parity ± scheduler noise
        # is the expected reading).
        assert native_batch["batch_speedup"] >= 0.8, native_batch
    else:
        assert geomean >= 1.0, f"columnar slower than scalar: {geomean:.2f}x"
    assert fig12_fast_seconds > 0
    # Fast-path observability budget (tentpole): live metrics plus
    # sparse event sampling must cost ≤5% columnar throughput.  The
    # measured noise floor (off-vs-off null, same statistic) widens
    # the gate on busy machines: a 5% signal cannot be resolved
    # under larger-than-5% ambient noise, and failing on the
    # container's load average would gate nothing useful.
    budget = TELEMETRY_BUDGET + noise_floor
    assert overhead <= budget, (
        f"telemetry overhead {overhead * 100:.1f}% exceeds "
        f"{TELEMETRY_BUDGET * 100:.0f}% budget "
        f"+ {noise_floor * 100:.1f}% noise floor "
        f"(off {off_seconds:.3f}s, on {on_seconds:.3f}s)"
    )
    # The full live plane — progress board, HTTP server, 2 Hz
    # scrapes — must fit the same budget.
    assert live_overhead <= budget, (
        f"live-plane overhead {live_overhead * 100:.1f}% exceeds "
        f"{TELEMETRY_BUDGET * 100:.0f}% budget "
        f"+ {noise_floor * 100:.1f}% noise floor "
        f"(off {off_seconds:.3f}s, live {live_seconds:.3f}s)"
    )
