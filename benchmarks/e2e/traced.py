"""Layer-traced launcher for the end-to-end benchmark.

Usage::

    python benchmarks/e2e/traced.py SPANS_DIR experiments [ARGS...]
    python benchmarks/e2e/traced.py SPANS_DIR serve [ARGS...]

Runs ``repro.experiments.__main__.main(ARGS)`` (or ``repro serve
ARGS``) with a span recorded around every layer function named in
:data:`LAYERS`.  No source file is edited: each function is rebound at
every ``repro.*`` module attribute, class attribute and module-level
dict value that refers to it.  Function-local imports read the module
attribute at call time, so they reach the wrapper too.

A span is ``[id, parent id, name, start, end, thread]`` (perf_counter
seconds).  Spans stay in memory and are appended to
``SPANS_DIR/spans-<pid>.jsonl`` when the run ends.  Forked fabric pool
workers leave through ``os._exit``, so a worker flushes each time its
span stack unwinds to the worker's root span, i.e. after every step of
every cell.  :func:`layer_times` turns the files back into per-layer
calls, total time and self time (duration minus the time covered by
child spans).
"""

from __future__ import annotations

import time

#: When the interpreter reached this module (before any other import).
STARTED_AT = time.perf_counter()

import functools  # noqa: E402  (the stamp above must come first)
import importlib
import itertools
import json
import os
import sys
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def _cell_cache_hits(rec: "SpanRecorder", args, kwargs, result) -> None:
    rec.add("fabric.cell_cache.misses" if result is None
            else "fabric.cell_cache.hits")


def _native_invoke(rec: "SpanRecorder", args, kwargs, result) -> None:
    preps = args[1]
    rec.add("sim.native.ffi_calls")
    rec.add("sim.native.ffi_cells", len(preps))
    rec.add("sim.native.instructions",
            sum(prep.plan.total_instructions for prep in preps))


def _native_fallback(rec: "SpanRecorder", args, kwargs, result) -> None:
    rec.add("sim.native.fallbacks")


def _fabric_count(rec: "SpanRecorder", args, kwargs, result) -> None:
    amount = args[1] if len(args) > 1 else kwargs.get("amount", 1)
    rec.add(args[0], amount)


def _export_written(rec: "SpanRecorder", args, kwargs, result) -> None:
    from repro.telemetry.runtime import TELEMETRY

    path = args[0] if args else kwargs["path"]
    rec.add("telemetry.export.bytes", os.path.getsize(path))
    rec.set("telemetry.events_emitted", TELEMETRY.recorder.emitted)


#: ``(layer, module, attribute, span?, hook)``.  A layer is named after
#: its module.  ``span=False`` entries only count calls through *hook*.
LAYERS: Tuple[Tuple[str, str, str, bool, Optional[Callable]], ...] = (
    ("workloads.synthesize", "repro.workloads.synthetic",
     "synthesize_trace", True, None),
    ("workloads.trace_cache", "repro.workloads.trace_cache",
     "TraceCache.get_or_synthesize", True, None),
    ("sim.tracefile.load", "repro.sim.tracefile", "load_trace_npz",
     True, None),
    ("sim.tracefile.dump", "repro.sim.tracefile", "dump_trace_npz",
     True, None),
    ("sim.core", "repro.sim.core", "SmSimulator.__init__", True, None),
    ("sim.core", "repro.sim.core", "SmSimulator.run", True, None),
    ("sim.columnar.plan", "repro.sim.columnar", "plan_for", True, None),
    ("sim.columnar.pyloop", "repro.sim.columnar", "run_columnar",
     True, None),
    ("sim.codegen.load_cell", "repro.sim.codegen", "load_cell",
     True, None),
    ("sim.native", "repro.sim.native", "run_native", True, None),
    ("sim.native", "repro.sim.native", "run_native_batch", True, None),
    ("sim.native", "repro.sim.native", "_invoke", False, _native_invoke),
    ("sim.native", "repro.sim.native", "note_fallback", False,
     _native_fallback),
    ("security.evaluate", "repro.security.harness",
     "run_security_evaluation", True, None),
    ("engine.run_sim_jobs", "repro.experiments.engine", "run_sim_jobs",
     True, None),
    ("engine.run_jobs_batched", "repro.experiments.engine",
     "run_jobs_batched", True, None),
    ("fabric.cell_digest", "repro.experiments.fabric", "cell_digest",
     True, None),
    ("fabric.cell_cache.load", "repro.experiments.fabric",
     "CellCache.load", True, _cell_cache_hits),
    ("fabric.cell_cache.store", "repro.experiments.fabric",
     "CellCache.store", True, None),
    ("fabric.run_grid", "repro.experiments.fabric", "run_grid", True, None),
    ("fabric.pool", "repro.experiments.fabric", "_StealingPool.run",
     True, None),
    ("fabric.worker", "repro.experiments.fabric", "_pool_worker_main",
     True, None),
    ("fabric", "repro.experiments.fabric", "_count", False, _fabric_count),
    ("telemetry.export", "repro.telemetry.export", "write_metrics",
     True, _export_written),
    ("telemetry.export", "repro.telemetry.export", "write_chrome_trace",
     True, _export_written),
)


def _process_counters() -> Dict[str, float]:
    """Counters the program keeps itself, read at flush time."""
    codegen = sys.modules.get("repro.sim.codegen")
    if codegen is None:
        return {}
    return {"sim.codegen.compiles": codegen.CODEGEN_STATS.compiles}


class SpanRecorder:
    """In-memory span and counter store of one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.forked = False
        self.main_thread = threading.get_ident()
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.done: List[list] = []
        self.counters: Dict[str, float] = {}
        self.baseline: Dict[str, float] = {}
        self.lock = threading.Lock()

    # -- spans ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _open(self) -> Tuple[List[int], int, int, float]:
        stack = self._stack()
        span_id = next(self.ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return stack, span_id, parent, time.perf_counter()

    def _close(self, name: str, opened) -> None:
        end = time.perf_counter()
        stack, span_id, parent, start = opened
        stack.pop()
        self.done.append(
            [span_id, parent, name, start, end, threading.get_ident()]
        )
        if self.forked and len(stack) <= 1:
            self.flush()

    @contextmanager
    def span(self, name: str):
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, opened)

    def wrap(self, name: str, function: Callable, span: bool = True,
             hook: Optional[Callable] = None) -> Callable:
        """*function* with a span named *name* and an after-call *hook*."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            opened = recorder._open() if span else None
            try:
                result = function(*args, **kwargs)
            finally:
                if opened is not None:
                    recorder._close(name, opened)
            if hook is not None:
                hook(recorder, args, kwargs, result)
            return result

        return traced

    # -- counters ------------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def set(self, name: str, value: float) -> None:
        with self.lock:
            self.counters[name] = value

    # -- output --------------------------------------------------------

    def after_fork(self) -> None:
        """Forget the parent's state in a forked child."""
        self.pid = os.getpid()
        self.forked = True
        self.main_thread = threading.get_ident()
        self.local = threading.local()
        self.done = []
        self.lock = threading.Lock()
        self.counters = {}
        self.baseline = _process_counters()

    def flush(self) -> None:
        """Append the finished spans and the counters to this pid's file."""
        spans, self.done = self.done, []
        with self.lock:
            counters = dict(self.counters)
        for name, value in _process_counters().items():
            counters[name] = value - self.baseline.get(name, 0)
        line = json.dumps({
            "pid": self.pid,
            "forked": self.forked,
            "main_thread": self.main_thread,
            "started_at": STARTED_AT,
            "flushed_at": time.perf_counter(),
            "spans": spans,
            "counters": counters,
        })
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")


def _rebind(original: object, wrapper: object) -> int:
    """Point every ``repro.*`` reference to *original* at *wrapper*."""
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                rebound += 1
            elif isinstance(value, dict):
                for dict_key, item in list(value.items()):
                    if item is original:
                        value[dict_key] = wrapper
                        rebound += 1
            elif isinstance(value, type) and value.__module__ == module_name:
                for attr, item in list(vars(value).items()):
                    if item is original:
                        setattr(value, attr, wrapper)
                        rebound += 1
    return rebound


def install(recorder: SpanRecorder, experiments: Optional[dict]) -> None:
    """Wrap every :data:`LAYERS` function and each experiment driver."""
    targets = []
    for layer, module_name, attribute, span, hook in LAYERS:
        owner: object = sys.modules[module_name]
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[leaf] if path else getattr(owner, leaf)
        targets.append((layer, original, span, hook))
    for name, driver in (experiments or {}).items():
        targets.append((f"experiments.{name}", driver, True, None))
    for layer, original, span, hook in targets:
        wrapper = recorder.wrap(layer, original, span, hook)
        if not _rebind(original, wrapper):
            raise RuntimeError(f"no reference to {layer} was rebound")


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("experiments", "serve"):
        print("usage: traced.py SPANS_DIR {experiments|serve} [ARGS...]",
              file=sys.stderr)
        return 2
    out_dir, entry, rest = argv[0], argv[1], argv[2:]
    os.makedirs(out_dir, exist_ok=True)
    recorder = SpanRecorder(out_dir)
    with recorder.span("import"):
        if entry == "experiments":
            target = importlib.import_module("repro.experiments.__main__")
        else:
            target = importlib.import_module("repro.cli")
            importlib.import_module("repro.serve.daemon")
        for _, module_name, _, _, _ in LAYERS:
            importlib.import_module(module_name)
    install(recorder, target.EXPERIMENTS if entry == "experiments" else None)
    os.register_at_fork(after_in_child=recorder.after_fork)
    try:
        if entry == "experiments":
            return target.main(rest)
        return target.main(["serve", *rest])
    finally:
        recorder.flush()


# ----------------------------------------------------------------------
# Reading the span files back


def read_records(out_dir: str) -> List[dict]:
    """Every flush line of every ``spans-<pid>.jsonl`` in *out_dir*."""
    records = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                records.extend(json.loads(line) for line in fh if line.strip())
    return records


def layer_times(records: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    Self time is a span's duration minus the part its child spans
    cover.  Children run nested inside their parent on the parent's
    thread, so their durations never overlap one another.
    """
    spans = []
    covered: Dict[Tuple[int, int], float] = {}
    for record in records:
        pid = record["pid"]
        for span_id, parent, name, start, end, _ in record["spans"]:
            duration = end - start
            spans.append((pid, span_id, name, duration))
            if parent:
                key = (pid, parent)
                covered[key] = covered.get(key, 0.0) + duration
    out: Dict[str, Dict[str, float]] = {}
    for pid, span_id, name, duration in spans:
        entry = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered.get((pid, span_id), 0.0)
    return out


def process_times(
    records: Iterable[dict], pid: int, spawned: float, exited: float
) -> Dict[str, float]:
    """Split the wall time of process *pid* (spawned and reaped at the
    given perf_counter instants) into ``startup_s`` (until this module
    ran), ``exit_s`` (interpreter teardown after the last flush) and
    ``unattributed_s``: the rest, minus what the top-level spans of
    the main thread cover."""
    own = [record for record in records if record["pid"] == pid]
    covered = sum(
        end - start
        for record in own
        for _, parent, _, start, end, thread in record["spans"]
        if not parent and thread == record["main_thread"]
    )
    startup = own[0]["started_at"] - spawned
    teardown = exited - own[-1]["flushed_at"]
    return {
        "startup_s": startup,
        "exit_s": teardown,
        "unattributed_s": exited - spawned - startup - teardown - covered,
    }


def counters(records: Iterable[dict]) -> Dict[str, float]:
    """Counters summed over processes (each file's last line wins)."""
    last: Dict[int, Dict[str, float]] = {}
    for record in records:
        last[record["pid"]] = record["counters"]
    out: Dict[str, float] = {}
    for values in last.values():
        for name, value in values.items():
            out[name] = out.get(name, 0) + value
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
