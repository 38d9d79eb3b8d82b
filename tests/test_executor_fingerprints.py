"""Pinned observable behaviour of the functional executor.

``tests/data/exec_fingerprints.json`` records everything a launch can
observably influence, for a fixed set of launches:

* the whole kernel corpus x every registered mechanism (grid of 2
  blocks x 8 threads, deterministic non-trivial input buffers), and
  the paper's Figure 14 delayed-termination walker (one-past-the-end
  pointer, loop exit by address comparison, optionally a poisoned
  deref): the SHA-256 of ``repr`` of :func:`_fingerprint`, i.e.
  completion, violation type and text, steps, threads completed,
  oracle events, mechanism stats, the byte-for-byte memory image
  (``SparseMemory.digest``), resident pages, live bytes and record
  count;
* ``(detected, oracle, violation)`` for every Table III case under one
  mechanism of each design family;
* the telemetry a launch publishes (counter snapshot, event counts by
  kind and a digest of the event stream) for two corpus kernels.

The values were recorded from the interpreter and the former
closure-compiled engine, which agreed on every entry, and they do not
depend on ``PYTHONHASHSEED``.  A change to the interpreter that moves
any of them fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.compiler import CmpKind, IRType, KernelBuilder, run_lmi_pass
from repro.exec import GpuExecutor
from repro.mechanisms import MECHANISMS, create_mechanism
from repro.security.testcases import all_cases
from repro.telemetry.runtime import capture
from repro.workloads.kernels import KERNEL_CORPUS

PINNED = json.loads(
    (Path(__file__).parent / "data" / "exec_fingerprints.json").read_text()
)

ALL_MECHANISMS = sorted(MECHANISMS)
#: Mechanisms spanning every design family (pointer-tagged, table,
#: canary, region, baseline) for the security-suite sweep.
SECURITY_MECHANISMS = ["baseline", "lmi", "lmi-inmem", "cucatch", "gmod"]
TELEMETRY_KERNELS = ["vector_add", "per_thread_scratch"]


# ----------------------------------------------------------------------
# Harness


def _walker_module(deref_after=False):
    """Figure 14: one-past-the-end walker (see tests/test_integration)."""
    b = KernelBuilder("walker")
    start = b.malloc(256, name="arr")  # 64 ints, exact power of two
    end = b.ptradd(start, 256, name="end")  # one past the end!
    p = b.alloca(8, name="pslot")
    b.store(p, 0, width=8)
    b.jump("head")
    b.new_block("head")
    iv = b.load(p, width=8)
    cond = b.cmp(CmpKind.LT, iv, 64)
    b.branch(cond, "body", "exit")
    b.new_block("body")
    slot = b.ptradd(start, b.mul(iv, 4))
    b.store(slot, b.add(b.load(slot, width=4), 1), width=4)
    b.store(p, b.add(iv, 1), width=8)
    b.jump("head")
    b.new_block("exit")
    if deref_after:
        b.load(end, width=4)
    b.ret()
    module = b.module()
    run_lmi_pass(module)
    return module


def _fingerprint(executor, result):
    """Everything a launch can observably influence, in one tuple."""
    violation = result.violation
    return (
        result.completed,
        None
        if violation is None
        else (type(violation).__name__, str(violation)),
        result.steps,
        result.threads_completed,
        tuple(result.oracle_events),
        result.mechanism_stats,
        executor.memory.digest(),
        executor.memory.resident_pages,
        executor.tracker.live_bytes(),
        len(executor.tracker.all_records),
        executor._steps,
    )


def _digest(fingerprint):
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


def _run_corpus_kernel(build, mechanism_name):
    """Launch one corpus kernel with deterministic inputs; fingerprint."""
    module = build()
    executor = GpuExecutor(
        module,
        create_mechanism(mechanism_name),
        grid_blocks=2,
        block_threads=8,
    )
    args = {}
    for index, param in enumerate(module.kernel.params):
        if param.type is IRType.PTR:
            pointer = executor.host_alloc(1024)
            raw = executor.mechanism.translate(pointer)
            executor.memory.write_bytes(
                raw,
                bytes((7 * i + 3 * index + 1) % 13 for i in range(1024)),
            )
            args[param.name] = pointer
        else:
            args[param.name] = 3
    result = executor.launch(args)
    return _fingerprint(executor, result)


def _run_walker(mechanism_name, deref_after):
    executor = GpuExecutor(
        _walker_module(deref_after), create_mechanism(mechanism_name)
    )
    return _fingerprint(executor, executor.launch({}))


def _security_verdicts(mechanism_name):
    """``case_id -> [detected, oracle, violation]`` over Table III."""
    verdicts = {}
    for case in all_cases():
        outcome = case.run(create_mechanism(mechanism_name))
        violation = outcome.violation
        verdicts[case.case_id] = [
            outcome.detected,
            outcome.oracle,
            None
            if violation is None
            else [type(violation).__name__, str(violation)],
        ]
    return verdicts


def _launch_telemetry(kernel):
    """Counters and events one lmi launch publishes into a fresh hub."""
    with capture() as telem:
        _run_corpus_kernel(KERNEL_CORPUS[kernel], "lmi")
        events = telem.recorder.events()
        return {
            "counters": telem.registry.snapshot()["counters"],
            "event_counts": telem.recorder.counts_by_kind(),
            "events_sha256": hashlib.sha256(
                json.dumps(
                    [event.as_dict() for event in events], sort_keys=True
                ).encode()
            ).hexdigest(),
        }


# ----------------------------------------------------------------------
# Corpus x mechanism matrix


class TestCorpus:
    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    @pytest.mark.parametrize("kernel", sorted(KERNEL_CORPUS))
    def test_matches_pinned(self, kernel, mechanism):
        fingerprint = _run_corpus_kernel(KERNEL_CORPUS[kernel], mechanism)
        assert _digest(fingerprint) == PINNED["corpus"][
            f"{kernel}/{mechanism}"
        ], fingerprint


# ----------------------------------------------------------------------
# Figure 14 delayed termination


class TestWalker:
    @pytest.mark.parametrize("deref_after", [False, True])
    @pytest.mark.parametrize("mechanism", ["baseline", "lmi", "cucatch"])
    def test_matches_pinned(self, mechanism, deref_after):
        fingerprint = _run_walker(mechanism, deref_after)
        assert _digest(fingerprint) == PINNED["walker"][
            f"{mechanism}/deref_after={deref_after}"
        ], fingerprint

    def test_walker_completes_and_poisons_under_lmi(self):
        """Sanity: the executor preserves the paper's semantics."""
        mechanism = create_mechanism("lmi")
        result = GpuExecutor(_walker_module(), mechanism).launch({})
        assert result.completed
        assert not result.oracle_violated
        assert mechanism.ocu.stats.overflows >= 1


# ----------------------------------------------------------------------
# Security suite (Table III): spatial, temporal, intra-object


class TestSecuritySuite:
    @pytest.mark.parametrize("mechanism", SECURITY_MECHANISMS)
    def test_matches_pinned(self, mechanism):
        assert _security_verdicts(mechanism) == PINNED["security"][mechanism]


# ----------------------------------------------------------------------
# Telemetry a launch publishes


class TestLaunchTelemetry:
    @pytest.mark.parametrize("kernel", TELEMETRY_KERNELS)
    def test_matches_pinned(self, kernel):
        published = _launch_telemetry(kernel)
        assert published == PINNED["telemetry"][kernel]
        joined = " ".join(published["counters"])
        assert "exec.accesses" in joined
        assert "exec.steps" in joined
