"""Content-addressed trace cache: keys, LRU layer, disk layer."""

from __future__ import annotations

import dataclasses
import os
import pickle
import zipfile

import numpy as np
import pytest

from repro.sim import KernelTrace, dump_trace_npz, load_trace_npz
from repro.workloads import (
    TraceCache,
    cached_trace,
    configure_trace_cache,
    profile,
    profile_fingerprint,
    synthesize_trace,
    trace_key,
)
from repro.workloads.trace_cache import TRACE_CACHE

from .trace_strategies import (
    DAMAGED_CONTAINERS,
    corrupted_columns,
    damaged_container,
)


@pytest.fixture(autouse=True)
def _clean_global_cache():
    """Keep the process-global cache pristine around every test."""
    saved_dir = TRACE_CACHE.disk_dir
    configure_trace_cache(clear=True, disk_dir="")
    yield
    TRACE_CACHE.disk_dir = saved_dir
    TRACE_CACHE.clear()


# ----------------------------------------------------------------------
# Keys


def test_trace_key_is_stable_and_parameter_sensitive():
    spec = profile("gaussian")
    base = trace_key(spec, warps=4, instructions_per_warp=100)
    assert base == trace_key(spec, warps=4, instructions_per_warp=100)
    assert base != trace_key(spec, warps=5, instructions_per_warp=100)
    assert base != trace_key(spec, warps=4, instructions_per_warp=101)
    assert base != trace_key(
        spec, warps=4, instructions_per_warp=100, seed_salt=1
    )


def test_profile_edit_changes_fingerprint_and_key():
    spec = profile("gaussian")
    edited = dataclasses.replace(spec, dep_rate=spec.dep_rate / 2)
    assert profile_fingerprint(edited) != profile_fingerprint(spec)
    assert trace_key(edited, warps=4, instructions_per_warp=100) != trace_key(
        spec, warps=4, instructions_per_warp=100
    )


# ----------------------------------------------------------------------
# In-process LRU layer


def test_memory_hit_returns_same_object():
    cache = TraceCache()
    first = cache.get_or_synthesize("needle", warps=2, instructions_per_warp=80)
    second = cache.get_or_synthesize("needle", warps=2, instructions_per_warp=80)
    assert second is first
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5


def test_cached_trace_matches_direct_synthesis():
    via_cache = cached_trace("LSTM", warps=2, instructions_per_warp=60)
    direct = synthesize_trace("LSTM", warps=2, instructions_per_warp=60)
    assert via_cache.name == direct.name
    assert via_cache.warps == direct.warps


def test_lru_eviction_order():
    cache = TraceCache(capacity=2)
    cache.get_or_synthesize("gaussian", warps=2, instructions_per_warp=50)
    cache.get_or_synthesize("needle", warps=2, instructions_per_warp=50)
    # Touch gaussian so needle is the LRU victim.
    cache.get_or_synthesize("gaussian", warps=2, instructions_per_warp=50)
    cache.get_or_synthesize("hotspot", warps=2, instructions_per_warp=50)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    before = cache.stats.misses
    cache.get_or_synthesize("gaussian", warps=2, instructions_per_warp=50)
    assert cache.stats.misses == before  # survivor still resident
    cache.get_or_synthesize("needle", warps=2, instructions_per_warp=50)
    assert cache.stats.misses == before + 1  # victim re-synthesized


def test_capacity_shrink_evicts():
    cache = TraceCache(capacity=4)
    for name in ("gaussian", "needle", "hotspot"):
        cache.get_or_synthesize(name, warps=2, instructions_per_warp=40)
    cache.configure(capacity=1)
    assert len(cache) == 1
    with pytest.raises(ValueError):
        cache.configure(capacity=0)


# ----------------------------------------------------------------------
# Disk layer


def test_disk_roundtrip(tmp_path):
    writer = TraceCache(disk_dir=str(tmp_path))
    trace = writer.get_or_synthesize("bert", warps=2, instructions_per_warp=60)
    assert writer.stats.disk_writes == 1
    assert list(tmp_path.glob("trace-*.npz"))  # columnar container

    reader = TraceCache(disk_dir=str(tmp_path))
    loaded = reader.get_or_synthesize("bert", warps=2, instructions_per_warp=60)
    assert reader.stats.disk_hits == 1
    assert reader.stats.disk_writes == 0
    assert loaded.name == trace.name
    assert loaded.warps == trace.warps


@pytest.mark.parametrize(
    "corruption",
    ["garbage", "truncated", "bit-flip", "checked-fp", "csr-overrun",
     "op-code-9"],
)
def test_corrupt_disk_entry_falls_back_to_synthesis(tmp_path, corruption):
    """A bad entry is rejected at load, not in a later plan decode."""
    spec = profile("needle")
    key = trace_key(spec, warps=2, instructions_per_warp=50)
    path = tmp_path / f"trace-{key}.npz"
    fresh = synthesize_trace("needle", warps=2, instructions_per_warp=50)
    if corruption == "garbage":
        path.write_bytes(b"not an npz")
    elif corruption in DAMAGED_CONTAINERS:
        dump_trace_npz(fresh, path)
        path.write_bytes(
            damaged_container(path.read_bytes(), fresh.columnar, corruption)
        )
    else:
        dump_trace_npz(fresh, path)
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload.update(corrupted_columns(fresh.columnar, corruption))
        np.savez_compressed(path, **payload)
    cache = TraceCache(disk_dir=str(tmp_path))
    trace = cache.get_or_synthesize(
        "needle", warps=2, instructions_per_warp=50
    )
    assert cache.stats.disk_hits == 0
    assert trace == fresh
    # The good trace replaced the corrupt file.
    assert load_trace_npz(path) == fresh


def test_deflated_entry_is_a_disk_hit(tmp_path):
    """An entry deflated by an older writer loads like a stored one."""
    spec = profile("needle")
    key = trace_key(spec, warps=2, instructions_per_warp=50)
    path = tmp_path / f"trace-{key}.npz"
    fresh = synthesize_trace("needle", warps=2, instructions_per_warp=50)
    dump_trace_npz(fresh, path)
    with np.load(path) as archive:
        payload = {name: archive[name] for name in archive.files}
    np.savez_compressed(path, **payload)
    with zipfile.ZipFile(path) as archive:
        assert {m.compress_type for m in archive.infolist()} == {
            zipfile.ZIP_DEFLATED
        }
    cache = TraceCache(disk_dir=str(tmp_path))
    trace = cache.get_or_synthesize(
        "needle", warps=2, instructions_per_warp=50
    )
    assert cache.stats.disk_hits == 1
    assert cache.stats.disk_writes == 0
    assert trace == fresh


def test_foreign_pickle_rejected(tmp_path):
    """The disk layer reads only ``.npz`` entries; a ``.pkl`` is ignored."""
    spec = profile("needle")
    key = trace_key(spec, warps=2, instructions_per_warp=50)
    (tmp_path / f"trace-{key}.pkl").write_bytes(
        pickle.dumps({"not": "a trace"})
    )
    cache = TraceCache(disk_dir=str(tmp_path))
    trace = cache.get_or_synthesize(
        "needle", warps=2, instructions_per_warp=50
    )
    assert isinstance(trace, KernelTrace)
    assert cache.stats.disk_hits == 0


def test_configure_trace_cache_returns_global():
    cache = configure_trace_cache(capacity=8)
    assert cache is TRACE_CACHE
    assert cache.capacity == 8


# ----------------------------------------------------------------------
# Thread-safety (the repro.serve executor shape)


def test_sixteen_thread_hammer_synthesizes_each_key_once(tmp_path):
    """16 threads × mixed keys: every key synthesized at most once,
    every caller gets the canonical trace object, counters balance."""
    import threading
    from unittest import mock

    from repro.workloads import synthetic

    cache = TraceCache(capacity=64, disk_dir=str(tmp_path))
    keys = [("nn", 2, 40, salt) for salt in range(8)]
    synth_counts = {}
    count_lock = threading.Lock()
    real_synthesize = synthetic.synthesize_trace

    def counting_synthesize(benchmark, **kwargs):
        with count_lock:
            marker = (benchmark, kwargs.get("seed_salt", 0))
            synth_counts[marker] = synth_counts.get(marker, 0) + 1
        return real_synthesize(benchmark, **kwargs)

    results = [None] * 16
    errors = []
    start = threading.Barrier(16, timeout=10)

    def worker(slot):
        try:
            start.wait()
            benchmark, warps, instructions, salt = keys[slot % len(keys)]
            results[slot] = cache.get_or_synthesize(
                benchmark,
                warps=warps,
                instructions_per_warp=instructions,
                seed_salt=salt,
            )
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    import repro.workloads.trace_cache as trace_cache_module

    # The cache module binds the symbol at import time, so patch it
    # there rather than on repro.workloads.synthetic.
    with mock.patch.object(
        trace_cache_module, "synthesize_trace", counting_synthesize
    ):
        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    assert not errors
    assert all(trace is not None for trace in results)
    # Two workers share each key: the winner synthesized, the loser got
    # the *same object* back.
    for slot in range(8):
        assert results[slot] is results[slot + 8]
    # No key was synthesized twice (per-key locking held).
    assert all(count == 1 for count in synth_counts.values())
    assert len(synth_counts) == len(keys)
    # Counter conservation: every lookup is a hit or a miss, and misses
    # equal the number of distinct syntheses.
    assert cache.stats.lookups == 16
    assert cache.stats.misses == len(keys)
    assert cache.stats.hits == 16 - len(keys)
    assert cache.stats.disk_writes == len(keys)
