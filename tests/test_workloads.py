"""Tests for the benchmark profiles and trace synthesis."""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.workloads import (
    PROFILES,
    SUITES,
    BenchmarkProfile,
    all_benchmarks,
    profile,
    synthesize_trace,
)
from repro.workloads.synthetic import _LINE, _randbelow

from .trace_strategies import COLUMNS

#: SHA-256 of every benchmark's synthesized columns, keyed
#: ``benchmark/seed_salt``, as the per-instruction generator drew them.
DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "synthesis_digests.json").read_text()
)


class TestProfiles:
    def test_28_benchmarks_as_in_table5(self):
        assert len(all_benchmarks()) == 28

    def test_suite_sizes(self):
        assert len(SUITES["rodinia"]) == 15
        assert len(SUITES["tango"]) == 4
        assert len(SUITES["ft"]) == 5
        assert len(SUITES["ad"]) == 4

    def test_every_benchmark_has_a_profile(self):
        for name in all_benchmarks():
            assert profile(name).name == name

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            profile("doom")

    def test_region_fractions_sum_to_one(self):
        for spec in PROFILES.values():
            total = spec.global_frac + spec.shared_frac + spec.local_frac
            assert total == pytest.approx(1.0)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ConfigurationError):
            BenchmarkProfile("x", "t", mem_fraction=0.3,
                             global_frac=0.9, shared_frac=0.9, local_frac=0.0)

    def test_invalid_locality_rejected(self):
        with pytest.raises(ConfigurationError):
            BenchmarkProfile("x", "t", mem_fraction=0.3,
                             global_frac=1.0, shared_frac=0.0, local_frac=0.0,
                             buffer_locality="chaotic")

    def test_paper_quoted_dbi_ratios(self):
        assert profile("gaussian").dbi_check_ratio == pytest.approx(67.14)
        assert profile("swin").dbi_check_ratio == pytest.approx(28.13)

    def test_every_profile_has_alloc_sizes(self):
        for spec in PROFILES.values():
            assert spec.alloc_sizes
            assert all(s > 0 and c > 0 for s, c in spec.alloc_sizes)


class TestTraceSynthesis:
    def test_deterministic_across_calls(self):
        a = synthesize_trace("bert", warps=2, instructions_per_warp=200)
        b = synthesize_trace("bert", warps=2, instructions_per_warp=200)
        assert a.warps == b.warps

    def test_seed_salt_changes_stream(self):
        a = synthesize_trace("bert", warps=1, instructions_per_warp=200)
        b = synthesize_trace("bert", warps=1, instructions_per_warp=200,
                             seed_salt=1)
        assert a.warps != b.warps

    def test_zero_buffers_rejected(self):
        spec = BenchmarkProfile("x", "t", mem_fraction=0.5, global_frac=1.0,
                                shared_frac=0.0, local_frac=0.0, n_buffers=0)
        with pytest.raises(ValueError):
            synthesize_trace("x", warps=1, instructions_per_warp=10, spec=spec)

    def test_shape(self):
        trace = synthesize_trace("hotspot", warps=4, instructions_per_warp=300)
        assert len(trace.warps) == 4
        assert all(len(s) == 300 for s in trace.warps)
        assert trace.total_instructions == 1200

    def test_region_mix_tracks_profile(self):
        spec = profile("lud_cuda")
        trace = synthesize_trace("lud_cuda", warps=8,
                                 instructions_per_warp=2000)
        mix = trace.memory_region_mix()
        assert mix["shared"] == pytest.approx(spec.shared_frac, abs=0.05)
        assert mix["global"] == pytest.approx(spec.global_frac, abs=0.05)

    def test_mem_fraction_tracks_profile(self):
        spec = profile("bfs")
        trace = synthesize_trace("bfs", warps=8, instructions_per_warp=2000)
        measured = trace.memory_count() / trace.total_instructions
        assert measured == pytest.approx(spec.mem_fraction, abs=0.04)

    def test_checked_fraction_tracks_profile(self):
        spec = profile("gaussian")
        trace = synthesize_trace("gaussian", warps=8,
                                 instructions_per_warp=2000)
        expected = (1 - spec.mem_fraction) * spec.int_fraction * spec.ptr_rate
        measured = trace.checked_count() / trace.total_instructions
        assert measured == pytest.approx(expected, abs=0.05)

    def test_uncoalesced_benchmarks_have_multi_transaction_ops(self):
        trace = synthesize_trace("needle", warps=4,
                                 instructions_per_warp=1000)
        widths = {
            len(i.lines)
            for s in trace.warps
            for i in s
            if i.op.is_memory
        }
        assert max(widths) > 1

    def test_scatter_locality_varies_buffers(self):
        trace = synthesize_trace("needle", warps=2,
                                 instructions_per_warp=1000)
        buffers = {
            b
            for s in trace.warps
            for i in s
            if i.op.is_memory
            for b in i.buffer_ids
        }
        assert len(buffers) > 8

    def test_addresses_fall_in_declared_regions(self):
        from repro.memory import layout

        trace = synthesize_trace("backprop", warps=2,
                                 instructions_per_warp=500)
        for stream in trace.warps:
            for instr in stream:
                if not instr.op.is_memory:
                    continue
                space = instr.op.space
                lo, hi = layout.region_bounds(space)
                assert all(lo <= line < hi for line in instr.lines)


def _column_digest(trace) -> str:
    """SHA-256 over the eight columns, in field order."""
    digest = hashlib.sha256()
    for name in COLUMNS:
        column = getattr(trace.columnar, name)
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


class TestSynthesisPinned:
    @pytest.mark.parametrize("seed_salt", [0, 2])
    def test_columns_match_pinned_digests(self, seed_salt):
        got = {
            f"{name}/{seed_salt}": _column_digest(
                synthesize_trace(
                    name,
                    warps=DIGESTS["warps"],
                    instructions_per_warp=DIGESTS["instructions_per_warp"],
                    seed_salt=seed_salt,
                )
            )
            for name in all_benchmarks()
        }
        want = {
            key: value
            for key, value in DIGESTS["sha256"].items()
            if key.endswith(f"/{seed_salt}")
        }
        assert len(want) == 28
        assert got == want

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 0x7FFFFFFF])
    def test_randbelow_matches_randrange(self, seed):
        bounds = {1, 2, 3} | {
            bound
            for spec in PROFILES.values()
            for bound in (
                spec.n_buffers,
                max(1, spec.working_set_kb * 1024 // _LINE),
            )
        }
        for n in sorted(bounds):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert [_randbelow(ours.getrandbits, n) for _ in range(300)] == [
                theirs.randrange(n) for _ in range(300)
            ], n
