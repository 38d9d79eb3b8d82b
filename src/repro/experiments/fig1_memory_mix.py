"""Figure 1 — ratio of memory instructions per region.

Counts LDG/STG (global), LDS/STS (shared) and LDL/STL (local)
instructions in each benchmark's generated trace, exactly as the paper
categorises them.  The shapes the paper highlights:

* *bert* and *decoding* access global memory almost exclusively;
* *lud_cuda* and *needle* are >80 % shared-memory accesses —
  the motivating gap in GPUShield's global-only coverage.

Given the run's cell cache (``--cell-cache``), each benchmark's mix is
kept there as a small content-addressed record
(:func:`~repro.experiments.fabric.fig1_digest`), so a warm run reads
28 records and synthesizes nothing: synthesizing the 28 traces was
about half of a warm run-all's wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..workloads import all_benchmarks, synthesize_trace
from .fabric import FIG1_SCHEMA, CellCache, fig1_digest


@dataclass
class Fig1Row:
    """One benchmark's memory-region mix (fractions sum to 1)."""

    benchmark: str
    global_frac: float
    shared_frac: float
    local_frac: float


@dataclass
class Fig1Result:
    """The full figure."""

    rows: List[Fig1Row] = field(default_factory=list)

    def row(self, benchmark: str) -> Fig1Row:
        """Row lookup by benchmark name."""
        for row in self.rows:
            if row.benchmark == benchmark:
                return row
        raise KeyError(benchmark)

    def format_table(self) -> str:
        """The figure as text, one row per benchmark."""
        lines = [
            f"{'benchmark':22s} {'global':>8s} {'shared':>8s} {'local':>8s}"
        ]
        lines.append("-" * 50)
        for row in self.rows:
            lines.append(
                f"{row.benchmark:22s} {row.global_frac:>7.1%} "
                f"{row.shared_frac:>7.1%} {row.local_frac:>7.1%}"
            )
        return "\n".join(lines)


def _region_mix(
    name: str,
    warps: int,
    instructions_per_warp: int,
    cache: Optional[CellCache],
) -> Dict[str, float]:
    """*name*'s region mix: *cache*'s record, else synthesized (and
    stored when there is a cache)."""
    if cache is not None:
        digest = fig1_digest(name, warps, instructions_per_warp)
        record = cache.load(digest, want_events=False, schema=FIG1_SCHEMA)
        if record is not None:
            return record["mix"]
    trace = synthesize_trace(
        name, warps=warps, instructions_per_warp=instructions_per_warp
    )
    mix = trace.memory_region_mix()
    if cache is not None:
        cache.store({"schema": FIG1_SCHEMA, "digest": digest, "mix": mix})
    return mix


def run_fig1(
    benchmarks: Optional[Sequence[str]] = None,
    *,
    warps: int = 8,
    instructions_per_warp: int = 2000,
    cache: Optional[CellCache] = None,
) -> Fig1Result:
    """Measure the region mix of every benchmark's trace.

    *cache* (a :class:`~repro.experiments.fabric.CellCache`, off by
    default) serves and keeps each benchmark's mix.
    """
    names = list(benchmarks) if benchmarks is not None else all_benchmarks()
    result = Fig1Result()
    for name in names:
        mix = _region_mix(name, warps, instructions_per_warp, cache)
        result.rows.append(
            Fig1Row(
                benchmark=name,
                global_frac=mix["global"],
                shared_frac=mix["shared"],
                local_frac=mix["local"],
            )
        )
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run_fig1().format_table())


if __name__ == "__main__":  # pragma: no cover
    main()
