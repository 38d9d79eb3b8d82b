"""Figure 12 — normalized execution time of Baggy Bounds, GPUShield and
LMI on the timing simulator, over all 28 benchmarks.

Paper shapes this reproduction targets:

* LMI mean overhead ~0.2 % with no per-benchmark spikes;
* GPUShield competitive on average but spiking on *needle* and *LSTM*
  (L1 RCache misses under uncoalesced access);
* Baggy Bounds ~87 % mean overhead, peaking ~5x on compute-bound
  kernels (the software check chain consumes issue slots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.config import DEFAULT_GPU_CONFIG, GpuConfig
from ..workloads import all_benchmarks
from .engine import SimJob, model_factory, run_sim_jobs
from .fabric import CellCache

#: Warps per scheduler partition: enough to make the baseline
#: issue-bound, as on a well-occupied real SM.
DEFAULT_WARPS = 16
DEFAULT_INSTRUCTIONS = 2000

MECHANISM_ORDER = ("baggy", "gpushield", "lmi")

#: Backwards-compatible alias (the factory now lives in the engine).
_model_factory = model_factory


@dataclass
class Fig12Row:
    """One benchmark's normalized execution times."""

    benchmark: str
    base_cycles: int
    normalized: Dict[str, float] = field(default_factory=dict)

    def overhead(self, mechanism: str) -> float:
        """Relative overhead (normalized time - 1)."""
        return self.normalized[mechanism] - 1.0


@dataclass
class Fig12Result:
    """The full figure."""

    rows: List[Fig12Row] = field(default_factory=list)

    def mean_overhead(self, mechanism: str) -> float:
        """Arithmetic-mean overhead across benchmarks."""
        values = [row.overhead(mechanism) for row in self.rows]
        return sum(values) / len(values) if values else 0.0

    def geomean_normalized(self, mechanism: str) -> float:
        """Geometric-mean normalized execution time."""
        values = [row.normalized[mechanism] for row in self.rows]
        if not values:
            return 1.0
        return math.exp(sum(math.log(v) for v in values) / len(values))

    def max_overhead(self, mechanism: str):
        """(benchmark, overhead) of the worst case."""
        row = max(self.rows, key=lambda r: r.overhead(mechanism))
        return row.benchmark, row.overhead(mechanism)

    def row(self, benchmark: str) -> Fig12Row:
        """Row lookup by benchmark name."""
        for row in self.rows:
            if row.benchmark == benchmark:
                return row
        raise KeyError(benchmark)

    def format_table(self) -> str:
        """The figure as text: one row per benchmark."""
        header = f"{'benchmark':22s} " + " ".join(
            f"{m:>10s}" for m in MECHANISM_ORDER
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            cells = " ".join(
                f"{row.normalized[m]:>10.4f}" for m in MECHANISM_ORDER
            )
            lines.append(f"{row.benchmark:22s} {cells}")
        lines.append("-" * len(header))
        means = " ".join(
            f"{self.geomean_normalized(m):>10.4f}" for m in MECHANISM_ORDER
        )
        lines.append(f"{'geomean':22s} {means}")
        return "\n".join(lines)


def run_fig12(
    benchmarks: Optional[Sequence[str]] = None,
    *,
    warps: int = DEFAULT_WARPS,
    instructions_per_warp: int = DEFAULT_INSTRUCTIONS,
    mechanisms: Sequence[str] = MECHANISM_ORDER,
    config: GpuConfig = DEFAULT_GPU_CONFIG,
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> Fig12Result:
    """Simulate every benchmark under every mechanism.

    The (benchmark × mechanism) grid runs through the experiment
    engine; ``jobs`` bounds the worker processes (1 = in process),
    and ``cache``/``shard`` go to :func:`run_sim_jobs`.  Results are
    identical for any ``jobs``, cache state and shard.
    """
    names = list(benchmarks) if benchmarks is not None else all_benchmarks()
    job_list = [
        SimJob(
            benchmark=name,
            mechanism=mechanism,
            warps=warps,
            instructions_per_warp=instructions_per_warp,
        )
        for name in names
        for mechanism in ("baseline", *mechanisms)
    ]
    outcomes = {
        outcome.job.key: outcome
        for outcome in run_sim_jobs(
            job_list, config=config, n_jobs=jobs, cache=cache, shard=shard
        )
    }
    result = Fig12Result()
    for name in names:
        base_cycles = outcomes[(name, "baseline")].cycles
        row = Fig12Row(benchmark=name, base_cycles=base_cycles)
        for mechanism in mechanisms:
            run = outcomes[(name, mechanism)]
            row.normalized[mechanism] = run.cycles / base_cycles
        result.rows.append(row)
    return result


def main() -> None:  # pragma: no cover - CLI entry
    result = run_fig12()
    print(result.format_table())
    for mechanism in MECHANISM_ORDER:
        worst, overhead = result.max_overhead(mechanism)
        print(
            f"{mechanism}: mean overhead {result.mean_overhead(mechanism)*100:.2f}% "
            f"(worst {worst}: {overhead*100:.1f}%)"
        )


if __name__ == "__main__":  # pragma: no cover
    main()
