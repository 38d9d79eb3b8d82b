"""Figure 13 — DBI implementations: LMI-by-NVBit vs Compute Sanitizer
memcheck (normalized execution time, log scale in the paper).

Both tools' overheads are dominated by *executing the inserted
instructions* — the paper measures the JIT share at only ~5 % — so the
model is analytic over dynamic instruction counts rather than
cycle-simulated:

* **memcheck** instruments every LD/ST with its tripwire shadow-check
  sequence:  ``S = 1 + C_MEMCHECK * cost_ratio * f_mem``;
* **LMI-DBI** additionally instruments every instruction with pointer
  operands, so its check count per LD/ST is the benchmark's
  ``dbi_check_ratio`` (the paper quotes 67.14 for gaussian and 28.13
  for swin):  ``S = 1 + C_LMI_DBI * ratio * f_mem``.

Per the paper's footnote, the AD benchmarks are excluded (NVBit
incompatibility / sanitizer OOM).  JIT compilation adds the measured
~4 % (NVBit) and ~5.2 % (memcheck) on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..workloads import SUITES, all_benchmarks, profile

#: Instrumentation instructions (relative cost units) per memcheck
#: LD/ST site; calibrated to the paper's x32.98 geomean.
C_MEMCHECK = 95.0
#: Relative cost units per LMI-DBI bound check; calibrated to the
#: paper's x72.95 geomean.
C_LMI_DBI = 4.5
#: Measured JIT overheads (paper section XI-B).
JIT_NVBIT = 1.04
JIT_MEMCHECK = 1.052


def fig13_benchmarks() -> List[str]:
    """The paper's Figure 13 set: everything except the AD suite."""
    excluded = set(SUITES["ad"])
    return [name for name in all_benchmarks() if name not in excluded]


@dataclass
class Fig13Row:
    """One benchmark's normalized execution times (x slowdown)."""

    benchmark: str
    lmi_dbi: float
    memcheck: float

    @property
    def winner(self) -> str:
        """Which tool is faster on this benchmark."""
        return "lmi_dbi" if self.lmi_dbi < self.memcheck else "memcheck"


@dataclass
class Fig13Result:
    """The full figure."""

    rows: List[Fig13Row] = field(default_factory=list)

    def geomean(self, tool: str) -> float:
        """Geometric-mean slowdown of one tool."""
        values = [getattr(row, tool) for row in self.rows]
        return math.exp(sum(math.log(v) for v in values) / len(values))

    def row(self, benchmark: str) -> Fig13Row:
        """Row lookup by name."""
        for row in self.rows:
            if row.benchmark == benchmark:
                return row
        raise KeyError(benchmark)

    def format_table(self) -> str:
        """The figure as text."""
        lines = [f"{'benchmark':22s} {'lmi-dbi':>10s} {'memcheck':>10s}"]
        lines.append("-" * 46)
        for row in self.rows:
            lines.append(
                f"{row.benchmark:22s} {row.lmi_dbi:>9.2f}x {row.memcheck:>9.2f}x"
            )
        lines.append("-" * 46)
        lines.append(
            f"{'geomean':22s} {self.geomean('lmi_dbi'):>9.2f}x "
            f"{self.geomean('memcheck'):>9.2f}x"
        )
        return "\n".join(lines)


def _row_for(name: str) -> Fig13Row:
    """One benchmark's analytic slowdowns."""
    spec = profile(name)
    f_mem = spec.mem_fraction
    lmi = (1.0 + C_LMI_DBI * spec.dbi_check_ratio * f_mem) * JIT_NVBIT
    mem = (1.0 + C_MEMCHECK * spec.memcheck_cost_ratio * f_mem) * JIT_MEMCHECK
    return Fig13Row(benchmark=name, lmi_dbi=lmi, memcheck=mem)


def run_fig13(benchmarks: Optional[Sequence[str]] = None) -> Fig13Result:
    """Compute the DBI slowdowns for every Figure 13 benchmark.

    The model is analytic — a few arithmetic operations per row — so
    the rows are computed in process, in input order.
    """
    names = list(benchmarks) if benchmarks is not None else fig13_benchmarks()
    return Fig13Result(rows=[_row_for(name) for name in names])


def main() -> None:  # pragma: no cover - CLI entry
    result = run_fig13()
    print(result.format_table())
    for name in ("gaussian", "swin"):
        row = result.row(name)
        print(f"{name}: winner = {row.winner}")


if __name__ == "__main__":  # pragma: no cover
    main()
