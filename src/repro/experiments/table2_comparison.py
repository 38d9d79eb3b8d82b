"""Table II — security coverage and overhead comparison.

Combines three sources, as the paper's Table II does:

* **measured coverage** — the Table III suite run through this
  library's mechanism models (GMOD, GPUShield, cuCatch, LMI);
* **measured performance** — Figure 12 (LMI, GPUShield, Baggy on the
  timing simulator) and Figure 13 (memcheck, analytic DBI model);
* **published figures** — rows for mechanisms outside this repo's
  executable scope (CPU schemes; clArmor/IMT coverage details), taken
  from the papers as the original table did.

Coverage symbols follow the paper: ``●`` full, ``◐`` partial,
``○`` none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..security import Category, SecurityReport, run_security_evaluation
from .fabric import CellCache
from .fig12_performance import Fig12Result, run_fig12
from .fig13_dbi import run_fig13

FULL, PARTIAL, NONE = "●", "◐", "○"


def _symbol(detected: int, total: int) -> str:
    if detected == 0:
        return NONE
    if detected == total:
        return FULL
    return PARTIAL


@dataclass
class Table2Row:
    """One mechanism's row."""

    name: str
    target: str
    base: str
    mechanism: str
    coverage: Dict[str, str] = field(default_factory=dict)  # space -> symbol
    temporal: str = NONE
    metadata_access: bool = False
    perf_overhead: str = ""
    source: str = "published"


#: Published rows the repo does not re-measure (CPU schemes, clArmor,
#: IMT), verbatim from the paper's Table II.
PUBLISHED_ROWS: List[Table2Row] = [
    Table2Row("Baggy Bounds", "CPU", "SW", "Pointer Aligning",
              {"stack": FULL, "heap": FULL}, NONE, False, "72%"),
    Table2Row("No-Fat", "CPU", "HW", "Pointer Aligning",
              {"stack": PARTIAL, "heap": FULL}, PARTIAL, True, "8%"),
    Table2Row("C3", "CPU", "HW", "Pointer Encryption",
              {"stack": PARTIAL, "heap": FULL}, FULL, False, "0.01%"),
    Table2Row("clArmor", "GPU", "SW", "Canary",
              {"global": PARTIAL, "shared": NONE, "stack": NONE, "heap": NONE},
              NONE, False, "x1.48"),
    Table2Row("IMT", "GPU", "HW", "Memory Tagging",
              {"global": FULL, "shared": NONE, "stack": NONE, "heap": NONE},
              PARTIAL, True, "2.69%"),
]

_SPACE_CATEGORIES = {
    "global": Category.GLOBAL_OOB,
    "shared": Category.SHARED_OOB,
    "stack": Category.LOCAL_OOB,
    "heap": Category.HEAP_OOB,
}

_MEASURED_META = {
    "gmod": ("GMOD", "GPU", "SW", "Canary", False),
    "gpushield": ("GPUShield", "GPU", "HW", "Pointer Tagging", True),
    "cucatch": ("cuCatch", "GPU", "SW", "Pointer Tagging", True),
    "lmi": ("LMI", "GPU", "HW", "Pointer Aligning", False),
}


@dataclass
class Table2Result:
    """The assembled comparison table."""

    rows: List[Table2Row] = field(default_factory=list)

    def row(self, name: str) -> Table2Row:
        """Row lookup by mechanism name."""
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def format_table(self) -> str:
        """Table II as text."""
        spaces = ("global", "shared", "stack", "heap")
        header = (
            f"{'Name':14s} {'Tgt':4s} {'Base':4s} {'Mechanism':20s} "
            + " ".join(f"{s[:6]:>6s}" for s in spaces)
            + f" {'Temp':>5s} {'Meta':>5s} {'Overhead':>9s}  src"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            cells = " ".join(
                f"{row.coverage.get(s, ' '):>6s}" for s in spaces
            )
            lines.append(
                f"{row.name:14s} {row.target:4s} {row.base:4s} "
                f"{row.mechanism:20s} {cells} {row.temporal:>5s} "
                f"{'Yes' if row.metadata_access else 'No':>5s} "
                f"{row.perf_overhead:>9s}  {row.source}"
            )
        return "\n".join(lines)


def _temporal_symbol(report: SecurityReport, mechanism: str) -> str:
    uaf = report.detections(mechanism, Category.UAF)
    uas = report.detections(mechanism, Category.UAS)
    total = report.total(Category.UAF) + report.total(Category.UAS)
    return _symbol(uaf + uas, total)


def run_table2(
    security: Optional[SecurityReport] = None,
    fig12: Optional[Fig12Result] = None,
    *,
    fast: bool = False,
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> Table2Result:
    """Assemble the full table.

    ``fast`` shrinks the Figure 12 simulation for quick test runs;
    ``jobs``, ``cache`` and ``shard`` go to its grid (see
    :func:`~repro.experiments.fig12_performance.run_fig12`).
    """
    if security is None:
        security = run_security_evaluation()
    if fig12 is None:
        scale = dict(warps=8, instructions_per_warp=400) if fast else {}
        fig12 = run_fig12(jobs=jobs, cache=cache, shard=shard, **scale)
    fig13 = run_fig13()

    result = Table2Result(rows=list(PUBLISHED_ROWS))
    overheads = {
        "gpushield": f"{fig12.mean_overhead('gpushield') * 100:.1f}%",
        "lmi": f"{fig12.mean_overhead('lmi') * 100:.1f}%",
        "gmod": "x3.06",  # canary cost is not timing-modelled; published
        "cucatch": "19%",  # compiler scheme outside the timing models
    }
    for key, (name, target, base, mechanism, metadata) in _MEASURED_META.items():
        coverage = {}
        for space, category in _SPACE_CATEGORIES.items():
            coverage[space] = _symbol(
                security.detections(key, category), security.total(category)
            )
        result.rows.append(
            Table2Row(
                name=name,
                target=target,
                base=base,
                mechanism=mechanism,
                coverage=coverage,
                temporal=_temporal_symbol(security, key),
                metadata_access=metadata,
                perf_overhead=overheads[key],
                source="measured" if key in ("gpushield", "lmi") else "mixed",
            )
        )
    # Compute Sanitizer: coverage published, overhead measured (fig13).
    result.rows.append(
        Table2Row(
            "Compute Sanit.", "GPU", "SW", "Tripwires",
            {"global": FULL, "shared": PARTIAL, "stack": PARTIAL,
             "heap": PARTIAL},
            FULL, True, f"x{fig13.geomean('memcheck'):.2f}", "measured",
        )
    )
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run_table2().format_table())


if __name__ == "__main__":  # pragma: no cover
    main()
