"""Experiment drivers, one per paper table/figure."""

from .engine import JobResult, SimJob, model_factory, run_sim_jobs
from .fabric import (
    CellCache,
    cell_digest,
    code_fingerprint,
    fabric_counters,
    reset_fabric_counters,
    resolve_cell_cache,
    resolve_shard,
)
from .feasibility_study import FeasibilityStudy, run_feasibility_study
from .fig1_memory_mix import Fig1Result, Fig1Row, run_fig1
from .fig4_fragmentation import Fig4Result, Fig4Row, measure_benchmark, run_fig4
from .fig12_performance import Fig12Result, Fig12Row, run_fig12
from .fig13_dbi import Fig13Result, Fig13Row, fig13_benchmarks, run_fig13
from .table2_comparison import Table2Result, Table2Row, run_table2
from .table3_security import PAPER_TABLE3, PAPER_TOTALS, mismatches, run_table3
from .table6_hardware import (
    PAPER_CRITICAL_PATH_NS,
    PAPER_FMAX_GHZ,
    PAPER_OCU_GE_PER_THREAD,
    PAPER_PIPELINE_CYCLES,
    PAPER_REGISTER_SLICES,
    TARGET_CLOCK_GHZ,
    Table6Result,
    run_table6,
)

__all__ = [
    "JobResult", "SimJob", "model_factory", "run_sim_jobs",
    "CellCache", "cell_digest", "code_fingerprint", "fabric_counters",
    "reset_fabric_counters", "resolve_cell_cache", "resolve_shard",
    "FeasibilityStudy", "run_feasibility_study",
    "Fig1Result", "Fig1Row", "run_fig1",
    "Fig4Result", "Fig4Row", "measure_benchmark", "run_fig4",
    "Fig12Result", "Fig12Row", "run_fig12",
    "Fig13Result", "Fig13Row", "fig13_benchmarks", "run_fig13",
    "Table2Result", "Table2Row", "run_table2",
    "PAPER_TABLE3", "PAPER_TOTALS", "mismatches", "run_table3",
    "PAPER_CRITICAL_PATH_NS", "PAPER_FMAX_GHZ", "PAPER_OCU_GE_PER_THREAD",
    "PAPER_PIPELINE_CYCLES", "PAPER_REGISTER_SLICES", "TARGET_CLOCK_GHZ",
    "Table6Result", "run_table6",
]
