"""Per-benchmark workload profiles.

The paper drives MacSim with NVBit traces of 28 real benchmarks
(Table V).  Without the binaries, each benchmark is characterised by a
profile — instruction mix, memory-region ratios, pointer-arithmetic
density, coalescing and locality behaviour, allocation-size list —
from which :mod:`repro.workloads.synthetic` generates deterministic
traces.  Values are calibrated to the characteristics the paper
reports (Figure 1 region mixes, Figure 4 fragmentation, the
needle/LSTM RCache pathology, the compute-bound Baggy peak) and to
general knowledge of the suites; they are *synthetic stand-ins*, which
is exactly the fidelity the repro bands call for.

Profile fields that feed each experiment:

* ``global_frac``/``shared_frac``/``local_frac`` → Figure 1;
* ``alloc_sizes`` → Figure 4 (peak-RSS fragmentation);
* ``mem_fraction``, ``ptr_rate``, ``dep_rate``, ``coalesced``,
  ``n_buffers``, ``buffer_locality`` → Figure 12 timing;
* ``dbi_check_ratio`` → Figure 13 (LMI bound checks per LD/ST under
  DBI, the quantity the paper quotes as 67.14 for gaussian and 28.13
  for swin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..common.errors import ConfigurationError


@dataclass(frozen=True)
class BenchmarkProfile:
    """Synthetic characterisation of one GPU benchmark."""

    name: str
    suite: str
    #: Fraction of dynamic instructions that are memory operations.
    mem_fraction: float
    #: Of the memory operations: region split (must sum to 1).
    global_frac: float
    shared_frac: float
    local_frac: float
    #: Of the non-memory operations: integer share (rest is FP).
    int_fraction: float = 0.5
    #: Fraction of INT ops that are checked pointer arithmetic.
    ptr_rate: float = 0.25
    #: Probability an instruction depends on its predecessor.
    dep_rate: float = 0.35
    #: Fraction of global/local memory ops that fully coalesce.
    coalesced: float = 0.9
    #: Transactions generated by an uncoalesced access.
    uncoalesced_transactions: int = 16
    #: Distinct global buffers (bounds-table entries for GPUShield).
    n_buffers: int = 8
    #: 'stream' = consecutive accesses hit the same buffer;
    #: 'scatter' = each access picks a random buffer (RCache thrash).
    buffer_locality: str = "stream"
    #: Working set in KiB (drives cache hit rates).
    working_set_kb: int = 512
    #: LMI bound checks per LD/ST under the DBI implementation.
    dbi_check_ratio: float = 30.0
    #: Relative cost of memcheck's per-LD/ST instrumentation on this
    #: benchmark (1.0 = typical; >1 where the tripwire shadow checks
    #: are unusually expensive).
    memcheck_cost_ratio: float = 1.0
    #: Allocation sizes: (bytes, count) pairs (Figure 4).
    alloc_sizes: Tuple[Tuple[int, int], ...] = ((1 << 20, 4),)

    def __post_init__(self) -> None:
        # Only profiles the trace synthesizers can honour: each
        # probability in [0, 1], at least one transaction per access
        # and one buffer, and no negative working set.
        for field_name in ("global_frac", "shared_frac", "local_frac",
                           "mem_fraction", "int_fraction", "ptr_rate",
                           "dep_rate", "coalesced"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{self.name}: {field_name} must lie in [0, 1], "
                    f"got {value}"
                )
        total = self.global_frac + self.shared_frac + self.local_frac
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"{self.name}: region fractions sum to {total}, expected 1"
            )
        for field_name, least in (("uncoalesced_transactions", 1),
                                  ("n_buffers", 1), ("working_set_kb", 0)):
            value = getattr(self, field_name)
            if value < least:
                raise ConfigurationError(
                    f"{self.name}: {field_name} must be >= {least}, "
                    f"got {value}"
                )
        if self.buffer_locality not in ("stream", "scatter"):
            raise ConfigurationError(
                f"{self.name}: unknown buffer locality {self.buffer_locality!r}"
            )


def _p2h(size: int, count: int) -> Tuple[int, int]:
    """A power-of-two-plus-header allocation (the Figure 4 pathology)."""
    return (size + 16, count)


#: All 28 benchmarks of Table V.
PROFILES: Dict[str, BenchmarkProfile] = {}


def _add(profile: BenchmarkProfile) -> None:
    PROFILES[profile.name] = profile


# ----------------------------------------------------------------------
# Rodinia (15)

_add(BenchmarkProfile(
    "backprop", "rodinia", mem_fraction=0.32,
    global_frac=0.45, shared_frac=0.50, local_frac=0.05,
    int_fraction=0.45, ptr_rate=0.55, dep_rate=0.35, coalesced=0.92,
    n_buffers=6, working_set_kb=2048, dbi_check_ratio=48.0,
    alloc_sizes=(_p2h(1 << 16, 11), _p2h(1 << 18, 2), (1 << 17, 1),
                 (1 << 12, 16)),
))
_add(BenchmarkProfile(
    "bfs", "rodinia", mem_fraction=0.42,
    global_frac=0.92, shared_frac=0.02, local_frac=0.06,
    int_fraction=0.75, ptr_rate=0.60, dep_rate=0.45, coalesced=0.45,
    n_buffers=6, buffer_locality="stream", working_set_kb=8192,
    dbi_check_ratio=76.0,
    alloc_sizes=((1 << 20, 2), (3 << 18, 2), (1 << 16, 2)),
))
_add(BenchmarkProfile(
    "dwt2d", "rodinia", mem_fraction=0.30,
    global_frac=0.60, shared_frac=0.36, local_frac=0.04,
    int_fraction=0.40, ptr_rate=0.55, dep_rate=0.35, coalesced=0.85,
    n_buffers=8, working_set_kb=4096, dbi_check_ratio=52.0,
    alloc_sizes=((3 << 18, 2), (1 << 18, 2), (1 << 20, 1)),
))
_add(BenchmarkProfile(
    "gaussian", "rodinia", mem_fraction=0.10,
    global_frac=0.85, shared_frac=0.10, local_frac=0.05,
    int_fraction=0.90, ptr_rate=0.85, dep_rate=0.55, coalesced=0.95,
    n_buffers=3, working_set_kb=1024, dbi_check_ratio=67.14,
    alloc_sizes=((1 << 18, 2), (1 << 10, 2)),
))
_add(BenchmarkProfile(
    "hotspot", "rodinia", mem_fraction=0.28,
    global_frac=0.35, shared_frac=0.62, local_frac=0.03,
    int_fraction=0.35, ptr_rate=0.55, dep_rate=0.30, coalesced=0.95,
    n_buffers=3, working_set_kb=1024, dbi_check_ratio=44.0,
    alloc_sizes=((1 << 20, 2), (1 << 18, 1)),  # exact powers of two
))
_add(BenchmarkProfile(
    "lavaMD", "rodinia", mem_fraction=0.25,
    global_frac=0.40, shared_frac=0.55, local_frac=0.05,
    int_fraction=0.30, ptr_rate=0.50, dep_rate=0.40, coalesced=0.80,
    n_buffers=5, working_set_kb=2048, dbi_check_ratio=40.0,
    alloc_sizes=((1536 << 10, 1), (1 << 20, 2), _p2h(1 << 17, 1)),
))
_add(BenchmarkProfile(
    "lud_cuda", "rodinia", mem_fraction=0.35,
    global_frac=0.12, shared_frac=0.86, local_frac=0.02,
    int_fraction=0.35, ptr_rate=0.50, dep_rate=0.35, coalesced=0.90,
    n_buffers=2, working_set_kb=512, dbi_check_ratio=36.0,
    alloc_sizes=((1 << 21, 1), (1 << 12, 1)),
))
_add(BenchmarkProfile(
    "needle", "rodinia", mem_fraction=0.38,
    global_frac=0.18, shared_frac=0.80, local_frac=0.02,
    int_fraction=0.55, ptr_rate=0.50, dep_rate=0.55, coalesced=0.08,
    n_buffers=96, buffer_locality="scatter", working_set_kb=16384,
    uncoalesced_transactions=24,
    dbi_check_ratio=60.0,
    alloc_sizes=(_p2h(1 << 19, 8), _p2h(1 << 17, 4), (1 << 17, 2),
                 (1 << 13, 11)),
))
_add(BenchmarkProfile(
    "nn", "rodinia", mem_fraction=0.45,
    global_frac=0.90, shared_frac=0.02, local_frac=0.08,
    int_fraction=0.40, ptr_rate=0.45, dep_rate=0.30, coalesced=0.90,
    n_buffers=4, working_set_kb=4096, dbi_check_ratio=32.0,
    alloc_sizes=((5 << 16, 1), (1 << 18, 2), (1 << 16, 2)),
))
_add(BenchmarkProfile(
    "particlefilter_float", "rodinia", mem_fraction=0.33,
    global_frac=0.70, shared_frac=0.20, local_frac=0.10,
    int_fraction=0.45, ptr_rate=0.50, dep_rate=0.40, coalesced=0.75,
    n_buffers=10, working_set_kb=4096, dbi_check_ratio=56.0,
    alloc_sizes=(_p2h(3 << 16, 4), (1 << 16, 4)),
))
_add(BenchmarkProfile(
    "particlefilter_naive", "rodinia", mem_fraction=0.40,
    global_frac=0.85, shared_frac=0.05, local_frac=0.10,
    int_fraction=0.50, ptr_rate=0.55, dep_rate=0.45, coalesced=0.55,
    n_buffers=10, working_set_kb=8192, dbi_check_ratio=64.0,
    alloc_sizes=(_p2h(3 << 16, 2), (1 << 16, 4)),
))
_add(BenchmarkProfile(
    "pathfinder", "rodinia", mem_fraction=0.30,
    global_frac=0.42, shared_frac=0.55, local_frac=0.03,
    int_fraction=0.50, ptr_rate=0.55, dep_rate=0.35, coalesced=0.95,
    n_buffers=3, working_set_kb=2048, dbi_check_ratio=48.0,
    alloc_sizes=((5 << 18, 1), (1 << 20, 2), (1 << 14, 1)),
))
_add(BenchmarkProfile(
    "sc_gpu", "rodinia", mem_fraction=0.36,
    global_frac=0.75, shared_frac=0.18, local_frac=0.07,
    int_fraction=0.55, ptr_rate=0.55, dep_rate=0.40, coalesced=0.65,
    n_buffers=12, working_set_kb=4096, dbi_check_ratio=60.0,
    alloc_sizes=(_p2h(3 << 17, 1), (1 << 18, 3), (1 << 15, 3)),
))
_add(BenchmarkProfile(
    "srad_v1", "rodinia", mem_fraction=0.34,
    global_frac=0.65, shared_frac=0.30, local_frac=0.05,
    int_fraction=0.35, ptr_rate=0.50, dep_rate=0.30, coalesced=0.95,
    n_buffers=6, working_set_kb=4096, dbi_check_ratio=40.0,
    alloc_sizes=((1 << 20, 4), (1 << 18, 2)),  # exact powers of two
))
_add(BenchmarkProfile(
    "srad_v2", "rodinia", mem_fraction=0.34,
    global_frac=0.60, shared_frac=0.35, local_frac=0.05,
    int_fraction=0.35, ptr_rate=0.50, dep_rate=0.30, coalesced=0.95,
    n_buffers=6, working_set_kb=4096, dbi_check_ratio=40.0,
    alloc_sizes=((1 << 20, 4), (1 << 17, 2)),
))

# ----------------------------------------------------------------------
# Tango DNN benchmarks (4)

_add(BenchmarkProfile(
    "AlexNet", "tango", mem_fraction=0.30,
    global_frac=0.55, shared_frac=0.43, local_frac=0.02,
    int_fraction=0.30, ptr_rate=0.50, dep_rate=0.30, coalesced=0.90,
    n_buffers=16, working_set_kb=8192, dbi_check_ratio=44.0,
    alloc_sizes=(_p2h(1 << 20, 4), (1 << 19, 4)),
))
_add(BenchmarkProfile(
    "CifarNet", "tango", mem_fraction=0.30,
    global_frac=0.60, shared_frac=0.38, local_frac=0.02,
    int_fraction=0.30, ptr_rate=0.50, dep_rate=0.30, coalesced=0.90,
    n_buffers=12, working_set_kb=4096, dbi_check_ratio=44.0,
    alloc_sizes=(_p2h(1 << 18, 6), (1 << 16, 4)),
))
_add(BenchmarkProfile(
    "GRU", "tango", mem_fraction=0.36,
    global_frac=0.70, shared_frac=0.26, local_frac=0.04,
    int_fraction=0.35, ptr_rate=0.50, dep_rate=0.45, coalesced=0.50,
    n_buffers=24, buffer_locality="stream", working_set_kb=8192,
    dbi_check_ratio=52.0,
    alloc_sizes=(_p2h(1 << 19, 4), (1 << 17, 4)),
))
_add(BenchmarkProfile(
    "LSTM", "tango", mem_fraction=0.38,
    global_frac=0.72, shared_frac=0.24, local_frac=0.04,
    int_fraction=0.35, ptr_rate=0.50, dep_rate=0.50, coalesced=0.75,
    n_buffers=22, buffer_locality="scatter", working_set_kb=16384,
    uncoalesced_transactions=8,
    dbi_check_ratio=56.0,
    alloc_sizes=(_p2h(1 << 19, 6), (1 << 17, 4)),
))

# ----------------------------------------------------------------------
# FasterTransformer (5)

_add(BenchmarkProfile(
    "bert", "ft", mem_fraction=0.34,
    global_frac=0.96, shared_frac=0.03, local_frac=0.01,
    int_fraction=0.30, ptr_rate=0.45, dep_rate=0.30, coalesced=0.95,
    n_buffers=20, working_set_kb=16384, dbi_check_ratio=48.0,
    alloc_sizes=((1 << 22, 6), _p2h(1 << 20, 4)),
))
_add(BenchmarkProfile(
    "decoding", "ft", mem_fraction=0.36,
    global_frac=0.97, shared_frac=0.02, local_frac=0.01,
    int_fraction=0.32, ptr_rate=0.45, dep_rate=0.35, coalesced=0.92,
    n_buffers=24, working_set_kb=16384, dbi_check_ratio=52.0,
    alloc_sizes=((1 << 22, 4), _p2h(1 << 19, 6)),
))
_add(BenchmarkProfile(
    "swin", "ft", mem_fraction=0.32,
    global_frac=0.80, shared_frac=0.18, local_frac=0.02,
    int_fraction=0.35, ptr_rate=0.45, dep_rate=0.30, coalesced=0.90,
    n_buffers=18, working_set_kb=8192, dbi_check_ratio=28.13,
    memcheck_cost_ratio=1.6,
    alloc_sizes=((1 << 21, 4), _p2h(1 << 18, 4)),
))
_add(BenchmarkProfile(
    "wenet_decoder", "ft", mem_fraction=0.34,
    global_frac=0.88, shared_frac=0.10, local_frac=0.02,
    int_fraction=0.32, ptr_rate=0.45, dep_rate=0.32, coalesced=0.90,
    n_buffers=16, working_set_kb=8192, dbi_check_ratio=52.0,
    alloc_sizes=((1 << 20, 6), _p2h(1 << 18, 2)),
))
_add(BenchmarkProfile(
    "wenet_encoder", "ft", mem_fraction=0.33,
    global_frac=0.90, shared_frac=0.08, local_frac=0.02,
    int_fraction=0.32, ptr_rate=0.45, dep_rate=0.32, coalesced=0.90,
    n_buffers=16, working_set_kb=8192, dbi_check_ratio=50.0,
    alloc_sizes=((1 << 20, 6), _p2h(1 << 17, 4)),
))

# ----------------------------------------------------------------------
# Autonomous driving (4)

_add(BenchmarkProfile(
    "BEVerse", "ad", mem_fraction=0.33,
    global_frac=0.82, shared_frac=0.15, local_frac=0.03,
    int_fraction=0.35, ptr_rate=0.50, dep_rate=0.35, coalesced=0.85,
    n_buffers=28, working_set_kb=16384, dbi_check_ratio=60.0,
    alloc_sizes=((1 << 22, 4), _p2h(1 << 20, 6)),
))
_add(BenchmarkProfile(
    "DETR", "ad", mem_fraction=0.32,
    global_frac=0.85, shared_frac=0.13, local_frac=0.02,
    int_fraction=0.32, ptr_rate=0.45, dep_rate=0.32, coalesced=0.88,
    n_buffers=24, working_set_kb=16384, dbi_check_ratio=56.0,
    alloc_sizes=((1 << 22, 4), _p2h(1 << 19, 4)),
))
_add(BenchmarkProfile(
    "MOTR", "ad", mem_fraction=0.33,
    global_frac=0.84, shared_frac=0.13, local_frac=0.03,
    int_fraction=0.33, ptr_rate=0.45, dep_rate=0.33, coalesced=0.86,
    n_buffers=26, working_set_kb=16384, dbi_check_ratio=58.0,
    alloc_sizes=((1 << 21, 6), _p2h(1 << 19, 4)),
))
_add(BenchmarkProfile(
    "segformer", "ad", mem_fraction=0.32,
    global_frac=0.83, shared_frac=0.15, local_frac=0.02,
    int_fraction=0.33, ptr_rate=0.45, dep_rate=0.32, coalesced=0.87,
    n_buffers=24, working_set_kb=16384, dbi_check_ratio=54.0,
    alloc_sizes=((1 << 22, 3), _p2h(1 << 20, 5)),
))


#: Table V suite membership, in the paper's order.
SUITES: Dict[str, List[str]] = {
    "rodinia": [
        "backprop", "bfs", "dwt2d", "gaussian", "hotspot", "lavaMD",
        "lud_cuda", "needle", "nn", "particlefilter_float",
        "particlefilter_naive", "pathfinder", "sc_gpu", "srad_v1", "srad_v2",
    ],
    "tango": ["AlexNet", "CifarNet", "GRU", "LSTM"],
    "ft": ["bert", "decoding", "swin", "wenet_decoder", "wenet_encoder"],
    "ad": ["BEVerse", "DETR", "MOTR", "segformer"],
}


def all_benchmarks() -> List[str]:
    """All 28 benchmark names in Table V order."""
    out: List[str] = []
    for suite in ("rodinia", "tango", "ft", "ad"):
        out.extend(SUITES[suite])
    return out


def profile(name: str) -> BenchmarkProfile:
    """Profile lookup with a helpful error."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; see workloads.all_benchmarks()"
        ) from None
