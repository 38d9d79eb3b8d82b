#!/usr/bin/env python
"""The trace-driven workflow, end to end (NVBit → MacSim style).

1. Generate per-benchmark kernel traces from the Table V profiles, one
   per warp count.
2. Serialize them to `.npz` trace files (versioned columnar arrays).
3. Reload and replay them through the SM timing simulator, comparing
   the unprotected baseline against LMI across warp counts.

Run:  python examples/trace_workflow.py [outdir]
"""

import pathlib
import sys

from repro.sim import (
    BaselineTiming,
    LmiTiming,
    dump_trace_npz,
    load_trace_npz,
    simulate,
)
from repro.workloads import synthesize_trace

BENCHMARKS = ["gaussian", "needle", "bert"]
WARP_COUNTS = (4, 8, 16)


def main() -> None:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "traces")
    outdir.mkdir(exist_ok=True)

    print("1. Generating and serializing traces...")
    paths = {}
    for name in BENCHMARKS:
        for warps in WARP_COUNTS:
            trace = synthesize_trace(
                name, warps=warps, instructions_per_warp=800
            )
            path = outdir / f"{name}-w{warps}.npz"
            dump_trace_npz(trace, path)
            paths[name, warps] = path
            print(f"   {path}  ({trace.total_instructions} instructions, "
                  f"{warps} warps)")

    print("\n2. Replaying through the SM simulator...")
    header = (f"{'benchmark':12s} {'warps':>5s} {'base cycles':>12s} "
              f"{'LMI cycles':>11s} {'overhead':>9s}")
    print(header)
    print("-" * len(header))
    for (name, warps), path in paths.items():
        trace = load_trace_npz(path)
        base = simulate(trace, BaselineTiming())
        lmi = simulate(trace, LmiTiming())
        overhead = lmi.cycles / base.cycles - 1
        print(f"{name:12s} {warps:>5d} {base.cycles:>12,d} "
              f"{lmi.cycles:>11,d} {overhead:>8.2%}")

    print(
        "\nTrace files decouple workload generation from simulation —\n"
        "the same decoupling the paper gets from NVBit + MacSim.  LMI's\n"
        "overhead stays small everywhere.  On ALU-heavy gaussian it\n"
        "falls as warps are added, since more warps hide the OCU's 3\n"
        "cycles: the latency-hiding story of the paper's section XI-A.\n"
        "Memory-bound needle and bert wait on memory, not on the OCU."
    )


if __name__ == "__main__":
    main()
