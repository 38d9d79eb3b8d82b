"""Compare two sets of end-to-end benchmark results.

Usage::

    python benchmarks/e2e/compare.py A.json B.json
    python benchmarks/e2e/compare.py baseline.json:0 baseline.json:1

Each argument is a ``results.json`` written by ``run.py --repeat N``,
or ``FILE:K`` for the K-th set of a file holding ``{"sets": [...]}``
(such as ``baseline.json``).  A is the parent, B the change.  Runs are
paired in order.  For every (workload, end-to-end metric) it prints
both medians and quartiles, the fraction of pairs B wins, and a
verdict:

* ``better`` — B wins at least 9 pairs in 10 (ties count for neither)
  and the medians differ by more than A's interquartile range;
* ``unresolved`` — the spread (IQR / median) of A or B is wider than
  the metric's bound, unless every run of B reads better than every
  run of A (then ``unchanged``);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``unchanged`` — otherwise.

Bounds and directions come from ``BENCHMARK.json``.  Exits 1 on any
``worse`` verdict or when B's failed fraction exceeds A's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, quartiles  # noqa: E402


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, win fraction of B)`` for one metric's paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    spread = max((q3a - q1a) / abs(ma) if ma else 0.0,
                 (q3b - q1b) / abs(mb) if mb else 0.0)
    improvement = sign * (ma - mb)
    if win_frac >= 0.9 and improvement > q3a - q1a:
        return "better", win_frac
    if spread > bound:
        every = all(sign * (y - x) < 0 for x in a for y in b)
        return ("unchanged" if every else "unresolved"), win_frac
    if ma and -improvement / abs(ma) > bound:
        return "worse", win_frac
    return "unchanged", win_frac


def load(argument: str) -> Dict[str, object]:
    path, _, index = argument.partition(":")
    document = json.loads(Path(path).read_text())
    if "sets" in document:
        return document["sets"][int(index or 0)]
    return document


def values(doc: Dict[str, object], workload: str, metric: str) -> List[float]:
    runs = doc["workloads"].get(workload, {}).get("runs", [])
    return [run["metrics"][metric]["value"] for run in runs
            if metric in run["metrics"]]


def failed_frac(doc: Dict[str, object], workload: str) -> float:
    runs = doc["workloads"].get(workload, {}).get("runs", [])
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    print(f"{'workload':15s} {'metric':12s} {'A median [Q1,Q3]':>30s} "
          f"{'B median [Q1,Q3]':>30s} {'B wins':>7s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            va = values(a, workload, metric["name"])
            vb = values(b, workload, metric["name"])
            if not va or not vb:
                continue
            result, wins = verdict(va, vb, metric["better"], metric["bound"])
            if result == "worse":
                status = 1
            qa, qb = quartiles(va), quartiles(vb)
            print(f"{workload:15s} {metric['name']:12s} "
                  f"{qa[1]:12.4f} [{qa[0]:.4f},{qa[2]:.4f}] "
                  f"{qb[1]:12.4f} [{qb[0]:.4f},{qb[2]:.4f}] "
                  f"{wins:7.2f}  {result}")
        fa, fb = failed_frac(a, workload), failed_frac(b, workload)
        if fb > fa:
            status = 1
        print(f"{workload:15s} {'failed_frac':12s} {fa:12.4f} {'':17s} "
              f"{fb:12.4f} {'':17s} {'':7s}  "
              f"{'worse' if fb > fa else 'unchanged'}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
