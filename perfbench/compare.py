#!/usr/bin/env python3
"""Summarise or compare sets of benchmark runs.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds the files ``run.py --out DIR`` writes, one per run. Per
workload and metric this prints each side's median and quartiles and the
spread (quartile distance over the median). With one directory it says
whether each end-to-end spread is within the metric's bound (and within a
third of it). With two it gives the verdict of stats.verdict: ``worse`` past
the bound, ``unresolved`` when a side's spread exceeds the bound, else ``ok``
or ``better``. Per-layer metrics have no bound and get better/worse/same.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

import spec
from stats import quartiles, ratio, spread, verdict


def load(directory: str) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """(workload, trace) -> metric -> values, one per run."""
    out: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        group = out.setdefault((record["workload"], int(record["trace"])), {})
        for name, metric in record["result"]["metrics"].items():
            group.setdefault(name, []).append(float(metric["value"]))
    return out


def _fmt(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:>11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(d) for d in argv]
    bounds = spec.bounds()
    betters = spec.betters()
    status = 0
    for group in sorted(set().union(*[s.keys() for s in sides])):
        workload, trace = group
        print(f"== {workload} (trace {trace})")
        names = [n for n, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)]
        for name in names:
            values = [s.get(group, {}).get(name, []) for s in sides]
            if not all(values):
                continue
            bound = bounds.get(name)
            line = f"  {name:<50} " + "  |  ".join(_fmt(v) for v in values)
            line += f"  spread {' / '.join(f'{spread(v):.3f}' for v in values)}"
            if len(sides) == 1:
                if bound is not None:
                    s = spread(values[0])
                    mark = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "OVER BOUND")
                    if name != "setup_s" and s > bound:
                        status = 1
                    line += f"  bound {bound}: {mark}"
            else:
                base, change = values
                moved = ratio(statistics.median(change) - statistics.median(base), abs(statistics.median(base)))
                result = verdict(base, change, betters[name], bound)
                if result == "worse":
                    status = 1
                line += f"  change {moved:+.2%}: {result}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
