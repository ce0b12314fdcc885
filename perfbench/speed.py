"""Machine speed, measured with a fixed pure-Python reference loop.

On a shared machine the same CPU work takes 10-30% longer at some times than
at others, in phases of seconds to minutes, which swamps a 10% regression.
The benchmark runs ``reference_ms()`` between episodes, throughout its window,
and scales the CPU part of each measured wall time to the speed at which the
reference loop takes REFERENCE_MS:

    normalized = wall + cpu * (factor - 1),  factor = REFERENCE_MS / mean(reference)

Waiting (the stub's delay, process start-up outside the CPU) is left as
measured. The loop lives here, not in homecrew, so no change to the program
can move it; the garbage collector is paused while it runs so the program's
heap does not either.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import List

# What reference_ms() takes in the reference machine state. Any fixed value
# works; on a shared 2-vCPU Xeon at 2.1 GHz the loop took 5-11 ms, so this one
# keeps normalized figures near the raw ones of its middling phases.
REFERENCE_MS = 8.0


def _reference_work() -> int:
    total = 0
    for i in range(120):
        table = {f"k{j}": (j, str(j * i)) for j in range(40)}
        total += len(json.dumps(sorted(table.items())))
        total += sum(v[0] for v in table.values() if v[0] % 3)
    return total


def reference_ms() -> float:
    """Wall time of one run of the reference loop, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def factor(samples: List[float]) -> float:
    """Reference time over measured time: below 1 when the machine ran
    slower than in the reference state."""
    return REFERENCE_MS / statistics.mean(samples)


def normalized(wall: float, cpu: float, speed_factor: float) -> float:
    """Wall time with its CPU part scaled to the reference speed."""
    return wall + cpu * (speed_factor - 1.0)
