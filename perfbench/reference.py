#!/usr/bin/env python3
"""Pin the trace digest of every episode of every workload at seed 0.

    python3 perfbench/reference.py

Writes perfbench/reference/<workload>.json. The benchmark compares each
seed-0 run against these files, so rerun this only after an intended change
of behaviour, and review the diff.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    run._prepare_imports()
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for name in sorted(WORKLOADS):
        bench = run.Bench(name, DEFAULT_SEED, delay_s=0.0)
        try:
            digests = {episode.key: bench.run(episode)[1] for episode in bench.episodes}
        finally:
            bench.close()
        path = os.path.join(run.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(digests)} digests to {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
