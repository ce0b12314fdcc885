#!/usr/bin/env python3
"""Regenerate the pinned trace digests in tests/data/golden_hashes.json.

Run this after an intentional engine behavior change and review the diff;
the determinism tests compare freshly produced traces against these hashes.
The script puts the repo's src/ on the import path itself.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from homecrew.harness import EpisodeConfig, run_episode  # noqa: E402
from homecrew.harness.trace import trace_sha256  # noqa: E402

GOLDEN_CONFIGS = (
    EpisodeConfig(task="WashDishes", num_agents=2, seed=0),
    EpisodeConfig(task="PrepareTea", num_agents=1, seed=1),
    EpisodeConfig(task="PrepareAMeal", num_agents=3, seed=2),
    EpisodeConfig(task="SetUpTable", num_agents=2, seed=3, use_summaries=False),
    EpisodeConfig(task="PutGroceries", num_agents=3, seed=4, use_allocation=False),
)

OUT_PATH = os.path.join(ROOT, "tests", "data", "golden_hashes.json")


def golden_key(config: EpisodeConfig) -> str:
    return f"{config.task}_{config.variant}_a{config.num_agents}_s{config.seed}"


def main() -> None:
    hashes = {}
    for config in GOLDEN_CONFIGS:
        result = run_episode(config)
        hashes[golden_key(config)] = trace_sha256(list(result.records))
        print(f"{golden_key(config)}: {hashes[golden_key(config)]}")
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w") as handle:
        json.dump(hashes, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
