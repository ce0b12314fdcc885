"""The benchmark's workloads: which episodes each one runs for a seed.

A workload is a set of cells (task, variant, team size) times a block of
episode seeds. Workload seed s selects the block s*K .. s*K+K-1, so seed 0 of
``grid`` covers seeds 0-39, whose first half is the canonical grid. Episodes
are shuffled with the workload seed so that any prefix of a pass is a fair
sample of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

TASKS = ("PrepareAMeal", "PrepareTea", "PutGroceries", "SetUpTable", "WashDishes")

VARIANT_FLAGS = {
    "full": (True, True),
    "no_summary": (True, False),
    "no_allocation": (False, True),
    "no_allocation+no_summary": (False, False),
}


@dataclass(frozen=True)
class EpisodeSpec:
    task: str
    variant: str
    agents: int
    seed: int

    @property
    def key(self) -> str:
        """Same naming as tests/data/golden_hashes.json."""
        return f"{self.task}_{self.variant}_a{self.agents}_s{self.seed}"

    @classmethod
    def from_key(cls, key: str) -> "EpisodeSpec":
        head, agents, seed = key.rsplit("_", 2)
        task, variant = head.split("_", 1)
        if variant not in VARIANT_FLAGS or agents[0] != "a" or seed[0] != "s":
            raise ValueError(f"not an episode key: {key!r}")
        return cls(task, variant, int(agents[1:]), int(seed[1:]))


@dataclass(frozen=True)
class Workload:
    name: str
    variants: Tuple[str, ...]
    agents: Tuple[int, ...]
    seeds_per_cell: int
    remote: bool

    def episodes(self, seed: int) -> List[EpisodeSpec]:
        block = range(seed * self.seeds_per_cell, (seed + 1) * self.seeds_per_cell)
        specs = [
            EpisodeSpec(task, variant, agents, episode_seed)
            for task in TASKS
            for variant in self.variants
            for agents in self.agents
            for episode_seed in block
        ]
        random.Random(f"{self.name}/{seed}").shuffle(specs)
        return specs


WORKLOADS = {
    w.name: w
    for w in (
        # 1200 episodes per pass; per-tick fixed costs dominate. Each episode
        # seed is shared by all 30 cells, so 40 seeds rather than 20 halve
        # the variance of the per-episode figures across workload seeds.
        Workload("grid", ("full", "no_allocation"), (1, 2, 3), 40, remote=False),
        # 200 episodes per pass at the largest team; the allocator dominates.
        Workload("alloc3", ("full",), (3,), 40, remote=False),
        # 105 episodes per pass; each decision is a round trip to the stub.
        Workload("remote-stub", ("full",), (1, 2, 3), 7, remote=True),
    )
}

DEFAULT_SEED = 0
