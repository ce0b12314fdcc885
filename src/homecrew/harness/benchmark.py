"""Benchmark grids: tasks x team sizes x variants x seeds.

Cells run in a canonical sorted order regardless of how the grid was
written, so two invocations of the same grid produce identical row lists
and identical trace files.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .config import VARIANTS, EpisodeConfig, variant_flags
from .episode import run_episode
from .metrics import CellMetrics, aggregate, long_csv, metrics_csv, metrics_json
from .trace import write_trace


def cell_configs(
    base: EpisodeConfig,
    tasks: Sequence[str],
    agent_counts: Sequence[int],
    seeds: Sequence[int],
    variants: Sequence[str],
) -> List[EpisodeConfig]:
    """The grid in canonical order: task, variant, team size, seed. Every
    cell sets its own task, team size, seed and variant flags on ``base``."""
    for variant in variants:
        variant_flags(variant)
    if not (tasks and agent_counts and seeds and variants):
        raise ConfigError("benchmark grid must not be empty")
    ordered_variants = [v for v in VARIANTS if v in set(variants)]
    configs = []
    for task in sorted(set(tasks)):
        for variant in ordered_variants:
            use_allocation, use_summaries = variant_flags(variant)
            for num_agents in sorted(set(agent_counts)):
                for seed in sorted(set(seeds)):
                    configs.append(
                        replace(
                            base,
                            task=task,
                            num_agents=num_agents,
                            seed=seed,
                            use_allocation=use_allocation,
                            use_summaries=use_summaries,
                        )
                    )
    return configs


def run_benchmark(
    configs: Sequence[EpisodeConfig], out_dir: Optional[str] = None
) -> Tuple[CellMetrics, ...]:
    """Run every cell, each on backends built from its own config, and return
    the cells' metrics. Only each episode's row is kept. With out_dir, each
    trace is written under out_dir/traces when its episode ends, and the
    metric files after the last one, so a failed grid writes no long.csv; a
    file in out_dir/traces that this grid does not write is refused first."""
    if out_dir is not None:
        traces = os.path.join(out_dir, "traces")
        try:
            os.makedirs(traces, exist_ok=True)
            stale = sorted(set(os.listdir(traces)) - {f"{c.key}.jsonl" for c in configs})
        except OSError as exc:
            raise ConfigError(f"cannot write bench output to {out_dir}: {exc}") from exc
        if stale:
            raise ConfigError(
                f"bench output {traces} holds {len(stale)} file(s) this grid does not"
                f" write, such as {stale[0]}"
            )
    rows = []
    for config in configs:
        result = run_episode(config)
        if out_dir is not None:
            write_trace(list(result.records), os.path.join(traces, f"{config.key}.jsonl"))
        rows.append(result.as_row())
    cells = tuple(aggregate(rows))
    if out_dir is not None:
        files = {
            "long.csv": long_csv(rows),
            "metrics.csv": metrics_csv(cells),
            "metrics.json": metrics_json(cells) + "\n",
        }
        try:
            for name, text in files.items():
                with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
                    handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write bench output to {out_dir}: {exc}") from exc
    return cells
