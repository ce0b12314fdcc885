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
from .episode import EpisodeResult, run_episode
from .metrics import CellMetrics, aggregate, long_csv, metrics_csv, metrics_json
from .trace import render_trace


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
    the cells' metrics; optionally write traces and metric files under
    out_dir."""
    results = [run_episode(config) for config in configs]
    rows = [result.as_row() for result in results]
    cells = tuple(aggregate(rows))
    if out_dir is not None:
        emit_outputs(configs, results, rows, cells, out_dir)
    return cells


def emit_outputs(
    configs: Sequence[EpisodeConfig],
    results: Sequence[EpisodeResult],
    rows: Sequence[dict],
    cells: Sequence[CellMetrics],
    out_dir: str,
) -> None:
    try:
        traces_dir = os.path.join(out_dir, "traces")
        os.makedirs(traces_dir, exist_ok=True)
        for config, result in zip(configs, results):
            path = os.path.join(traces_dir, f"{config.key}.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render_trace(list(result.records)))
        with open(os.path.join(out_dir, "long.csv"), "w", encoding="utf-8") as handle:
            handle.write(long_csv(rows))
        with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as handle:
            handle.write(metrics_csv(cells))
        with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as handle:
            handle.write(metrics_json(cells) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write bench output to {out_dir}: {exc}") from exc
