"""Benchmark grids: tasks x team sizes x variants x seeds.

Cells run in a canonical sorted order regardless of how the grid was
written, so two invocations of the same grid produce identical row lists
and identical trace files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..reasoner import Reasoner
from .config import EpisodeConfig, variant_flags
from .episode import EpisodeResult, run_episode
from .metrics import (
    CellMetrics,
    VARIANT_ORDER,
    aggregate,
    long_csv,
    metrics_csv,
    metrics_json,
)
from .trace import render_trace


@dataclass(frozen=True)
class BenchmarkSpec:
    base: EpisodeConfig
    tasks: Tuple[str, ...]
    agent_counts: Tuple[int, ...] = (1, 2, 3)
    seeds: Tuple[int, ...] = tuple(range(20))
    variants: Tuple[str, ...] = ("full", "no_summary", "no_allocation")

    def __post_init__(self):
        for variant in self.variants:
            if variant not in VARIANT_ORDER:
                raise ConfigError(f"unknown variant {variant!r}")
        if not self.tasks or not self.agent_counts or not self.seeds:
            raise ConfigError("benchmark grid must not be empty")


@dataclass(frozen=True)
class BenchmarkResult:
    rows: Tuple[dict, ...]
    cells: Tuple[CellMetrics, ...]
    results: Tuple[EpisodeResult, ...] = field(default=(), repr=False)


def cell_configs(spec: BenchmarkSpec) -> List[EpisodeConfig]:
    """The grid in canonical order: task, variant, team size, seed."""
    ordered_variants = [v for v in VARIANT_ORDER if v in set(spec.variants)]
    configs = []
    for task in sorted(set(spec.tasks)):
        for variant in ordered_variants:
            use_allocation, use_summaries = variant_flags(variant)
            for num_agents in sorted(set(spec.agent_counts)):
                for seed in sorted(set(spec.seeds)):
                    configs.append(
                        replace(
                            spec.base,
                            task=task,
                            num_agents=num_agents,
                            seed=seed,
                            use_allocation=use_allocation,
                            use_summaries=use_summaries,
                        )
                    )
    return configs


def trace_filename(result: EpisodeResult) -> str:
    return (
        f"{result.task}_{result.variant}_a{result.num_agents}_s{result.seed}.jsonl"
    )


def run_benchmark(
    spec: BenchmarkSpec,
    out_dir: Optional[str] = None,
    manager: Optional[Reasoner] = None,
    member: Optional[Reasoner] = None,
) -> BenchmarkResult:
    """Run every cell; optionally write traces and metric files under
    out_dir. Passing shared reasoner instances is only sound for stateless
    backends; scripted fixtures must be rebuilt per episode via the config."""
    results = []
    for config in cell_configs(spec):
        results.append(run_episode(config, manager, member))
    rows = tuple(result.as_row() for result in results)
    cells = tuple(aggregate(rows))
    if out_dir is not None:
        emit_outputs(results, rows, cells, out_dir)
    return BenchmarkResult(rows=rows, cells=cells, results=tuple(results))


def emit_outputs(
    results: Sequence[EpisodeResult],
    rows: Sequence[dict],
    cells: Sequence[CellMetrics],
    out_dir: str,
) -> None:
    traces_dir = os.path.join(out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    for result in results:
        path = os.path.join(traces_dir, trace_filename(result))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_trace(list(result.records)))
    with open(os.path.join(out_dir, "long.csv"), "w", encoding="utf-8") as handle:
        handle.write(long_csv(rows))
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as handle:
        handle.write(metrics_csv(cells))
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as handle:
        handle.write(metrics_json(cells) + "\n")
