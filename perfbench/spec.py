"""What the benchmark measures, and the BENCHMARK.json written from it.

    python3 perfbench/spec.py          # rewrite BENCHMARK.json
    python3 perfbench/spec.py --map    # print the layer -> end-to-end map

BENCHMARK.json has a fixed set of keys, so the map from each per-layer metric
to the end-to-end metric and workload it should move lives here as LAYER_MAP.
"""

from __future__ import annotations

import json
import os
import sys

RUN_SECONDS = 20

WORKLOAD_WHY = {
    "grid": (
        "canonical heuristic grid: 5 tasks x {full,no_allocation} x 1-3 agents x 40 seeds; "
        "per-tick fixed costs dominate. no_summary left out: it equals full in all 60 cells"
    ),
    "alloc3": (
        "full variant at 3 agents, 5 tasks x 40 seeds: the joint allocator and its "
        "team-belief merges dominate; heuristic-only fixed costs are a small share"
    ),
    "remote-stub": (
        "remote manager and members, full, 1-3 agents, 5 tasks x 7 seeds, against an "
        "in-process loopback stub with a fixed 10 ms delay per request; bypasses heuristic-only work"
    ),
}

# name, unit, better, bound. Seeds change the layouts and so the episode
# lengths: across seeds, per-episode figures (episodes_per_s, the episode
# percentiles, mean_steps) spread by 5-12% from content alone, which sets
# their bounds. ms_per_tick is normalized by ticks and spreads less.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("episodes_per_s", "1/s", "higher", 0.25),
    ("ms_per_tick", "ms", "lower", 0.15),
    ("episode_ms_p50", "ms", "lower", 0.25),
    ("episode_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_rate", "ratio", "higher", 0.02),
    ("mean_steps", "steps", "lower", 0.2),
    # 1 - failed_frac and 1 - degraded_frac: the fractions themselves read 0.
    ("episodes_ok_frac", "ratio", "higher", 0.02),
    ("decisions_ok_frac", "ratio", "higher", 0.02),
)

# name, unit, better
PER_LAYER = (
    ("world.load_catalog.calls_per_episode", "count", "lower"),
    ("world.init_world.ms_per_episode", "ms", "lower"),
    ("world.distance.calls_per_tick", "count", "lower"),
    ("world.observe.us_per_call", "us", "lower"),
    ("world.transition.us_per_call", "us", "lower"),
    ("world.evaluate_progress.us_per_call", "us", "lower"),
    ("world.evaluate_progress.calls_per_tick", "count", "lower"),
    ("world.self_share", "ratio", "lower"),
    ("agents.merge_team_belief.calls_per_tick", "count", "lower"),
    ("agents.merge_team_belief.us_per_call", "us", "lower"),
    ("agents.perceive.us_per_call", "us", "lower"),
    ("agents.expand_macro.us_per_call", "us", "lower"),
    ("agents.belief_digest.us_per_call", "us", "lower"),
    ("agents.self_share", "ratio", "lower"),
    ("coordination.score_joint.calls_per_alloc", "count", "lower"),
    ("coordination.heuristic_allocation.us_per_call", "us", "lower"),
    ("coordination.joints_feasible_ratio", "ratio", "higher"),
    ("coordination.self_share", "ratio", "lower"),
    ("coordination.make_proposal.self_us_per_call", "us", "lower"),
    ("coordination.allocate_with_report.self_us_per_call", "us", "lower"),
    ("coordination.heuristic_proposal.us_per_call", "us", "lower"),
    ("coordination.assemble_context.us_per_call", "us", "lower"),
    ("reasoner.render_prompt.calls_per_tick", "count", "lower"),
    ("reasoner.render_prompt.us_per_call", "us", "lower"),
    ("reasoner.prompt_use_ratio", "ratio", "higher"),
    ("reasoner.remote.calls_per_tick", "count", "lower"),
    ("reasoner.remote.ms_p50", "ms", "lower"),
    ("reasoner.remote.ms_p90", "ms", "lower"),
    ("reasoner.remote.wait_share", "ratio", "lower"),
    ("reasoner.remote.attempts_per_call", "count", "lower"),
    ("reasoner.parse.failures_per_call", "ratio", "lower"),
    ("reasoner.self_share", "ratio", "lower"),
    ("summaries.summarize.us_per_call", "us", "lower"),
    ("summaries.summarize.calls_per_episode", "count", "lower"),
    ("summaries.self_share", "ratio", "lower"),
    ("harness.run_episode.self_share", "ratio", "lower"),
    ("harness.render_trace.us_per_episode", "us", "lower"),
    ("tracing_overhead", "ratio", "lower"),
)

# per-layer metric (or prefix) -> (end-to-end metrics it should move,
# workloads where it should move them, workloads predicted not to move)
LAYER_MAP = (
    ("world.load_catalog.calls_per_episode", ("episode_ms_p50", "setup_s"), ("grid",), ("remote-stub",)),
    ("world.init_world.ms_per_episode", ("episode_ms_p50", "setup_s"), ("grid",), ("remote-stub",)),
    ("world.distance.calls_per_tick", ("ms_per_tick",), ("alloc3",), ("remote-stub",)),
    ("world.observe.us_per_call", ("ms_per_tick",), ("grid",), ()),
    ("world.transition.us_per_call", ("ms_per_tick",), ("grid",), ()),
    ("world.evaluate_progress", ("ms_per_tick",), ("grid",), ()),
    ("world.self_share", ("ms_per_tick",), ("grid",), ()),
    ("agents.merge_team_belief", ("ms_per_tick",), ("alloc3",), ("remote-stub",)),
    ("agents.perceive.us_per_call", ("ms_per_tick",), ("grid",), ()),
    ("agents.expand_macro.us_per_call", ("ms_per_tick",), ("grid",), ()),
    ("agents.belief_digest.us_per_call", ("ms_per_tick",), ("grid",), ()),
    ("agents.self_share", ("ms_per_tick",), ("grid",), ()),
    ("coordination.score_joint.calls_per_alloc", ("ms_per_tick", "episodes_per_s"), ("alloc3",), ("remote-stub",)),
    ("coordination.heuristic_allocation.us_per_call", ("ms_per_tick", "episodes_per_s"), ("alloc3",), ("remote-stub",)),
    ("coordination.joints_feasible_ratio", ("ms_per_tick", "episodes_per_s"), ("alloc3",), ("remote-stub",)),
    ("coordination.self_share", ("ms_per_tick", "episodes_per_s"), ("alloc3",), ("remote-stub",)),
    ("coordination.make_proposal.self_us_per_call", ("episodes_per_s",), ("grid",), ("remote-stub",)),
    ("coordination.allocate_with_report.self_us_per_call", ("episodes_per_s",), ("grid",), ("remote-stub",)),
    ("reasoner.render_prompt", ("episodes_per_s",), ("grid",), ("remote-stub",)),
    ("reasoner.prompt_use_ratio", ("episodes_per_s",), ("grid",), ("remote-stub",)),
    ("coordination.heuristic_proposal.us_per_call", ("ms_per_tick",), ("grid", "alloc3"), ("remote-stub",)),
    ("coordination.assemble_context.us_per_call", ("ms_per_tick",), ("grid", "alloc3"), ()),
    ("reasoner.remote.calls_per_tick", ("ms_per_tick", "episode_ms_p50"), ("remote-stub",), ("grid", "alloc3")),
    ("reasoner.remote.ms_p50", ("ms_per_tick", "episode_ms_p50"), ("remote-stub",), ("grid", "alloc3")),
    ("reasoner.remote.ms_p90", ("ms_per_tick", "episode_ms_p50"), ("remote-stub",), ("grid", "alloc3")),
    ("reasoner.remote.wait_share", ("ms_per_tick", "episode_ms_p50"), ("remote-stub",), ("grid", "alloc3")),
    ("reasoner.remote.attempts_per_call", ("decisions_ok_frac",), ("remote-stub",), ("grid", "alloc3")),
    ("reasoner.parse.failures_per_call", ("decisions_ok_frac",), ("remote-stub",), ("grid", "alloc3")),
    ("summaries.summarize", ("ms_per_tick",), ("grid",), ()),
    ("harness.run_episode.self_share", ("ms_per_tick",), ("grid",), ()),
    ("harness.render_trace.us_per_episode", ("ms_per_tick",), ("grid",), ()),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def bounds() -> dict:
    return {name: bound for name, _, _, bound in END_TO_END}


def betters() -> dict:
    return {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}


def units() -> dict:
    return {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def main(argv) -> int:
    if "--map" in argv:
        for metric, moves, on, still in LAYER_MAP:
            line = f"{metric}: moves {', '.join(moves)} on {', '.join(on)}"
            if still:
                line += f"; predicted no change on {', '.join(still)}"
            print(line)
        return 0
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_benchmark_json())
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
