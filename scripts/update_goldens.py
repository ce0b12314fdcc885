#!/usr/bin/env python3
"""Regenerate the pinned digests in tests/data.

golden_hashes.json holds the trace digests of heuristic episodes;
grid_hash.json holds one digest over the traces of a whole heuristic grid;
prompt_hashes.json holds the digests of every prompt sent in episodes whose
manager and members are both text backends. Run this after an intentional
behavior or prompt change and review the diff; the tests compare freshly
produced traces and prompts against these hashes. The script puts the repo's
src/ on the import path itself.

    python3 scripts/update_goldens.py

It takes no arguments: ``-h``/``--help`` prints this text, and any other
argument ends as ``error: ...`` with exit 2 before any episode runs or any
file is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from homecrew.coordination.allocate import heuristic_allocation  # noqa: E402
from homecrew.coordination.negotiate import heuristic_proposal  # noqa: E402
from homecrew.coordination.types import JointAction  # noqa: E402
from homecrew.harness.benchmark import cell_configs  # noqa: E402
from homecrew.harness.config import VARIANTS, EpisodeConfig  # noqa: E402
from homecrew.harness.episode import run_episode  # noqa: E402
from homecrew.harness.trace import trace_sha256  # noqa: E402
from homecrew.reasoner.base import (  # noqa: E402
    ALLOCATE,
    PROPOSE,
    REQUEST_KINDS,
    TEXT,
    Reasoner,
)
from homecrew.summaries import template_digest  # noqa: E402
from homecrew.world.scenarios import task_categories  # noqa: E402

GOLDEN_CONFIGS = (
    EpisodeConfig(task="WashDishes", num_agents=2, seed=0),
    EpisodeConfig(task="PrepareTea", num_agents=1, seed=1),
    EpisodeConfig(task="PrepareAMeal", num_agents=3, seed=2),
    EpisodeConfig(task="SetUpTable", num_agents=2, seed=3, use_summaries=False),
    EpisodeConfig(task="PutGroceries", num_agents=3, seed=4, use_allocation=False),
)

# Every task and variant at every team size, seeds 0-3: 240 episodes, in
# cell_configs order. perfbench parses every key of golden_hashes.json as an
# episode, so this digest has a file of its own.
GRID_CONFIGS = tuple(
    cell_configs(
        EpisodeConfig(task=task_categories()[0], num_agents=1, seed=0),
        task_categories(),
        (1, 2, 3),
        range(4),
        list(VARIANTS),
    )
)

# Run with PromptCapture as manager and members, so every kind is asked.
PROMPT_CONFIGS = (
    EpisodeConfig(task="PrepareTea", num_agents=1, seed=1),
    EpisodeConfig(task="WashDishes", num_agents=2, seed=0),
    EpisodeConfig(task="PrepareAMeal", num_agents=3, seed=2),
    EpisodeConfig(task="SetUpTable", num_agents=2, seed=3, use_summaries=False),
)

OUT_PATH = os.path.join(ROOT, "tests", "data", "golden_hashes.json")
GRID_PATH = os.path.join(ROOT, "tests", "data", "grid_hash.json")
PROMPT_PATH = os.path.join(ROOT, "tests", "data", "prompt_hashes.json")


def format_allocation(joint: JointAction) -> str:
    """A joint action written in the ALLOCATE reply grammar: the inverse of
    reasoner.parsing.parse_allocation."""
    lines = [f"{agent_id}: {task.render()}" for agent_id, task in joint.items()]
    return "```\n" + "\n".join(lines) + "\n```"


class PromptCapture(Reasoner):
    """A text backend that keeps every prompt it is sent and answers with
    the heuristic's own decision, written in the reply grammar."""

    name = "capture"
    produces = TEXT

    def __init__(self):
        self.prompts = {kind: [] for kind in REQUEST_KINDS}

    def invoke(self, request):
        self.prompts[request.kind].append(request.rendered_prompt)
        payload = request.structured_payload
        if request.kind == PROPOSE:
            proposal = heuristic_proposal(payload)
            lines = [f"propose: {proposal.candidate.render()}"]
            lines += [f"alt: {task}" for task in proposal.render_alternatives()]
            lines.append(f"why: {proposal.rationale}")
            text = "\n".join(lines)
        elif request.kind == ALLOCATE:
            text = format_allocation(heuristic_allocation(payload))
        else:
            text = template_digest(payload.records, payload.delta)
        return text


def grid_digest() -> dict:
    """The sha256 of the grid's trace digests, one per line, in order."""
    digests = [trace_sha256(list(run_episode(config).records)) for config in GRID_CONFIGS]
    return {
        "episodes": len(digests),
        "sha256": hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest(),
    }


def prompt_digests(config: EpisodeConfig) -> dict:
    """Per request kind: how many prompts one episode sent, and the sha256
    of those prompts in order, NUL-separated."""
    capture = PromptCapture()
    run_episode(config, capture, capture)
    return {
        kind: {
            "prompts": len(prompts),
            "sha256": hashlib.sha256("\0".join(prompts).encode("utf-8")).hexdigest(),
        }
        for kind, prompts in capture.prompts.items()
    }


def write_json(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> None:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args(argv)
    hashes = {}
    for config in GOLDEN_CONFIGS:
        result = run_episode(config)
        hashes[config.key] = trace_sha256(list(result.records))
        print(f"{config.key}: {hashes[config.key]}")
    write_json(OUT_PATH, hashes)
    write_json(GRID_PATH, grid_digest())
    write_json(
        PROMPT_PATH,
        {config.key: prompt_digests(config) for config in PROMPT_CONFIGS},
    )


if __name__ == "__main__":
    main()
