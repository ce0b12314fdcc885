"""The prompt layout.

Rendering is a pure function of (kind, payload): the payloads here are plain
text bundles prepared by the calling module, so the same payload always
yields byte-identical prompts. There is one layout; its name, TEMPLATE_V1,
is written into every trace header so that a trace names the layout its
prompts were rendered with. A new layout gets a new name, never an edit of
this one in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from ..errors import ConfigError
from .base import ALLOCATE, PROPOSE, SUMMARIZE

if TYPE_CHECKING:
    from ..world.types import HouseMap, TaskProgress

TEMPLATE_V1 = "template_v1"

NO_SUMMARIES_MARKER = "(no summaries yet)"


@dataclass(frozen=True)
class ProposePayload:
    agent_id: int
    num_agents: int
    tick: int
    goal_text: str
    progress_line: str
    belief_text: str
    observation_text: str
    history_text: str
    task_forms: Tuple[str, ...]


@dataclass(frozen=True)
class AgentBlock:
    agent_id: int
    proposal_line: str
    rationale: str
    alternative_lines: Tuple[str, ...]
    belief_text: str
    observation_text: str


@dataclass(frozen=True)
class AllocatePayload:
    tick: int
    goal_text: str
    progress_line: str
    summary_lines: Tuple[str, ...]
    blocks: Tuple[AgentBlock, ...]
    agent_ids: Tuple[int, ...]
    task_forms: Tuple[str, ...]


@dataclass(frozen=True)
class SummarizePayload:
    interval: Tuple[int, int]
    delta: int
    goal_text: str
    record_lines: Tuple[str, ...]


def progress_line(progress: TaskProgress, tick: int) -> str:
    return f"{progress.satisfied}/{progress.total} goal units satisfied (tick {tick})"


def task_form_lines(house: HouseMap) -> Tuple[str, ...]:
    """The reply task forms, with the names the house lets each one take."""
    return (
        f"FETCH(<object id or class>, ON, <surface>) surfaces: {', '.join(sorted(house.surfaces))}",
        f"FETCH(<object id or class>, IN, <container>) containers: {', '.join(sorted(house.containers))}",
        f"EXPLORE(<room>) rooms: {', '.join(house.rooms)}",
        "IDLE",
    )


def _indent(text: str) -> str:
    return "\n".join(f"  {line}" for line in text.split("\n"))


def _render_propose(p: ProposePayload) -> str:
    lines = [
        f"You are household robot agent {p.agent_id} on a team of {p.num_agents}.",
        "Propose the single most useful task for yourself this round.",
        "",
        "## Objective",
        p.goal_text,
        "",
        "## Progress",
        p.progress_line,
        "",
        "## Your memory",
        p.belief_text,
        "",
        "## Current observation",
        p.observation_text,
        "",
        "## Your recent actions",
        p.history_text,
        "",
        "## Response format",
        "First line: `propose: <TASK>`. Up to 3 extra lines: `alt: <TASK>`.",
        "Optionally one line: `why: <short reason>`.",
        "Valid task forms:",
    ]
    lines += [f"- {form}" for form in p.task_forms]
    return "\n".join(lines)


def _render_allocate(p: AllocatePayload) -> str:
    lines = [
        "You are the manager of a team of household robots.",
        "Assign exactly one task to every agent for this round, avoiding",
        "duplicated targets and wasted trips.",
        "",
        "## Objective",
        p.goal_text,
        "",
        "## Progress",
        p.progress_line,
        "",
        "## Collaboration summary (most recent first)",
    ]
    if p.summary_lines:
        lines += list(p.summary_lines)
    else:
        lines.append(NO_SUMMARIES_MARKER)
    lines.append("")
    lines.append("## Team context")
    for block in p.blocks:
        lines.append(f"### agent {block.agent_id}")
        lines.append(f"proposal: {block.proposal_line}")
        if block.rationale:
            lines.append(f"reason: {block.rationale}")
        alts = " | ".join(block.alternative_lines) if block.alternative_lines else "(none)"
        lines.append(f"alternatives: {alts}")
        lines.append("belief:")
        lines.append(_indent(block.belief_text))
        lines.append("observation:")
        lines.append(_indent(block.observation_text))
    agent_list = ", ".join(str(a) for a in p.agent_ids)
    example = "\n".join(f"{a}: IDLE" for a in p.agent_ids[:2])
    lines += [
        "",
        "## Response format",
        f"Reply with exactly one line per agent ({agent_list}) inside a fenced",
        "block and nothing else, for example:",
        "```",
        example,
        "```",
        "Valid task forms:",
    ]
    lines += [f"- {form}" for form in p.task_forms]
    return "\n".join(lines)


def _render_summarize(p: SummarizePayload) -> str:
    lo, hi = p.interval
    direction = "advanced" if p.delta >= 0 else "regressed"
    lines = [
        "You are the team manager writing a short collaboration note.",
        "",
        "## Objective",
        p.goal_text,
        "",
        "## What changed",
        f"Between tick {lo + 1} and tick {hi} task progress {direction} by {abs(p.delta)} unit(s).",
        "",
        "## Raw records",
    ]
    lines += list(p.record_lines)
    lines += [
        "",
        "## Response format",
        "Reply with the note text only: at most three sentences naming which",
        "agents advanced which goal items, plus any conflicts worth remembering.",
    ]
    return "\n".join(lines)


def render_prompt(kind: str, payload) -> str:
    if kind == PROPOSE:
        return _render_propose(payload)
    if kind == ALLOCATE:
        return _render_allocate(payload)
    if kind == SUMMARIZE:
        return _render_summarize(payload)
    raise ConfigError(f"unknown request kind: {kind}")
