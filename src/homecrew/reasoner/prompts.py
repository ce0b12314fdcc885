"""The prompt layout.

Rendering is a pure function of (kind, inputs), where the inputs are the
decision's own: an AgentView, AllocationInputs or SummaryInputs. The same
inputs always yield byte-identical prompts. There is one layout, named
``base.TEMPLATE_V1`` in every trace header; a new layout gets a new name,
never an edit of this one in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..agents.textify import belief_digest, render_belief, render_history, render_observation
from ..coordination.types import MAX_ALTERNATIVES
from ..errors import ContractViolation
from .base import ALLOCATE, PROPOSE, SUMMARIZE

if TYPE_CHECKING:
    from ..coordination.types import AgentView, AllocationInputs
    from ..summaries import SummaryInputs
    from ..world.types import HouseMap, TaskProgress

NO_SUMMARIES_MARKER = "(no summaries yet)"


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


def _render_propose(view: AgentView) -> str:
    own_records = tuple(
        rec for rec in view.history_window if rec.agent_id == view.agent_id
    )
    lines = [
        f"You are household robot agent {view.agent_id} on a team of {view.num_agents}.",
        "Propose the single most useful task for yourself this round.",
        "",
        "## Objective",
        view.goal.render(),
        "",
        "## Progress",
        progress_line(view.progress, view.tick),
        "",
        "## Your memory",
        render_belief(view.belief),
        "",
        "## Current observation",
        render_observation(view.observation),
        "",
        "## Your recent actions",
        render_history(own_records),
        "",
        "## Response format",
        f"First line: `propose: <TASK>`. Up to {MAX_ALTERNATIVES} extra lines: `alt: <TASK>`.",
        "Optionally one line: `why: <short reason>`.",
        "Valid task forms:",
    ]
    lines += [f"- {form}" for form in task_form_lines(view.house)]
    return "\n".join(lines)


def _render_allocate(inputs: AllocationInputs) -> str:
    agent_ids = inputs.agent_ids()
    lines = [
        "You are the manager of a team of household robots.",
        "Assign exactly one task to every agent for this round, avoiding",
        "duplicated targets and wasted trips.",
        "",
        "## Objective",
        inputs.goal.render(),
        "",
        "## Progress",
        progress_line(inputs.progress, inputs.tick),
        "",
        "## Collaboration summary (most recent first)",
    ]
    lines += [s.render_line() for s in reversed(inputs.summaries)] or [NO_SUMMARIES_MARKER]
    lines.append("")
    lines.append("## Team context")
    for entry in inputs.entries:
        proposal = entry.proposal
        alternative_lines = proposal.render_alternatives()
        lines.append(f"### agent {entry.agent_id}")
        lines.append(f"proposal: {proposal.candidate.render()}")
        if proposal.rationale:
            lines.append(f"reason: {proposal.rationale}")
        alts = " | ".join(alternative_lines) if alternative_lines else "(none)"
        lines.append(f"alternatives: {alts}")
        lines.append("belief:")
        lines.append(_indent(belief_digest(entry.belief, inputs.goal)))
        lines.append("observation:")
        lines.append(_indent(render_observation(entry.observation)))
    agent_list = ", ".join(str(a) for a in agent_ids)
    example = "\n".join(f"{a}: IDLE" for a in agent_ids[:2])
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
    lines += [f"- {form}" for form in task_form_lines(inputs.house)]
    return "\n".join(lines)


def _render_summarize(inputs: SummaryInputs) -> str:
    lo, hi = inputs.interval
    direction = "advanced" if inputs.delta >= 0 else "regressed"
    lines = [
        "You are the team manager writing a short collaboration note.",
        "",
        "## Objective",
        inputs.goal.render(),
        "",
        "## What changed",
        f"Between tick {lo + 1} and tick {hi} task progress {direction} by {abs(inputs.delta)} unit(s).",
        "",
        "## Raw records",
        render_history(inputs.records),
        "",
        "## Response format",
        "Reply with the note text only: at most three sentences naming which",
        "agents advanced which goal items, plus any conflicts worth remembering.",
    ]
    return "\n".join(lines)


def render_prompt(kind: str, inputs) -> str:
    if kind == PROPOSE:
        return _render_propose(inputs)
    if kind == ALLOCATE:
        return _render_allocate(inputs)
    if kind == SUMMARIZE:
        return _render_summarize(inputs)
    raise ContractViolation(f"unknown request kind: {kind}")
