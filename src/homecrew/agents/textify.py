"""Deterministic text renderings of beliefs, observations, and history.

These strings go into text-backend prompts, so they must be a pure function
of their input with a stable line order. Two different beliefs
never render identically: every fact, flag, and visit is included.
"""

from __future__ import annotations

from typing import Sequence

from ..world.types import GoalSpec, Observation
from .belief import Belief
from .records import HistoryRecord


def render_belief(belief: Belief) -> str:
    lines = [f"belief: {len(belief.facts)} facts"]
    for object_id in sorted(belief.facts):
        fact = belief.facts[object_id]
        lines.append(
            f"fact: {object_id} ({fact.object_class}) at {fact.location.render()} t={fact.observed_at}"
        )
    for cid in sorted(belief.container_flags):
        is_open, tick = belief.container_flags[cid]
        state = "open" if is_open else "closed"
        lines.append(f"container: {cid} {state} t={tick}")
    for room in sorted(belief.visited_rooms):
        lines.append(f"visited: {room} t={belief.visited_rooms[room]}")
    return "\n".join(lines)


def render_observation(obs: Observation) -> str:
    lines = [f"observation: agent {obs.agent_id} in {obs.room} t={obs.tick}"]
    lines.append(f"holding: {obs.held if obs.held else 'nothing'}")
    for other in sorted(obs.agents_here):
        held = obs.agents_here[other]
        lines.append(f"sees agent {other} holding {held if held else 'nothing'}")
    for sighting in sorted(obs.objects, key=lambda s: s.object_id):
        lines.append(
            f"object: {sighting.object_id} ({sighting.object_class}) at {sighting.location.render()}"
        )
    for cid in sorted(obs.containers):
        lines.append(f"container: {cid} {'open' if obs.containers[cid] else 'closed'}")
    return "\n".join(lines)


def render_history(records: Sequence[HistoryRecord]) -> str:
    if not records:
        return "(no recent activity)"
    lines = []
    for record in records:
        line = f"t={record.tick} agent {record.agent_id}: {record.action.render()}"
        if record.events:
            line += f" ({'; '.join(e.note for e in record.events)})"
        lines.append(line)
    return "\n".join(lines)


def belief_digest(belief: Belief, goal: GoalSpec) -> str:
    """One-line belief digest for allocation prompts: where every believed
    goal-class object sits right now."""
    goal_classes = {p.object_class for p in goal.predicates}
    placements = []
    for object_id in sorted(belief.facts):
        fact = belief.facts[object_id]
        if fact.object_class in goal_classes:
            placements.append(f"{object_id}@{fact.location.render()}")
    body = " ".join(placements) if placements else "none seen"
    return f"goal objects: {body}"
