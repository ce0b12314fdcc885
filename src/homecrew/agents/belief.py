"""Per-agent world beliefs and the team-level merge.

A belief is a set of last-write-wins facts about object locations, plus when
each room was last visited and what state each seen container was in. Facts
are only ever updated from observations; a fact contradicted by the current
room view is evicted entirely so stale locations cannot be chased forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from ..world.types import (
    LOC_AGENT,
    LOC_CONTAINER,
    LOC_ROOM,
    LOC_SURFACE,
    Fact,
    Observation,
)


@dataclass(frozen=True)
class Belief:
    """Immutable belief snapshot. perceive/merge return new instances."""

    facts: Mapping[str, Fact]
    visited_rooms: Mapping[str, int]
    container_flags: Mapping[str, Tuple[bool, int]]

    @classmethod
    def empty(cls) -> "Belief":
        return cls(facts={}, visited_rooms={}, container_flags={})


def _contradicted(fact: Fact, obs: Observation, seen_now: set) -> bool:
    """True when the fact places the object somewhere inside the observed
    room that the observation, which covers the whole room, does not show."""
    if fact.object_id in seen_now:
        return False
    loc = fact.location
    if loc.kind == LOC_ROOM:
        return loc.ref == obs.room
    if loc.kind == LOC_SURFACE:
        return loc.ref in obs.surfaces_here
    if loc.kind == LOC_CONTAINER:
        cid = str(loc.ref)
        # a closed container here may still hold it; an open one cannot
        return obs.containers.get(cid) is True
    if loc.kind == LOC_AGENT:
        holder = int(loc.ref)
        if holder == obs.agent_id:
            return obs.held != fact.object_id
        if holder in obs.agents_here:
            return obs.agents_here[holder] != fact.object_id
    return False


def perceive(observation: Observation, prior: Belief) -> Belief:
    """Fold one observation into a belief: upsert every sighting (a Fact
    already stamped with the observation tick, stored as it is), evict the
    contradicted facts, refresh the room's visit tick and container flags."""
    tick = observation.tick
    seen_now = {s.object_id for s in observation.objects}
    facts: Dict[str, Fact] = {}
    for object_id, fact in prior.facts.items():
        if not _contradicted(fact, observation, seen_now):
            facts[object_id] = fact
    for sighting in observation.objects:
        facts[sighting.object_id] = sighting
    visited = dict(prior.visited_rooms)
    visited[observation.room] = tick
    flags = dict(prior.container_flags)
    for cid, is_open in observation.containers.items():
        flags[cid] = (bool(is_open), tick)
    return Belief(facts=facts, visited_rooms=visited, container_flags=flags)


def merge_team_belief(beliefs: Sequence[Belief]) -> Belief:
    """Union of member beliefs. Per object the newest fact wins; on equal
    timestamps the earliest belief in the sequence wins, so callers pass
    beliefs in ascending agent-id order. A one-member team's belief is that
    member's belief itself."""
    if len(beliefs) == 1:
        return beliefs[0]
    facts: Dict[str, Fact] = {}
    visited: Dict[str, int] = {}
    flags: Dict[str, Tuple[bool, int]] = {}
    for belief in beliefs:
        for object_id, fact in belief.facts.items():
            current = facts.get(object_id)
            if current is None or fact.observed_at > current.observed_at:
                facts[object_id] = fact
        for room, tick in belief.visited_rooms.items():
            if room not in visited or tick > visited[room]:
                visited[room] = tick
        for cid, (is_open, tick) in belief.container_flags.items():
            current_flag = flags.get(cid)
            if current_flag is None or tick > current_flag[1]:
                flags[cid] = (is_open, tick)
    return Belief(facts=facts, visited_rooms=visited, container_flags=flags)
