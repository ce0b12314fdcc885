"""Macro tasks and their tick-by-tick expansion into world primitives.

A macro names an outcome (get some object onto a target, sweep a room, or
stand by); expand_macro turns it into exactly one primitive for the current
tick, using the shared team belief for object locations and the agent's own
observation as ground truth for the room it stands in. The returned primitive
is always legal for that agent, degrading to Wait when nothing applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..world.types import (
    EXPLORE,
    IN,
    LOC_AGENT,
    LOC_CONTAINER,
    WAIT,
    Action,
    HouseMap,
    Observation,
    go_to,
    goal_location,
    grab,
    open_container,
    put_in,
    put_on,
)
from .belief import Fact, TeamBelief

FETCH_PLACE = "fetch_place"
EXPLORE_ROOM = "explore_room"
IDLE = "idle"


@dataclass(frozen=True)
class MacroTask:
    """One allocatable unit of work.

    fetch_place: bring an object of object_class (a specific object_id when
    bound) ON a surface or IN a container named target. explore_room: sweep
    one room, opening whatever is closed there. idle: stand by.
    """

    kind: str
    object_class: Optional[str] = None
    object_id: Optional[str] = None
    relation: Optional[str] = None
    target: Optional[str] = None
    room: Optional[str] = None

    @classmethod
    def fetch(
        cls,
        object_class: str,
        relation: str,
        target: str,
        object_id: Optional[str] = None,
    ) -> "MacroTask":
        return cls(
            kind=FETCH_PLACE,
            object_class=object_class,
            object_id=object_id,
            relation=relation,
            target=target,
        )

    @classmethod
    def explore(cls, room: str) -> "MacroTask":
        return cls(kind=EXPLORE_ROOM, room=room)

    @classmethod
    def idle(cls) -> "MacroTask":
        return cls(kind=IDLE)

    def predicate_key(self) -> Optional[Tuple[str, str, str]]:
        if self.kind != FETCH_PLACE:
            return None
        return (str(self.relation), str(self.object_class), str(self.target))

    def render(self) -> str:
        if self.kind == IDLE:
            return "IDLE"
        if self.kind == EXPLORE_ROOM:
            return f"EXPLORE({self.room})"
        ref = self.object_id if self.object_id else self.object_class
        return f"FETCH({ref}, {self.relation}, {self.target})"


def room_hides_content(belief: TeamBelief, room: str, house: HouseMap) -> bool:
    """Whether sweeping this room can still reveal objects: it was never
    visited, or some container there is not believed open."""
    if room not in belief.visited_rooms:
        return True
    return any(
        belief.believed_open(cid) is not True for cid in house.containers_in(room)
    )


def sweep_targets(belief: TeamBelief, house: HouseMap, from_room: str) -> List[str]:
    """Rooms ranked by expected reveal. Rooms that can still hide something
    come first, nearest first so a sweep in progress is finished before a new
    one starts; spent rooms follow in visit-age order. Ties break on names."""

    def rank(room: str) -> Tuple[int, int, int, str]:
        age = belief.visited_rooms.get(room, -1)
        if room_hides_content(belief, room, house):
            return (0, house.distance(from_room, room), age, room)
        return (1, age, 0, room)

    return sorted(house.rooms, key=rank)


def believed_instance(
    task: MacroTask, belief: TeamBelief, from_room: str, house: HouseMap
) -> Optional[Fact]:
    """The fact to chase for a fetch task: the bound object if any, else the
    nearest believed instance of the class that is not already at the target
    and not in someone's hand. Ties break by object id."""
    target_loc = goal_location(str(task.relation), str(task.target))
    if task.object_id is not None:
        fact = belief.facts.get(task.object_id)
        if fact is None or fact.location == target_loc:
            return None
        return fact
    ranked: List[Tuple[int, str, Fact]] = []
    for object_id in sorted(belief.facts):
        fact = belief.facts[object_id]
        if fact.object_class != task.object_class:
            continue
        if fact.location == target_loc or fact.location.kind == LOC_AGENT:
            continue
        room = house.location_room(fact.location)
        ranked.append((house.distance(from_room, str(room)), object_id, fact))
    if not ranked:
        return None
    ranked.sort(key=lambda item: (item[0], item[1]))
    return ranked[0][2]


def _sweep_step(target_room: str, obs: Observation, house: HouseMap) -> Action:
    if obs.room != target_room:
        return go_to(house.next_hop(obs.room, target_room))
    closed = [cid for cid in sorted(obs.containers) if not obs.containers[cid]]
    if closed:
        return open_container(closed[0])
    return EXPLORE


def _unload_step(obs: Observation, house: HouseMap) -> Action:
    """Free the hand of an object the current task does not want."""
    surfaces = house.surfaces_in(obs.room)
    if surfaces:
        return put_on(surfaces[0])
    open_here = [cid for cid in sorted(obs.containers) if obs.containers[cid]]
    if open_here:
        return put_in(open_here[0])
    closed_here = [cid for cid in sorted(obs.containers) if not obs.containers[cid]]
    if closed_here:
        return open_container(closed_here[0])
    surface_rooms = sorted(set(house.surfaces.values()))
    nearest = min(surface_rooms, key=lambda r: (house.distance(obs.room, r), r))
    return go_to(house.next_hop(obs.room, nearest))


def held_matches(task: MacroTask, held: str, house: HouseMap) -> bool:
    """Whether the object in hand is what the fetch task wants: the bound
    object itself, else any object of the task's class."""
    if task.object_id is not None:
        return held == task.object_id
    return house.object_classes.get(held) == task.object_class


def expand_macro(
    task: MacroTask, belief: TeamBelief, obs: Observation, house: HouseMap
) -> Action:
    """One legal primitive advancing the macro from this agent's position."""
    if task.kind == IDLE:
        return WAIT
    if task.kind == EXPLORE_ROOM:
        return _sweep_step(str(task.room), obs, house)

    if task.kind != FETCH_PLACE:
        return WAIT

    if obs.held is not None:
        if not held_matches(task, obs.held, house):
            return _unload_step(obs, house)
        target_room = house.room_of(str(task.target))
        if obs.room != target_room:
            return go_to(house.next_hop(obs.room, target_room))
        if task.relation == IN:
            if not obs.containers.get(str(task.target), False):
                return open_container(str(task.target))
            return put_in(str(task.target))
        return put_on(str(task.target))

    fact = believed_instance(task, belief, obs.room, house)
    if fact is None or fact.location.kind == LOC_AGENT:
        # nothing to chase (or someone is carrying it): sweep instead
        return _sweep_step(sweep_targets(belief, house, obs.room)[0], obs, house)
    believed_room = house.location_room(fact.location)
    if obs.room != believed_room:
        return go_to(house.next_hop(obs.room, str(believed_room)))
    sighting = next((s for s in obs.objects if s.object_id == fact.object_id), None)
    if sighting is not None and sighting.location.kind != LOC_AGENT:
        return grab(fact.object_id)
    if (
        sighting is None
        and fact.location.kind == LOC_CONTAINER
        and obs.containers.get(str(fact.location.ref)) is False
    ):
        return open_container(str(fact.location.ref))
    # the belief was wrong for this room; fall back to sweeping
    return _sweep_step(sweep_targets(belief, house, obs.room)[0], obs, house)
