"""Macro tasks and their tick-by-tick expansion into world primitives.

A macro names an outcome (get some object onto a target, sweep a room, or
stand by); expand_macro turns it into exactly one primitive for the current
tick, using the shared team belief for object locations and the agent's own
observation as ground truth for the room it stands in. The returned primitive
is always legal for that agent, degrading to Wait when nothing applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from ..world.types import (
    EXPLORE,
    IN,
    LOC_AGENT,
    LOC_CONTAINER,
    WAIT,
    Action,
    Fact,
    HouseMap,
    Observation,
    goal_location,
)
from .belief import Belief


@dataclass(frozen=True)
class MacroTask:
    """One allocatable unit of work. kind is the label render() prints.

    FETCH: bring an object of object_class (a specific object_id when bound)
    ON a surface or IN a container named target. EXPLORE: sweep one room,
    opening whatever is closed there. IDLE: stand by. fetch, explore and
    idle hand out one shared instance per distinct task.
    """

    kind: str
    object_class: Optional[str] = None
    object_id: Optional[str] = None
    relation: Optional[str] = None
    target: Optional[str] = None
    room: Optional[str] = None

    @staticmethod
    def fetch(
        object_class: str,
        relation: str,
        target: str,
        object_id: Optional[str] = None,
    ) -> "MacroTask":
        return _interned("FETCH", object_class, object_id, relation, target, None)

    @staticmethod
    def explore(room: str) -> "MacroTask":
        return _interned("EXPLORE", None, None, None, None, room)

    @staticmethod
    def idle() -> "MacroTask":
        return _interned("IDLE", None, None, None, None, None)

    def predicate_key(self) -> Optional[Tuple[str, str, str]]:
        if self.kind != "FETCH":
            return None
        return (str(self.relation), str(self.object_class), str(self.target))

    def render(self) -> str:
        if self.kind == "IDLE":
            return self.kind
        if self.kind == "EXPLORE":
            return f"{self.kind}({self.room})"
        ref = self.object_id if self.object_id else self.object_class
        return f"{self.kind}({ref}, {self.relation}, {self.target})"


@lru_cache(maxsize=None)
def _interned(*fields: Optional[str]) -> MacroTask:
    """One shared MacroTask per distinct field tuple. Its arguments name
    only the house's classes, objects, fixtures and rooms, so the cache is
    bounded by that vocabulary. Two threads that miss at once may each build
    a copy, so tasks compare by value, never by identity."""
    return MacroTask(*fields)


def room_hides_content(belief: Belief, room: str, house: HouseMap) -> bool:
    """Whether sweeping this room can still reveal objects: it was never
    visited, or some container there is not believed open."""
    if room not in belief.visited_rooms:
        return True
    flags = belief.container_flags
    for cid in house.containers_in(room):
        flag = flags.get(cid)
        if flag is None or flag[0] is not True:
            return True
    return False


def sweep_targets(belief: Belief, house: HouseMap, from_room: str) -> List[str]:
    """Rooms ranked by expected reveal. Rooms that can still hide something
    come first, nearest first so a sweep in progress is finished before a new
    one starts; spent rooms follow in visit-age order. Ties break on names."""
    visited = belief.visited_rooms
    hiding: List[Tuple[int, int, str]] = []
    spent: List[Tuple[int, str]] = []
    for room in house.rooms:
        age = visited.get(room, -1)
        if room_hides_content(belief, room, house):
            hiding.append((house.distance(from_room, room), age, room))
        else:
            spent.append((age, room))
    hiding.sort()
    spent.sort()
    return [room for _, _, room in hiding] + [room for _, room in spent]


def believed_instance(
    task: MacroTask, belief: Belief, from_room: str, house: HouseMap
) -> Optional[Fact]:
    """The fact to chase for a fetch task: the bound object, else the nearest
    believed instance of the class (ties break by object id). None when no
    such object is believed off the target and out of every hand. Callers
    check their own hand first; perceive keeps an own-hand fact only for
    the object held."""
    target_loc = goal_location(str(task.relation), str(task.target))
    if task.object_id is not None:
        fact = belief.facts.get(task.object_id)
        if fact is None or fact.location.kind == LOC_AGENT or fact.location == target_loc:
            return None
        return fact
    return min(
        (
            fact
            for fact in belief.facts.values()
            if fact.object_class == task.object_class
            and fact.location.kind != LOC_AGENT
            and fact.location != target_loc
        ),
        key=lambda fact: (
            house.distance(from_room, str(house.location_room(fact.location))),
            fact.object_id,
        ),
        default=None,
    )


def _sweep_step(target_room: str, obs: Observation, house: HouseMap) -> Action:
    if obs.room != target_room:
        return Action("GOTO", house.next_hop(obs.room, target_room))
    closed = [cid for cid in sorted(obs.containers) if not obs.containers[cid]]
    if closed:
        return Action("OPEN", closed[0])
    return EXPLORE


def _unload_step(obs: Observation, house: HouseMap) -> Action:
    """Free the hand of an object the current task does not want."""
    surfaces = house.surfaces_in(obs.room)
    if surfaces:
        return Action("PUTON", surfaces[0])
    open_here = [cid for cid in sorted(obs.containers) if obs.containers[cid]]
    if open_here:
        return Action("PUTIN", open_here[0])
    closed_here = [cid for cid in sorted(obs.containers) if not obs.containers[cid]]
    if closed_here:
        return Action("OPEN", closed_here[0])
    surface_rooms = sorted(set(house.surfaces.values()))
    nearest = min(surface_rooms, key=lambda r: (house.distance(obs.room, r), r))
    return Action("GOTO", house.next_hop(obs.room, nearest))


def held_matches(task: MacroTask, held: str, house: HouseMap) -> bool:
    """Whether the object in hand is what the fetch task wants: the bound
    object itself, else any object of the task's class."""
    if task.object_id is not None:
        return held == task.object_id
    return house.object_classes.get(held) == task.object_class


def expand_macro(
    task: MacroTask, belief: Belief, obs: Observation, house: HouseMap
) -> Action:
    """One legal primitive advancing the macro from this agent's position."""
    if task.kind == "IDLE":
        return WAIT
    if task.kind == "EXPLORE":
        return _sweep_step(str(task.room), obs, house)

    if obs.held is not None:
        if not held_matches(task, obs.held, house):
            return _unload_step(obs, house)
        target_room = house.room_of(str(task.target))
        if obs.room != target_room:
            return Action("GOTO", house.next_hop(obs.room, target_room))
        if task.relation == IN:
            if not obs.containers.get(str(task.target), False):
                return Action("OPEN", str(task.target))
            return Action("PUTIN", str(task.target))
        return Action("PUTON", str(task.target))

    fact = believed_instance(task, belief, obs.room, house)
    if fact is None:
        # nothing to chase (or someone is carrying it): sweep instead
        return _sweep_step(sweep_targets(belief, house, obs.room)[0], obs, house)
    believed_room = house.location_room(fact.location)
    if obs.room != believed_room:
        return Action("GOTO", house.next_hop(obs.room, str(believed_room)))
    sighting = next((s for s in obs.objects if s.object_id == fact.object_id), None)
    if sighting is not None and sighting.location.kind != LOC_AGENT:
        return Action("GRAB", fact.object_id)
    if (
        sighting is None
        and fact.location.kind == LOC_CONTAINER
        and obs.containers.get(str(fact.location.ref)) is False
    ):
        return Action("OPEN", str(fact.location.ref))
    # the belief was wrong for this room; fall back to sweeping
    return _sweep_step(sweep_targets(belief, house, obs.room)[0], obs, house)
