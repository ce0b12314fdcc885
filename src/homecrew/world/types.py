"""Core value types for the symbolic household world.

Everything here is a plain immutable snapshot. State evolution happens in
``engine.transition`` which returns fresh instances; nothing mutates in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigError

ON = "ON"
IN = "IN"

# Location kinds. An object is in exactly one place at any tick.
LOC_ROOM = "room"
LOC_SURFACE = "surface"
LOC_CONTAINER = "container"
LOC_AGENT = "agent"


@dataclass(frozen=True)
class Location:
    """Where an object is: a room floor, a surface, a container, or a hand."""

    kind: str
    ref: str | int

    def render(self) -> str:
        return f"{self.kind}:{self.ref}"


@dataclass(frozen=True)
class Action:
    """One primitive world action.

    kind is one of goto, grab, open, close, put_on, put_in, explore, wait.
    target names the room, object, surface, or container the kind needs;
    explore and wait take none.
    """

    kind: str
    target: Optional[str] = None

    def render(self) -> str:
        label = {
            "goto": "GOTO",
            "grab": "GRAB",
            "open": "OPEN",
            "close": "CLOSE",
            "put_on": "PUTON",
            "put_in": "PUTIN",
            "explore": "EXPLORE",
            "wait": "WAIT",
        }[self.kind]
        if self.target is None:
            return label
        return f"{label}({self.target})"


def go_to(room: str) -> Action:
    return Action("goto", room)


def grab(object_id: str) -> Action:
    return Action("grab", object_id)


def open_container(container_id: str) -> Action:
    return Action("open", container_id)


def close_container(container_id: str) -> Action:
    return Action("close", container_id)


def put_on(surface_id: str) -> Action:
    return Action("put_on", surface_id)


def put_in(container_id: str) -> Action:
    return Action("put_in", container_id)


EXPLORE = Action("explore")
WAIT = Action("wait")


@dataclass(frozen=True)
class Event:
    """Outcome of one agent's primitive during a transition.

    kind: moved, grabbed, placed, opened, closed, failure, conflict.
    """

    tick: int
    agent_id: int
    kind: str
    note: str = ""
    object_id: Optional[str] = None
    target: Optional[str] = None

    def render(self) -> str:
        body = self.note if self.note else self.kind
        return f"t={self.tick} agent {self.agent_id}: {body}"


def goal_location(relation: str, target: str) -> Location:
    """Where a goal predicate wants its objects: ON a surface or IN a
    container named target."""
    return Location(LOC_SURFACE if relation == ON else LOC_CONTAINER, target)


@dataclass(frozen=True)
class GoalPredicate:
    """One goal unit family: ``count`` objects of ``object_class`` placed
    ON a surface or IN a container named ``target``."""

    relation: str
    object_class: str
    target: str
    count: int

    def key(self) -> Tuple[str, str, str]:
        return (self.relation, self.object_class, self.target)

    def render(self) -> str:
        verb = "place" if self.relation == ON else "put"
        return f"{verb} {self.count} x {self.object_class} {self.relation} {self.target}"


@dataclass(frozen=True)
class GoalSpec:
    category: str
    predicates: Tuple[GoalPredicate, ...]

    def total_units(self) -> int:
        return sum(p.count for p in self.predicates)

    def render(self) -> str:
        lines = [f"task: {self.category}"]
        for pred in self.predicates:
            lines.append(f"- {pred.render()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TaskProgress:
    """Satisfied goal units out of the total, plus the per-predicate split.

    by_predicate follows GoalSpec.predicates order; each entry is already
    capped at that predicate's count, so satisfied == sum(by_predicate).
    """

    satisfied: int
    total: int
    by_predicate: Tuple[int, ...] = ()

    def done(self) -> bool:
        return self.satisfied >= self.total


@dataclass(frozen=True)
class AgentState:
    room: str
    held: Optional[str] = None


@dataclass(frozen=True)
class HouseMap:
    """Static layout shared by all agents: rooms, furniture, and the object
    registry. Dynamic state (who holds what, what is where) lives in
    WorldState; agents may rely on everything here as public knowledge."""

    rooms: Tuple[str, ...]
    adjacency: Mapping[str, Tuple[str, ...]]
    containers: Mapping[str, str]
    surfaces: Mapping[str, str]
    object_classes: Mapping[str, str]

    def room_of(self, fixture_id: str) -> str:
        if fixture_id in self.containers:
            return self.containers[fixture_id]
        if fixture_id in self.surfaces:
            return self.surfaces[fixture_id]
        raise KeyError(f"unknown fixture: {fixture_id}")

    def containers_in(self, room: str) -> List[str]:
        return sorted(c for c, r in self.containers.items() if r == room)

    def surfaces_in(self, room: str) -> List[str]:
        return sorted(s for s, r in self.surfaces.items() if r == room)

    def distance(self, src: str, dst: str) -> int:
        """BFS hop count between rooms."""
        return _shortest(self.adjacency, src, dst)[0]

    def next_hop(self, src: str, dst: str) -> str:
        """First step on the shortest path src -> dst. Ties between equal
        length paths resolve toward the lexicographically smallest path."""
        return _shortest(self.adjacency, src, dst)[1]

    def location_room(self, loc: Location) -> Optional[str]:
        """Resolve a location to its room; None for held objects (the holder
        moves, so the room is not derivable from the location alone)."""
        if loc.kind == LOC_ROOM:
            return str(loc.ref)
        if loc.kind == LOC_SURFACE:
            return self.surfaces[str(loc.ref)]
        if loc.kind == LOC_CONTAINER:
            return self.containers[str(loc.ref)]
        return None


def _shortest(adjacency: Mapping[str, Tuple[str, ...]], src: str, dst: str) -> Tuple[int, str]:
    """(distance, first hop) with neighbors expanded in sorted order so the
    lexicographically smallest shortest path wins. First hop of src==dst is
    src itself."""
    if src not in adjacency or dst not in adjacency:
        raise KeyError(f"unknown room in path query: {src} -> {dst}")
    if src == dst:
        return 0, src
    seen = {src}
    frontier: List[Tuple[str, str]] = []
    for nb in sorted(adjacency[src]):
        if nb == dst:
            return 1, nb
        seen.add(nb)
        frontier.append((nb, nb))
    dist = 1
    while frontier:
        dist += 1
        nxt: List[Tuple[str, str]] = []
        for node, first in frontier:
            for nb in sorted(adjacency[node]):
                if nb == dst:
                    return dist, first
                if nb not in seen:
                    seen.add(nb)
                    nxt.append((nb, first))
        frontier = nxt
    raise ConfigError(f"rooms not connected: {src} -> {dst}")


@dataclass
class WorldState:
    """Full ground-truth snapshot at one tick."""

    tick: int
    house: HouseMap
    locations: Dict[str, Location]
    container_open: Dict[str, bool]
    agents: Dict[int, AgentState]

    def object_class(self, object_id: str) -> str:
        return self.house.object_classes[object_id]

    def object_placements(self):
        """(object_id, object_class, Location) triples in stable id order.

        Beliefs expose the same shape, so progress evaluation works on either
        ground truth or what the team currently thinks.
        """
        for object_id in sorted(self.locations):
            yield object_id, self.house.object_classes[object_id], self.locations[object_id]


@dataclass(frozen=True)
class ObjectSighting:
    object_id: str
    object_class: str
    location: Location


@dataclass(frozen=True)
class Observation:
    """What one agent can see from inside its room at one tick: every object
    in the room that is not shut inside a closed container, the open/closed
    flags of the room's containers, co-located agents and what they hold, and
    the agent's own held object. Nothing from other rooms leaks through."""

    agent_id: int
    tick: int
    room: str
    held: Optional[str]
    objects: Tuple[ObjectSighting, ...]
    containers: Mapping[str, bool] = field(default_factory=dict)
    agents_here: Mapping[int, Optional[str]] = field(default_factory=dict)
    surfaces_here: Tuple[str, ...] = ()

    def sees(self, object_id: str) -> bool:
        return any(s.object_id == object_id for s in self.objects)
