"""Core value types for the symbolic household world.

The types built on every tick (Location, Action, Event, TaskProgress,
AgentState, Fact, Observation) are ``value_type``s: slotted frozen
dataclasses whose ``__init__`` stores through the slot descriptors.
GoalPredicate, GoalSpec, RoomTables and HouseMap stay plain frozen
dataclasses: they are built once per process or episode, GoalSpec's cached
properties need an instance dict, and HouseMap's ``__post_init__`` hands
its tables over. WorldState is mutable (tests assign to it).
``scenarios.init_world`` builds the first one and ``engine.transition`` a
fresh one each tick; nothing in the program mutates one in place.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigError

ON = "ON"
IN = "IN"


def value_type(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)`` with a faster ``__init__``.

    The generated frozen ``__init__`` stores each field through
    ``object.__setattr__``; this one calls each slot's own ``__set__``. It
    keeps the generated signature (order, defaults, a fresh
    ``default_factory`` value per call), and everything else (eq, hash,
    repr, ``replace``, FrozenInstanceError) is still generated by
    ``dataclass``. A class that needs what this ``__init__`` does not do
    (``__post_init__``, ``InitVar``, ``field(init=False)``, ``kw_only``) is
    refused with TypeError. The ``__init__`` is compiled under the file name
    ``<Class.__init__>``, so a profile keeps one row per class.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    generated = cls.__init__
    code = generated.__code__
    names = tuple(f.name for f in fields(cls))
    positional = code.co_varnames[1 : code.co_argcount]
    if hasattr(cls, "__post_init__") or code.co_kwonlyargcount or positional != names:
        raise TypeError(f"value_type {cls.__name__}: only positional init fields, no __post_init__")
    unset = dict(zip(reversed(names), reversed(generated.__defaults__ or ())))
    env: Dict[str, object] = {}
    lines = [f"def __init__(self, {', '.join(names)}):"]
    for f in fields(cls):
        env[f"set_{f.name}"] = cls.__dict__[f.name].__set__
        value = f.name
        if f.default_factory is not MISSING:
            env[f"new_{f.name}"], env[f"unset_{f.name}"] = f.default_factory, unset[f.name]
            value = f"new_{f.name}() if {f.name} is unset_{f.name} else {f.name}"
        lines.append(f"    set_{f.name}(self, {value})")
    exec(compile("\n".join(lines), f"<{cls.__qualname__}.__init__>", "exec"), env)
    init: Any = env["__init__"]
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = generated.__annotations__
    cls.__init__ = init
    return cls


# Location kinds. An object is in exactly one place at any tick.
LOC_ROOM = "room"
LOC_SURFACE = "surface"
LOC_CONTAINER = "container"
LOC_AGENT = "agent"


@value_type
class Location:
    """Where an object is: a room floor, a surface, a container, or a hand."""

    kind: str
    ref: str | int

    def render(self) -> str:
        return f"{self.kind}:{self.ref}"


# Each primitive action kind, spelled as its rendering spells it.
ACTION_KINDS = ("GOTO", "GRAB", "OPEN", "PUTON", "PUTIN", "EXPLORE", "WAIT")


@value_type
class Action:
    """One primitive world action.

    kind is one of ACTION_KINDS. target names the room, object, surface, or
    container the kind needs; EXPLORE and WAIT take none.
    """

    kind: str
    target: Optional[str] = None

    def render(self) -> str:
        if self.target is None:
            return self.kind
        return f"{self.kind}({self.target})"


EXPLORE = Action("EXPLORE")
WAIT = Action("WAIT")


@value_type
class Event:
    """Outcome of one agent's primitive during a transition.

    kind: moved, grabbed, placed, opened, failure, conflict. ``note`` says
    what happened in words, and is all that ``render`` writes of it.
    """

    tick: int
    agent_id: int
    kind: str
    note: str

    def render(self) -> str:
        return f"t={self.tick} agent {self.agent_id}: {self.note}"


@lru_cache(maxsize=None)
def goal_location(relation: str, target: str) -> Location:
    """Where a goal predicate wants its objects: ON a surface or IN a
    container named target. One shared Location per (relation, target)."""
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
    """A task's goal: its category and the predicates that must all hold at
    once; total_units is the goal-unit count progress is measured against."""

    category: str
    predicates: Tuple[GoalPredicate, ...]

    @cached_property
    def targets(self) -> Mapping[str, Tuple[Tuple[int, Location], ...]]:
        """Object class -> (predicate index, goal Location) for every
        predicate that asks for that class, in predicate order."""
        index: Dict[str, Tuple[Tuple[int, Location], ...]] = {}
        for idx, pred in enumerate(self.predicates):
            entry = (idx, goal_location(pred.relation, pred.target))
            index[pred.object_class] = index.get(pred.object_class, ()) + (entry,)
        return MappingProxyType(index)

    @cached_property
    def total_units(self) -> int:
        return sum(p.count for p in self.predicates)

    def render(self) -> str:
        lines = [f"task: {self.category}"]
        for pred in self.predicates:
            lines.append(f"- {pred.render()}")
        return "\n".join(lines)


@value_type
class TaskProgress:
    """Satisfied goal units out of the total, plus the per-predicate split.

    by_predicate follows GoalSpec.predicates order; each entry is already
    capped at that predicate's count, so satisfied == sum(by_predicate).
    """

    satisfied: int
    total: int
    by_predicate: Tuple[int, ...]

    def done(self) -> bool:
        return self.satisfied >= self.total


@value_type
class AgentState:
    """One agent in WorldState: the room it stands in, the object it holds if any."""

    room: str
    held: Optional[str] = None


@dataclass(frozen=True)
class RoomTables:
    """Lookups derived once from a floor plan: (distance, first hop) for
    every ordered room pair, and each room's containers and surfaces in name
    order. ``plan`` holds the floor-plan values they were derived from."""

    plan: Tuple[object, ...]
    paths: Mapping[Tuple[str, str], Tuple[int, str]]
    containers: Mapping[str, Tuple[str, ...]]
    surfaces: Mapping[str, Tuple[str, ...]]


@dataclass(frozen=True)
class HouseMap:
    """Static layout shared by all agents: rooms, furniture, and the object
    registry. Dynamic state (who holds what, what is where) lives in
    WorldState; agents may rely on everything here as public knowledge.

    ``tables`` is derived from the four floor-plan fields. It is built on
    construction and handed over by ``replace(house, object_classes=...)``;
    a replace that swaps any floor-plan value builds it afresh."""

    rooms: Tuple[str, ...]
    adjacency: Mapping[str, Tuple[str, ...]]
    containers: Mapping[str, str]
    surfaces: Mapping[str, str]
    object_classes: Mapping[str, str]
    tables: Optional[RoomTables] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        plan = (self.rooms, self.adjacency, self.containers, self.surfaces)
        if self.tables is None or any(a is not b for a, b in zip(self.tables.plan, plan)):
            object.__setattr__(self, "tables", _room_tables(*plan))

    def room_of(self, fixture_id: str) -> str:
        if fixture_id in self.containers:
            return self.containers[fixture_id]
        if fixture_id in self.surfaces:
            return self.surfaces[fixture_id]
        raise KeyError(f"unknown fixture: {fixture_id}")

    def containers_in(self, room: str) -> Tuple[str, ...]:
        return self.tables.containers.get(room, ())

    def surfaces_in(self, room: str) -> Tuple[str, ...]:
        return self.tables.surfaces.get(room, ())

    def distance(self, src: str, dst: str) -> int:
        """BFS hop count between rooms."""
        return self.tables.paths[src, dst][0]

    def next_hop(self, src: str, dst: str) -> str:
        """First step on the shortest path src -> dst. Ties between equal
        length paths resolve toward the lexicographically smallest path."""
        return self.tables.paths[src, dst][1]

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


def _room_tables(
    rooms: Tuple[str, ...],
    adjacency: Mapping[str, Tuple[str, ...]],
    containers: Mapping[str, str],
    surfaces: Mapping[str, str],
) -> RoomTables:
    """One BFS per source room, neighbors expanded in sorted order, so each
    room is first reached along the lexicographically smallest shortest path
    and keeps that path's first hop. The first hop of src->src is src."""
    paths: Dict[Tuple[str, str], Tuple[int, str]] = {}
    for src in rooms:
        paths[src, src] = (0, src)
        frontier: List[Tuple[str, Optional[str]]] = [(src, None)]
        dist = 0
        while frontier:
            dist += 1
            nxt: List[Tuple[str, Optional[str]]] = []
            for node, first in frontier:
                for nb in sorted(adjacency[node]):
                    if (src, nb) not in paths:
                        hop = nb if first is None else first
                        paths[src, nb] = (dist, hop)
                        nxt.append((nb, hop))
            frontier = nxt
        unreached = [dst for dst in rooms if (src, dst) not in paths]
        if unreached:
            raise ConfigError(f"rooms not connected: {src} -> {unreached[0]}")
    return RoomTables(
        plan=(rooms, adjacency, containers, surfaces),
        paths=MappingProxyType(paths),
        containers=MappingProxyType(
            {r: tuple(sorted(c for c, cr in containers.items() if cr == r)) for r in rooms}
        ),
        surfaces=MappingProxyType(
            {r: tuple(sorted(s for s, sr in surfaces.items() if sr == r)) for r in rooms}
        ),
    )


@dataclass
class WorldState:
    """Full ground-truth snapshot at one tick."""

    tick: int
    house: HouseMap
    locations: Dict[str, Location]
    container_open: Dict[str, bool]
    agents: Dict[int, AgentState]


@value_type
class Fact:
    """One object placement, stamped with the tick it was observed at. An
    observation's sightings are facts, and beliefs store them as they are."""

    object_id: str
    object_class: str
    location: Location
    observed_at: int


@value_type
class Observation:
    """What one agent can see from inside its room at one tick: every object
    in the room that is not shut inside a closed container, the open/closed
    flags of the room's containers, co-located agents and what they hold, and
    the agent's own held object. Nothing from other rooms leaks through."""

    agent_id: int
    tick: int
    room: str
    held: Optional[str]
    objects: Tuple[Fact, ...]
    containers: Mapping[str, bool] = field(default_factory=dict)
    agents_here: Mapping[int, Optional[str]] = field(default_factory=dict)
    surfaces_here: Tuple[str, ...] = ()
