"""Scenario catalog loading and seeded world generation.

The catalog ships with the package as ``catalog.json`` and is the one every
episode is generated from; no option names another. It is parsed once per
process, into the house with its path tables and one GoalSpec per task,
which every episode shares. Its shape is checked by the tests, not here.
Generation is a pure function of (task category, agent count, seed): the
same triple always yields the same initial WorldState and GoalSpec.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, replace
from importlib import resources
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from .types import (
    LOC_CONTAINER,
    LOC_ROOM,
    LOC_SURFACE,
    AgentState,
    GoalPredicate,
    GoalSpec,
    HouseMap,
    Location,
    WorldState,
)

# Seeded layouts land in this band; the band keeps episodes desk-scale.
_MIN_OBJECTS = 12
_MAX_OBJECTS = 18

_OPEN_PROBABILITY = 0.4


@dataclass(frozen=True)
class _Tables:
    """What every episode reads from the shipped catalog."""

    house: HouseMap
    goals: Mapping[str, GoalSpec]
    distractors: Tuple[str, ...]
    # Floors, then surfaces, then containers, each in name order.
    spots: Tuple[Location, ...]


def load_catalog() -> dict:
    """The shipped catalog, parsed afresh on each call, so a caller may
    change the returned dict freely; episodes read a copy parsed once per
    process."""
    return json.loads(resources.files(__package__).joinpath("catalog.json").read_text("utf-8"))


@functools.lru_cache(maxsize=None)
def _default_tables() -> _Tables:
    """The shipped catalog, parsed once per process."""
    catalog = load_catalog()
    house = build_house(catalog)
    goals = {name: build_goal(catalog, name) for name in sorted(catalog["tasks"])}
    return _Tables(
        house=house,
        goals=MappingProxyType(goals),
        distractors=tuple(sorted(catalog["distractor_classes"])),
        spots=tuple(
            [Location(LOC_ROOM, r) for r in house.rooms]
            + [Location(LOC_SURFACE, s) for s in house.surfaces]
            + [Location(LOC_CONTAINER, c) for c in house.containers]
        ),
    )


def task_categories() -> List[str]:
    return list(_default_tables().goals)


def build_goal(catalog: dict, task_category: str) -> GoalSpec:
    predicates = tuple(
        GoalPredicate(
            relation=p["relation"],
            object_class=p["object_class"],
            target=p["target"],
            count=p["count"],
        )
        for p in catalog["tasks"][task_category]["goal"]
    )
    return GoalSpec(category=task_category, predicates=predicates)


def build_house(catalog: dict) -> HouseMap:
    """The catalog's floor plan with every mapping in sorted key order, its
    path and per-room fixture tables, and no objects registered yet. The
    mappings are read-only views: every episode shares one house."""
    rooms = tuple(sorted(catalog["rooms"]))
    return HouseMap(
        rooms=rooms,
        adjacency=MappingProxyType({r: tuple(sorted(catalog["adjacency"][r])) for r in rooms}),
        containers=MappingProxyType(dict(sorted(catalog["containers"].items()))),
        surfaces=MappingProxyType(dict(sorted(catalog["surfaces"].items()))),
        object_classes={},
    )


def init_world(
    task_category: str, num_agents: int, seed: int
) -> Tuple[WorldState, GoalSpec]:
    """Build the tick-0 state for one episode.

    Goal objects are never seeded at their own predicate's target, so every
    episode starts with zero satisfied units. Each predicate gets its required
    count plus possibly one spare instance; distractor objects fill the
    scenario to a seeded total. It expects a checked config's arguments:
    EpisodeConfig refuses an unknown task and a team size out of range.
    """
    tables = _default_tables()
    goal = tables.goals[task_category]
    rng = random.Random(seed)

    house = tables.house
    container_open = {cid: rng.random() < _OPEN_PROBABILITY for cid in house.containers}
    start_room = rng.choice(house.rooms)

    locations: Dict[str, Location] = {}
    object_classes: Dict[str, str] = {}
    class_counter: Dict[str, int] = {}

    def place(object_class: str, location: Location) -> None:
        index = class_counter.get(object_class, 0) + 1
        class_counter[object_class] = index
        object_id = f"{object_class}_{index}"
        object_classes[object_id] = object_class
        locations[object_id] = location

    for pred in goal.predicates:
        spots = [s for s in tables.spots if s.kind == LOC_ROOM or s.ref != pred.target]
        for _ in range(pred.count + rng.randint(0, 1)):
            place(pred.object_class, rng.choice(spots))

    goal_classes = {p.object_class for p in goal.predicates}
    pool = [c for c in tables.distractors if c not in goal_classes]
    total = rng.randint(_MIN_OBJECTS, _MAX_OBJECTS)
    while pool and len(locations) < total:
        place(rng.choice(pool), rng.choice(tables.spots))

    agents = {i: AgentState(room=start_room, held=None) for i in range(1, num_agents + 1)}
    state = WorldState(
        tick=0,
        house=replace(house, object_classes=object_classes),
        locations=locations,
        container_open=container_open,
        agents=agents,
    )
    return state, goal
