"""Scenario catalog loading and seeded world generation.

The catalog ships with the package as ``catalog.json`` and is the one every
episode is generated from; load_catalog also validates an external file
with the same schema. Generation is a pure function of (task category,
agent count, seed): the same triple always yields the same initial
WorldState and GoalSpec.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from importlib import resources
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from .types import (
    IN,
    LOC_CONTAINER,
    LOC_ROOM,
    LOC_SURFACE,
    ON,
    AgentState,
    GoalPredicate,
    GoalSpec,
    HouseMap,
    Location,
    WorldState,
)

MAX_AGENTS = 3

# Seeded layouts land in this band; the band keeps episodes desk-scale.
_MIN_OBJECTS = 12
_MAX_OBJECTS = 18

_OPEN_PROBABILITY = 0.4


def load_catalog(path: Optional[str] = None) -> dict:
    """Load and validate a scenario catalog. With no path, the embedded
    default is used."""
    if path is None:
        raw = resources.files(__package__).joinpath("catalog.json").read_text("utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        catalog = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"catalog is not valid JSON: {exc}") from exc
    _validate_catalog(catalog)
    return catalog


def task_categories() -> List[str]:
    return sorted(load_catalog()["tasks"])


def _validate_catalog(catalog: dict) -> None:
    for key in ("version", "rooms", "adjacency", "containers", "surfaces", "tasks"):
        if key not in catalog:
            raise ConfigError(f"catalog missing key: {key}")
    rooms = list(catalog["rooms"])
    if len(rooms) != len(set(rooms)):
        raise ConfigError("catalog rooms contain duplicates")
    adjacency = catalog["adjacency"]
    for room in rooms:
        if room not in adjacency:
            raise ConfigError(f"room without adjacency entry: {room}")
        for nb in adjacency[room]:
            if nb not in rooms:
                raise ConfigError(f"adjacency references unknown room: {nb}")
            if room not in adjacency[nb]:
                raise ConfigError(f"adjacency not symmetric: {room} -> {nb}")
    fixtures = {}
    for cid, room in catalog["containers"].items():
        fixtures[cid] = room
        if room not in rooms:
            raise ConfigError(f"container {cid} in unknown room {room}")
    for sid, room in catalog["surfaces"].items():
        if sid in fixtures:
            raise ConfigError(f"fixture id used twice: {sid}")
        if room not in rooms:
            raise ConfigError(f"surface {sid} in unknown room {room}")
    for name, task in catalog["tasks"].items():
        goal = task.get("goal", [])
        if not goal:
            raise ConfigError(f"task {name} has no goal predicates")
        for pred in goal:
            relation = pred["relation"]
            target = pred["target"]
            if relation == ON and target not in catalog["surfaces"]:
                raise ConfigError(f"task {name}: ON target {target} is not a surface")
            if relation == IN and target not in catalog["containers"]:
                raise ConfigError(f"task {name}: IN target {target} is not a container")
            if relation not in (ON, IN):
                raise ConfigError(f"task {name}: unknown relation {relation}")
            if int(pred["count"]) < 1:
                raise ConfigError(f"task {name}: predicate count must be >= 1")


def build_goal(catalog: dict, task_category: str) -> GoalSpec:
    if task_category not in catalog["tasks"]:
        known = ", ".join(sorted(catalog["tasks"]))
        raise ConfigError(f"unknown task category {task_category!r} (known: {known})")
    predicates = tuple(
        GoalPredicate(
            relation=p["relation"],
            object_class=p["object_class"],
            target=p["target"],
            count=int(p["count"]),
        )
        for p in catalog["tasks"][task_category]["goal"]
    )
    return GoalSpec(category=task_category, predicates=predicates)


def build_house(catalog: dict) -> HouseMap:
    """The catalog's floor plan with every mapping in sorted key order and no
    objects registered yet."""
    rooms = tuple(sorted(catalog["rooms"]))
    return HouseMap(
        rooms=rooms,
        adjacency={r: tuple(sorted(catalog["adjacency"][r])) for r in rooms},
        containers=dict(sorted(catalog["containers"].items())),
        surfaces=dict(sorted(catalog["surfaces"].items())),
        object_classes={},
    )


def init_world(
    task_category: str, num_agents: int, seed: int
) -> Tuple[WorldState, GoalSpec]:
    """Build the tick-0 state for one episode.

    Goal objects are never seeded at their own predicate's target, so every
    episode starts with zero satisfied units. Each predicate gets its required
    count plus possibly one spare instance; distractor objects fill the
    scenario to a seeded total.
    """
    if not 1 <= num_agents <= MAX_AGENTS:
        raise ConfigError(f"num_agents must be in 1..{MAX_AGENTS}, got {num_agents}")
    catalog = load_catalog()
    goal = build_goal(catalog, task_category)
    rng = random.Random(seed)

    house = build_house(catalog)
    rooms = house.rooms
    surfaces = house.surfaces
    containers = house.containers

    container_open = {cid: rng.random() < _OPEN_PROBABILITY for cid in sorted(containers)}
    start_room = rng.choice(rooms)

    locations: Dict[str, Location] = {}
    object_classes: Dict[str, str] = {}
    class_counter: Dict[str, int] = {}

    def place(object_class: str, location: Location) -> None:
        index = class_counter.get(object_class, 0) + 1
        class_counter[object_class] = index
        object_id = f"{object_class}_{index}"
        object_classes[object_id] = object_class
        locations[object_id] = location

    def candidate_spots(exclude_target: Optional[str]) -> List[Location]:
        spots = [Location(LOC_ROOM, r) for r in rooms]
        spots += [Location(LOC_SURFACE, s) for s in sorted(surfaces) if s != exclude_target]
        spots += [Location(LOC_CONTAINER, c) for c in sorted(containers) if c != exclude_target]
        return spots

    for pred in goal.predicates:
        spots = candidate_spots(pred.target)
        for _ in range(pred.count + rng.randint(0, 1)):
            place(pred.object_class, rng.choice(spots))

    goal_classes = {p.object_class for p in goal.predicates}
    pool = [c for c in sorted(catalog.get("distractor_classes", [])) if c not in goal_classes]
    total = rng.randint(_MIN_OBJECTS, _MAX_OBJECTS)
    all_spots = candidate_spots(None)
    while pool and len(locations) < total:
        place(rng.choice(pool), rng.choice(all_spots))

    house = replace(house, object_classes=object_classes)
    agents = {i: AgentState(room=start_room, held=None) for i in range(1, num_agents + 1)}
    state = WorldState(
        tick=0,
        house=house,
        locations=locations,
        container_open=container_open,
        agents=agents,
    )
    return state, goal
