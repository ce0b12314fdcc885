"""Scenario catalog loading and seeded world generation.

The catalog ships with the package as ``catalog.json`` and is the one every
episode is generated from. It is parsed once per process, into the house
with its path tables and one GoalSpec per task, which every episode shares;
load_catalog also validates an external file with the same schema.
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
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigError, is_int
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

# Seeded layouts land in this band; the band keeps episodes desk-scale.
_MIN_OBJECTS = 12
_MAX_OBJECTS = 18

_OPEN_PROBABILITY = 0.4


@dataclass(frozen=True)
class _Tables:
    """What every episode reads from the embedded catalog."""

    house: HouseMap
    goals: Mapping[str, GoalSpec]
    distractors: Tuple[str, ...]
    # Floors, then surfaces, then containers, each in name order.
    spots: Tuple[Location, ...]


def load_catalog(path: Optional[str] = None) -> dict:
    """Load and validate a scenario catalog. With no path, the embedded
    default is used. Each call parses afresh and returns a new dict, so a
    caller may change it freely; episodes read a copy parsed once per
    process."""
    try:
        if path is None:
            raw = resources.files(__package__).joinpath("catalog.json").read_text("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read catalog: {exc}") from exc
    try:
        catalog = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"catalog is not valid JSON: {exc}") from exc
    _validate_catalog(catalog)
    return catalog


@functools.lru_cache(maxsize=None)
def _default_tables() -> _Tables:
    """The embedded catalog, parsed and validated once per process."""
    catalog = load_catalog()
    house = build_house(catalog)
    goals = {name: build_goal(catalog, name) for name in sorted(catalog["tasks"])}
    return _Tables(
        house=house,
        goals=MappingProxyType(goals),
        distractors=tuple(sorted(catalog.get("distractor_classes", []))),
        spots=tuple(
            [Location(LOC_ROOM, r) for r in house.rooms]
            + [Location(LOC_SURFACE, s) for s in house.surfaces]
            + [Location(LOC_CONTAINER, c) for c in house.containers]
        ),
    )


def task_categories() -> List[str]:
    return list(_default_tables().goals)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _is_name_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_name_map(value: object) -> bool:
    return isinstance(value, dict) and all(isinstance(v, str) for v in value.values())


def _validate_catalog(catalog: object) -> None:
    """Every shape build_house and build_goal read is checked here, so a
    malformed catalog ends in ConfigError and never in another exception."""
    _require(isinstance(catalog, dict), "catalog must be a JSON object")
    for key in ("version", "rooms", "adjacency", "containers", "surfaces", "tasks"):
        _require(key in catalog, f"catalog missing key: {key}")
    rooms = catalog["rooms"]
    _require(_is_name_list(rooms) and len(rooms) > 0, "catalog rooms must be a list of names")
    _require(len(rooms) == len(set(rooms)), "catalog rooms contain duplicates")
    adjacency = catalog["adjacency"]
    _require(isinstance(adjacency, dict), "catalog adjacency must be an object")
    for room in rooms:
        _require(room in adjacency, f"room without adjacency entry: {room}")
        _require(_is_name_list(adjacency[room]), f"adjacency of {room} must be a list of names")
    for room in rooms:
        for nb in adjacency[room]:
            _require(nb in rooms, f"adjacency references unknown room: {nb}")
            _require(room in adjacency[nb], f"adjacency not symmetric: {room} -> {nb}")
    for kind in ("containers", "surfaces"):
        _require(_is_name_map(catalog[kind]), f"catalog {kind} must map names to rooms")
        for fid, room in catalog[kind].items():
            _require(room in rooms, f"{kind[:-1]} {fid} in unknown room {room}")
    for sid in catalog["surfaces"]:
        _require(sid not in catalog["containers"], f"fixture id used twice: {sid}")
    _require(
        _is_name_list(catalog.get("distractor_classes", [])),
        "catalog distractor_classes must be a list of names",
    )
    _require(isinstance(catalog["tasks"], dict), "catalog tasks must be an object")
    for name, task in catalog["tasks"].items():
        _require(isinstance(task, dict), f"task {name} must be an object")
        goal = task.get("goal", [])
        _require(isinstance(goal, list) and len(goal) > 0, f"task {name} has no goal predicates")
        # Progress and quotas are kept per (relation, class, target), so a
        # second predicate with the same key would overwrite the first.
        keys = set()
        for pred in goal:
            _require(isinstance(pred, dict), f"task {name}: predicate must be an object")
            for key in ("relation", "object_class", "target"):
                _require(isinstance(pred.get(key), str), f"task {name}: predicate needs {key}")
            relation, target = pred["relation"], pred["target"]
            _require(relation in (ON, IN), f"task {name}: unknown relation {relation}")
            if relation == ON:
                kind, fixtures = "surface", catalog["surfaces"]
            else:
                kind, fixtures = "container", catalog["containers"]
            _require(target in fixtures, f"task {name}: {relation} target {target} is not a {kind}")
            key = (relation, pred["object_class"], target)
            _require(key not in keys, f"task {name}: duplicate goal predicate {' '.join(key)}")
            keys.add(key)
            count = pred.get("count")
            _require(
                is_int(count) and count >= 1,
                f"task {name}: predicate count must be an integer >= 1",
            )
    # The path table builder refuses a floor plan whose rooms are not all connected.
    build_house(catalog)


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
