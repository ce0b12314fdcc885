"""World module tests: generation, legality, transition, observation, progress.

The heavier checks are oracle-based: legality is cross-checked against what
transition actually accepts, object conservation is counted independently,
shortest paths are compared against a test-local BFS, and reachability uses
an omniscient greedy solver that never touches the engine's planning code.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import itertools
import os
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from walks import random_legal_joint, reference_legal_actions, reference_visible_objects
from homecrew.agents.belief import Belief, Fact, merge_team_belief, perceive
from homecrew.agents.execution import MacroTask, sweep_targets
from homecrew.agents.records import HistoryRecord
from homecrew.coordination.allocate import AllocationReport
from homecrew.coordination.types import (
    AgentView,
    AllocationInputs,
    ContextEntry,
    JointAction,
    Proposal,
)
from homecrew.errors import ConfigError, ContractViolation, is_int
from homecrew.world.engine import (
    evaluate_progress,
    is_legal,
    observe,
    room_sightings,
    transition,
)
from homecrew.reasoner.base import ReasonerRequest
from homecrew.summaries import Summary, SummaryInputs
from homecrew.world.scenarios import build_house, init_world, load_catalog, task_categories
from homecrew.world.types import (
    EXPLORE,
    IN,
    LOC_AGENT,
    LOC_CONTAINER,
    LOC_ROOM,
    LOC_SURFACE,
    ON,
    WAIT,
    Action,
    AgentState,
    Event,
    GoalPredicate,
    GoalSpec,
    HouseMap,
    Location,
    Observation,
    TaskProgress,
    goal_location,
    value_type,
)

ALL_TASKS = ["PrepareAMeal", "PrepareTea", "PutGroceries", "SetUpTable", "WashDishes"]
PRIMITIVE_KINDS = ["EXPLORE", "GOTO", "GRAB", "OPEN", "PUTIN", "PUTON", "WAIT"]


def bfs_distance(adjacency, src, dst):
    """Test-local BFS oracle, written independently of HouseMap."""
    seen = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        if node == dst:
            return seen[node]
        for nb in adjacency[node]:
            if nb not in seen:
                seen[nb] = seen[node] + 1
                queue.append(nb)
    raise AssertionError(f"unreachable: {src} -> {dst}")


def reference_path(adjacency, src, dst):
    """Test-local per-query BFS over whole paths, neighbors expanded in
    sorted order, so the first path to reach dst is the lexicographically
    smallest shortest one. Returns (distance, first hop); src -> src is
    (0, src)."""
    queue = deque([[src]])
    seen = {src}
    while queue:
        path = queue.popleft()
        if path[-1] == dst:
            return len(path) - 1, path[min(1, len(path) - 1)]
        for nb in sorted(adjacency[path[-1]]):
            if nb not in seen:
                seen.add(nb)
                queue.append(path + [nb])
    raise AssertionError(f"unreachable: {src} -> {dst}")


def all_primitives(state):
    """Every syntactically well-formed primitive for this scenario."""
    house = state.house
    prims = [WAIT, EXPLORE]
    prims += [Action("GOTO", r) for r in house.rooms]
    prims += [Action("GRAB", o) for o in sorted(state.locations)]
    prims += [Action("OPEN", c) for c in house.containers]
    prims += [Action("PUTON", s) for s in house.surfaces]
    prims += [Action("PUTIN", c) for c in house.containers]
    return prims


def check_catalog(catalog):
    """Every shape build_house, build_goal and init_world read from the
    catalog, checked the way a loader of outside files would: a breach
    raises ConfigError naming it. The program reads only the shipped file,
    so the tests hold that file to these rules."""

    def require(ok, message):
        if not ok:
            raise ConfigError(message)

    def is_name_list(value):
        return isinstance(value, list) and all(isinstance(v, str) for v in value)

    def is_name_map(value):
        return isinstance(value, dict) and all(isinstance(v, str) for v in value.values())

    require(isinstance(catalog, dict), "catalog must be a JSON object")
    for key in ("version", "rooms", "adjacency", "containers", "surfaces", "tasks"):
        require(key in catalog, f"catalog missing key: {key}")
    rooms = catalog["rooms"]
    require(is_name_list(rooms) and len(rooms) > 0, "catalog rooms must be a list of names")
    require(len(rooms) == len(set(rooms)), "catalog rooms contain duplicates")
    adjacency = catalog["adjacency"]
    require(isinstance(adjacency, dict), "catalog adjacency must be an object")
    for room in rooms:
        require(room in adjacency, f"room without adjacency entry: {room}")
        require(is_name_list(adjacency[room]), f"adjacency of {room} must be a list of names")
    for room in rooms:
        for nb in adjacency[room]:
            require(nb in rooms, f"adjacency references unknown room: {nb}")
            require(room in adjacency[nb], f"adjacency not symmetric: {room} -> {nb}")
    for kind in ("containers", "surfaces"):
        require(is_name_map(catalog[kind]), f"catalog {kind} must map names to rooms")
        for fid, room in catalog[kind].items():
            require(room in rooms, f"{kind[:-1]} {fid} in unknown room {room}")
    for sid in catalog["surfaces"]:
        require(sid not in catalog["containers"], f"fixture id used twice: {sid}")
    require(
        is_name_list(catalog.get("distractor_classes")),
        "catalog distractor_classes must be a list of names",
    )
    require(isinstance(catalog["tasks"], dict), "catalog tasks must be an object")
    for name, task in catalog["tasks"].items():
        require(isinstance(task, dict), f"task {name} must be an object")
        goal = task.get("goal", [])
        require(isinstance(goal, list) and len(goal) > 0, f"task {name} has no goal predicates")
        # Progress and quotas are kept per (relation, class, target), so a
        # second predicate with the same key would overwrite the first.
        keys = set()
        for pred in goal:
            require(isinstance(pred, dict), f"task {name}: predicate must be an object")
            for key in ("relation", "object_class", "target"):
                require(isinstance(pred.get(key), str), f"task {name}: predicate needs {key}")
            relation, target = pred["relation"], pred["target"]
            require(relation in (ON, IN), f"task {name}: unknown relation {relation}")
            if relation == ON:
                kind, fixtures = "surface", catalog["surfaces"]
            else:
                kind, fixtures = "container", catalog["containers"]
            require(target in fixtures, f"task {name}: {relation} target {target} is not a {kind}")
            key = (relation, pred["object_class"], target)
            require(key not in keys, f"task {name}: duplicate goal predicate {' '.join(key)}")
            keys.add(key)
            count = pred.get("count")
            require(
                is_int(count) and count >= 1,
                f"task {name}: predicate count must be an integer >= 1",
            )
    # The path table builder refuses a floor plan whose rooms are not all connected.
    build_house(catalog)


_SHIPPED = load_catalog()


class TestCatalog:
    def test_default_catalog_loads_and_lists_tasks(self):
        catalog = load_catalog()
        assert catalog["version"] == 1
        assert task_categories() == ALL_TASKS

    def test_shipped_catalog_keeps_every_rule(self):
        check_catalog(load_catalog())

    def test_broken_catalog_rejected(self):
        catalog = copy.deepcopy(_SHIPPED)
        catalog["adjacency"]["kitchen"] = []
        with pytest.raises(ConfigError):
            check_catalog(catalog)
        with pytest.raises(ConfigError, match="must be a JSON object"):
            check_catalog([_SHIPPED])


# One malformed shape for each rule of check_catalog, including a floor plan
# whose rooms are not all connected; every one must end in ConfigError.
_MALFORMED = {
    "version_missing": lambda c: c.pop("version"),
    "tasks_missing": lambda c: c.pop("tasks"),
    "rooms_empty": lambda c: c.update(rooms=[]),
    "rooms_duplicated": lambda c: c["rooms"].append("kitchen"),
    "adjacency_as_list": lambda c: c.update(adjacency=["kitchen"]),
    "adjacency_not_names": lambda c: c["adjacency"].update(kitchen="livingroom"),
    "adjacency_unknown_room": lambda c: c["adjacency"]["kitchen"].append("garage"),
    "fixture_in_unknown_room": lambda c: c["containers"].update(fridge="garage"),
    "fixture_id_used_twice": lambda c: c["surfaces"].update(fridge="kitchen"),
    "distractors_not_names": lambda c: c.update(distractor_classes="book"),
    "distractors_missing": lambda c: c.pop("distractor_classes"),
    "tasks_as_list": lambda c: c.update(tasks=["WashDishes"]),
    "goal_empty": lambda c: c["tasks"]["WashDishes"].update(goal=[]),
    "predicate_not_object": lambda c: c["tasks"]["WashDishes"]["goal"].append("plate"),
    "relation_unknown": lambda c: c["tasks"]["WashDishes"]["goal"][0].update(relation="UNDER"),
    "target_not_a_container": lambda c: c["tasks"]["WashDishes"]["goal"][0].update(target="sink"),
    "target_not_a_surface": lambda c: c["tasks"]["SetUpTable"]["goal"][0].update(target="fridge"),
    "count_zero": lambda c: c["tasks"]["WashDishes"]["goal"][0].update(count=0),
    "count_bool": lambda c: c["tasks"]["WashDishes"]["goal"][0].update(count=True),
    "count_not_int": lambda c: c["tasks"]["WashDishes"]["goal"][0].update(count="two"),
    "count_float": lambda c: c["tasks"]["WashDishes"]["goal"][0].update(count=1.5),
    "predicate_without_relation": lambda c: c["tasks"]["WashDishes"]["goal"][0].pop("relation"),
    "task_not_object": lambda c: c["tasks"].update(WashDishes=["plate"]),
    "rooms_not_list": lambda c: c.update(rooms=7),
    "containers_as_list": lambda c: c.update(containers=["fridge"]),
    "adjacency_entry_missing_for_neighbor": lambda c: c["adjacency"].pop("livingroom"),
    "disconnected_rooms": lambda c: (
        c["adjacency"].update(kitchen=[]),
        c["adjacency"].update(livingroom=["bathroom", "bedroom"]),
    ),
}


class TestCatalogBoundary:
    @pytest.mark.parametrize("damage", sorted(_MALFORMED))
    def test_malformed_catalog_ends_in_config_error(self, damage):
        catalog = copy.deepcopy(_SHIPPED)
        _MALFORMED[damage](catalog)
        with pytest.raises(ConfigError):
            check_catalog(catalog)

    def test_duplicate_predicate_error_names_task_and_key(self):
        catalog = copy.deepcopy(_SHIPPED)
        goal = catalog["tasks"]["SetUpTable"]["goal"]
        pred = goal[0]
        goal.append(dict(pred, count=pred["count"] + 1))
        key = f"{pred['relation']} {pred['object_class']} {pred['target']}"
        with pytest.raises(ConfigError, match=f"task SetUpTable: duplicate goal predicate {key}"):
            check_catalog(catalog)

    def test_returned_catalog_is_a_private_copy(self):
        before, goal = init_world("SetUpTable", 2, 42)
        catalog = load_catalog()
        catalog["tasks"]["SetUpTable"]["goal"][0]["count"] = 9
        catalog["rooms"].append("garage")
        catalog["surfaces"]["kitchentable"] = "bedroom"
        catalog["distractor_classes"].clear()
        after, goal_after = init_world("SetUpTable", 2, 42)
        assert goal_after == goal
        assert after.locations == before.locations
        assert after.house == before.house
        assert load_catalog() == _SHIPPED


class TestInitWorld:
    def test_same_seed_same_world(self):
        a_state, a_goal = init_world("SetUpTable", 2, 42)
        b_state, b_goal = init_world("SetUpTable", 2, 42)
        assert a_goal == b_goal
        assert a_state.locations == b_state.locations
        assert a_state.container_open == b_state.container_open
        assert a_state.agents == b_state.agents

    def test_different_seeds_differ_somewhere(self):
        layouts = set()
        for seed in range(8):
            state, _ = init_world("SetUpTable", 2, seed)
            layouts.add(tuple(sorted((o, l.render()) for o, l in state.locations.items())))
        assert len(layouts) > 1

    def test_goal_satisfiable_and_initially_unsatisfied(self):
        # Oracle: recount demanded classes straight off the generated layout.
        for task in ALL_TASKS:
            for seed in range(10):
                state, goal = init_world(task, 2, seed)
                for pred in goal.predicates:
                    have = sum(
                        1
                        for oid, cls in state.house.object_classes.items()
                        if cls == pred.object_class
                    )
                    assert have >= pred.count, (task, seed, pred)
                progress = evaluate_progress(state, goal)
                assert progress.satisfied == 0, (task, seed)
                assert progress.total == goal.total_units

    def test_object_count_in_band(self):
        for task in ALL_TASKS:
            for seed in range(10):
                state, _ = init_world(task, 1, seed)
                assert 10 <= len(state.locations) <= 20

    def test_all_locations_reference_known_places(self):
        state, _ = init_world("PrepareTea", 3, 7)
        house = state.house
        for loc in state.locations.values():
            if loc.kind == LOC_ROOM:
                assert loc.ref in house.rooms
            elif loc.kind == LOC_SURFACE:
                assert loc.ref in house.surfaces
            elif loc.kind == LOC_CONTAINER:
                assert loc.ref in house.containers
            else:
                raise AssertionError(f"unexpected initial location {loc}")


class TestPaths:
    def test_room_of_an_unknown_fixture_is_a_key_error(self):
        house = init_world("SetUpTable", 1, 0)[0].house
        for fixture, room in {**house.containers, **house.surfaces}.items():
            assert house.room_of(fixture) == room
        with pytest.raises(KeyError, match="unknown fixture: nowhere"):
            house.room_of("nowhere")

    def test_distance_matches_bfs_oracle(self):
        state, _ = init_world("SetUpTable", 1, 0)
        house = state.house
        for src in house.rooms:
            for dst in house.rooms:
                assert house.distance(src, dst) == bfs_distance(house.adjacency, src, dst)

    def test_next_hop_advances_and_prefers_lexicographic(self):
        state, _ = init_world("SetUpTable", 1, 0)
        house = state.house
        for src in house.rooms:
            for dst in house.rooms:
                if src == dst:
                    assert house.next_hop(src, dst) == src
                    continue
                hop = house.next_hop(src, dst)
                assert hop in house.adjacency[src]
                assert house.distance(hop, dst) == house.distance(src, dst) - 1
                # among equally short first steps, the smallest name wins
                best = [
                    nb
                    for nb in sorted(house.adjacency[src])
                    if house.distance(nb, dst) == house.distance(src, dst) - 1
                ]
                assert hop == best[0]


    def test_table_equals_per_query_bfs_on_shipped_catalog(self):
        state, _ = init_world("SetUpTable", 1, 0)
        house = state.house
        for src in house.rooms:
            for dst in house.rooms:
                expected = reference_path(house.adjacency, src, dst)
                assert (house.distance(src, dst), house.next_hop(src, dst)) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_table_equals_per_query_bfs_on_random_graphs(self, data):
        names = data.draw(
            st.lists(st.text("abcz", min_size=1, max_size=3), min_size=2, max_size=8, unique=True)
        )
        edges = set()
        for i in range(1, len(names)):
            # A random spanning tree keeps the graph connected.
            j = data.draw(st.integers(0, i - 1))
            edges.add(frozenset((names[i], names[j])))
        pairs = [frozenset(p) for p in itertools.combinations(names, 2)]
        edges |= set(data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
        adjacency = {r: tuple(sorted(nb for e in edges if r in e for nb in e - {r})) for r in names}
        house = HouseMap(
            rooms=tuple(names),
            adjacency=adjacency,
            containers={},
            surfaces={},
            object_classes={},
        )
        for src in names:
            for dst in names:
                dist, hop = reference_path(adjacency, src, dst)
                assert house.distance(src, dst) == dist == bfs_distance(adjacency, src, dst)
                assert house.next_hop(src, dst) == hop
                if src != dst:
                    assert hop == min(
                        nb for nb in adjacency[src] if bfs_distance(adjacency, nb, dst) == dist - 1
                    )

    def test_disconnected_rooms_refused_at_construction(self):
        with pytest.raises(ConfigError, match="not connected"):
            HouseMap(
                rooms=("a", "b", "c"),
                adjacency={"a": ("b",), "b": ("a",), "c": ()},
                containers={},
                surfaces={},
                object_classes={},
            )

    def test_unknown_room_query_raises_key_error(self):
        state, _ = init_world("SetUpTable", 1, 0)
        with pytest.raises(KeyError):
            state.house.distance("kitchen", "garage")

    def test_tables_built_once_and_rebuilt_for_a_new_floor_plan(self):
        a, _ = init_world("SetUpTable", 1, 0)
        b, _ = init_world("WashDishes", 3, 5)
        assert a.house.tables is b.house.tables
        assert a.house.object_classes != b.house.object_classes
        adjacency = dict(a.house.adjacency)
        adjacency["bathroom"] = ("bedroom",)
        adjacency["livingroom"] = ("bedroom", "kitchen")
        moved = dataclasses.replace(a.house, adjacency=adjacency)
        assert moved.tables is not a.house.tables
        assert moved.distance("bathroom", "kitchen") == 3
        assert a.house.distance("bathroom", "kitchen") == 2


class TestLegalityOracle:
    def test_legal_set_matches_transition_outcome(self):
        """Every action in the legal set must succeed (no failure event);
        every well-formed action outside it must degrade to Wait."""
        for seed in range(6):
            state, _ = init_world("WashDishes", 2, seed)
            # walk a few random ticks first so held objects / open flags vary
            rng = random.Random(seed)
            for _ in range(6):
                state, _ = transition(state, random_legal_joint(state, rng))
            other = max(state.agents)
            for action in all_primitives(state):
                legal = action in reference_legal_actions(state, 1)
                joint = {i: WAIT for i in state.agents}
                joint[1] = action
                nxt, events = transition(state, joint)
                failures = [e for e in events if e.kind == "failure" and e.agent_id == 1]
                if legal:
                    assert not failures, f"legal {action.render()} failed: {failures}"
                else:
                    assert failures, f"illegal {action.render()} did not fail"
                    assert nxt.locations == state.locations
                    assert nxt.agents[1] == state.agents[1]
                assert nxt.tick == state.tick + 1
                assert other in nxt.agents

    def test_explore_and_wait_change_nothing(self):
        state, _ = init_world("PrepareTea", 2, 3)
        nxt, events = transition(state, {1: WAIT, 2: EXPLORE})
        assert nxt.locations == state.locations
        assert nxt.container_open == state.container_open
        assert {i: a.room for i, a in nxt.agents.items()} == {
            i: a.room for i, a in state.agents.items()
        }
        assert events == []


def walk_states(ticks=20, seeds=(0, 1, 2)):
    """States along seeded random walks of reference-legal joint actions,
    over every task and team size."""
    for task in ALL_TASKS:
        for num_agents in (1, 2, 3):
            for seed in seeds:
                state, _ = init_world(task, num_agents, seed)
                rng = random.Random(f"{task}-{num_agents}-{seed}")
                yield state
                for _ in range(ticks):
                    state, _ = transition(state, random_legal_joint(state, rng))
                    yield state


def malformed_actions(state):
    """Actions of a known kind that no state makes legal."""
    surface = sorted(state.house.surfaces)[0]
    container = sorted(state.house.containers)[0]
    return [
        Action("WAIT", "x"),
        Action("EXPLORE", "x"),
        Action("GOTO", None),
        Action("GRAB", "no_such_object"),
        Action("PUTIN", surface),
        Action("PUTON", container),
        Action("OPEN", surface),
    ]


class TestIsLegal:
    def test_is_legal_and_legal_actions_match_the_reference(self):
        checked = grabs = 0
        for state in walk_states():
            candidates = all_primitives(state) + malformed_actions(state)
            for agent_id in state.agents:
                reference = reference_legal_actions(state, agent_id)
                for action in candidates:
                    legal = is_legal(state, agent_id, action)
                    assert legal == (action in reference), (action, agent_id)
                    checked += 1
                    grabs += legal and action.kind == "GRAB"
                obs = observe(state, agent_id, room_sightings(state))
                seen = [s.object_id for s in obs.objects]
                assert seen == reference_visible_objects(state, state.agents[agent_id].room)
        # The walks reach states where grabs are legal, not only trivial ones.
        assert checked > 10_000 and grabs > 100

    def test_malformed_joint_entries_degrade_to_wait(self):
        state, _ = init_world("WashDishes", 2, 0)
        # close is no primitive, not even for an open container in the room
        state.agents[1] = state.agents[1].__class__(room="kitchen", held=None)
        state.container_open["fridge"] = True
        for entry in (
            Action("GRAB", ["x"]),
            Action(["GOTO"], "kitchen"),
            "grab",
            None,
            Action("CLOSE", "fridge"),
        ):
            nxt, events = transition(state, {1: entry, 2: WAIT})
            assert nxt.agents[1] == state.agents[1]
            assert nxt.container_open == state.container_open
            assert [e.kind for e in events] == ["failure"]
            assert events[0].note.startswith("illegal action ")

    @settings(max_examples=300, deadline=None)
    @given(
        task=st.sampled_from(ALL_TASKS),
        num_agents=st.integers(1, 3),
        seed=st.integers(0, 5),
        data=st.data(),
    )
    def test_transition_never_raises_on_arbitrary_entries(self, task, num_agents, seed, data):
        state, _ = init_world(task, num_agents, seed)
        house = state.house
        names = sorted(
            set(house.rooms) | set(house.containers) | set(house.surfaces) | set(state.locations)
        )
        json_ish = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=6,
        )
        kinds = st.sampled_from(PRIMITIVE_KINDS) | json_ish
        targets = st.none() | st.sampled_from(names) | json_ish
        entry = data.draw(st.builds(Action, kinds, targets) | json_ish, label="entry")
        agent_id = data.draw(st.sampled_from(sorted(state.agents)), label="agent")
        joint = {i: WAIT for i in state.agents}
        joint[agent_id] = entry
        before = (dict(state.locations), dict(state.container_open), dict(state.agents))
        legal = is_legal(state, agent_id, entry)
        try:
            hash(entry)
        except TypeError:
            assert not legal
        else:
            assert legal == (entry in reference_legal_actions(state, agent_id))
        nxt, events = transition(state, joint)
        assert (state.locations, state.container_open, state.agents) == before
        if not legal:
            failures = [e for e in events if e.agent_id == agent_id]
            assert [e.kind for e in failures] == ["failure"]
            assert failures[0].note.startswith("illegal action ")
            assert nxt.agents[agent_id] == state.agents[agent_id]
            assert nxt.locations == state.locations
            assert nxt.container_open == state.container_open


class TestTransition:
    def test_joint_must_cover_all_agents(self):
        state, _ = init_world("SetUpTable", 2, 0)
        with pytest.raises(ContractViolation):
            transition(state, {1: WAIT})
        with pytest.raises(ContractViolation):
            transition(state, {1: WAIT, 2: WAIT, 3: WAIT})

    def test_grab_conflict_lower_id_wins(self):
        state, goal = init_world("SetUpTable", 2, 0)
        room = state.agents[1].room
        state.locations["plate_1"] = Location(LOC_ROOM, room)
        joint = {1: Action("GRAB", "plate_1"), 2: Action("GRAB", "plate_1")}
        nxt, events = transition(state, joint)
        assert nxt.agents[1].held == "plate_1"
        assert nxt.agents[2].held is None
        conflicts = [e for e in events if e.kind == "conflict"]
        assert len(conflicts) == 1 and conflicts[0].agent_id == 2

    def test_object_conservation_random_walk(self):
        """Oracle: after any number of random legal/illegal joint actions the
        multiset of object ids is unchanged and each id has exactly one
        location."""
        rng = random.Random(2024)
        for seed in range(5):
            state, _ = init_world(ALL_TASKS[seed % len(ALL_TASKS)], 3, seed)
            initial_ids = sorted(state.locations)
            pool = all_primitives(state)
            for _ in range(200):
                joint = {i: rng.choice(pool) for i in state.agents}
                state, _ = transition(state, joint)
                assert sorted(state.locations) == initial_ids
                held = [a.held for a in state.agents.values() if a.held is not None]
                assert len(held) == len(set(held))
                for i, ast in state.agents.items():
                    if ast.held is not None:
                        assert state.locations[ast.held] == Location(LOC_AGENT, i)

    def test_put_and_grab_round_trip(self):
        state, _ = init_world("PutGroceries", 1, 4)
        state.agents[1] = state.agents[1].__class__(room="kitchen", held=None)
        state.locations["apple_1"] = Location(LOC_ROOM, "kitchen")
        state.container_open["fridge"] = False

        state, events = transition(state, {1: Action("GRAB", "apple_1")})
        assert state.agents[1].held == "apple_1"
        state, events = transition(state, {1: Action("OPEN", "fridge")})
        assert state.container_open["fridge"] is True
        state, events = transition(state, {1: Action("PUTIN", "fridge")})
        assert state.agents[1].held is None
        assert state.locations["apple_1"] == Location(LOC_CONTAINER, "fridge")
        assert [e.kind for e in events] == ["placed"]
        assert events[0].note == "placed apple_1 in fridge"

    def test_a_placement_shares_the_goal_location(self):
        state, goal = init_world("PrepareTea", 1, 0)
        state.agents[1] = state.agents[1].__class__(room="kitchen", held="cup_1")
        state.locations["cup_1"] = Location(LOC_AGENT, 1)
        state, events = transition(state, {1: Action("PUTON", "kitchentable")})
        assert state.locations["cup_1"] is goal_location(ON, "kitchentable")
        assert goal.targets["cup"] == ((0, state.locations["cup_1"]),)
        assert events[0].note == "placed cup_1 on kitchentable"


class TestObservation:
    def test_observation_sound_and_room_local(self):
        """Everything observed truly resolves to the agent's room, and every
        room-resolvable object outside a closed container is observed."""
        rng = random.Random(11)
        for seed in range(6):
            state, _ = init_world(ALL_TASKS[seed % len(ALL_TASKS)], 2, seed)
            pool = all_primitives(state)
            for _ in range(30):
                joint = {i: rng.choice(pool) for i in state.agents}
                state, _ = transition(state, joint)
                for agent_id in state.agents:
                    obs = observe(state, agent_id, room_sightings(state))
                    room = state.agents[agent_id].room
                    assert obs.room == room
                    assert obs.held == state.agents[agent_id].held
                    seen = {s.object_id for s in obs.objects}
                    for sighting in obs.objects:
                        assert sighting.location == state.locations[sighting.object_id]
                        resolved = state.house.location_room(sighting.location)
                        if resolved is None:
                            holder = int(sighting.location.ref)
                            resolved = state.agents[holder].room
                        assert resolved == room
                    for oid, loc in state.locations.items():
                        if loc.kind == LOC_CONTAINER:
                            cid = str(loc.ref)
                            expected = (
                                state.house.containers[cid] == room
                                and state.container_open[cid]
                            )
                        elif loc.kind == LOC_AGENT:
                            expected = state.agents[int(loc.ref)].room == room
                        else:
                            expected = state.house.location_room(loc) == room
                        assert (oid in seen) == expected, (oid, loc)
                    for cid, flag in obs.containers.items():
                        assert state.house.containers[cid] == room
                        assert flag == state.container_open[cid]
                    assert agent_id not in obs.agents_here

    def test_closed_container_contents_hidden(self):
        state, _ = init_world("PutGroceries", 1, 0)
        state.agents[1] = state.agents[1].__class__(room="kitchen", held=None)
        state.locations["apple_1"] = Location(LOC_CONTAINER, "fridge")
        state.container_open["fridge"] = False
        obs = observe(state, 1, room_sightings(state))
        assert "apple_1" not in {s.object_id for s in obs.objects}
        state.container_open["fridge"] = True
        obs = observe(state, 1, room_sightings(state))
        assert "apple_1" in {s.object_id for s in obs.objects}


def reference_observation(state, agent_id):
    """Reference view: one agent's room scanned on its own, object by object."""
    me = state.agents[agent_id]
    room = me.room
    house = state.house
    return Observation(
        agent_id=agent_id,
        tick=state.tick,
        room=room,
        held=me.held,
        objects=tuple(
            Fact(oid, house.object_classes[oid], state.locations[oid], state.tick)
            for oid in reference_visible_objects(state, room)
        ),
        containers={c: state.container_open[c] for c, r in house.containers.items() if r == room},
        agents_here={
            other: ast.held
            for other, ast in sorted(state.agents.items())
            if other != agent_id and ast.room == room
        },
        surfaces_here=tuple(sorted(s for s, r in house.surfaces.items() if r == room)),
    )


def reference_sweep_targets(belief, house, from_room):
    """Reference room ranking: a sort keyed on (hides content, distance or
    visit age, name), where a room hides content until it has been visited
    with every container there believed open."""

    def rank(room):
        age = belief.visited_rooms.get(room, -1)
        if room not in belief.visited_rooms or any(
            belief.container_flags.get(cid, (False,))[0] is not True
            for cid in house.containers_in(room)
        ):
            return (0, house.distance(from_room, room), age, room)
        return (1, age, 0, room)

    return sorted(house.rooms, key=rank)


def belief_walk(task, num_agents, seed, steps):
    """States along a random walk of reference-legal joint actions that grabs
    whenever a coin says so and a grab is legal, each with every agent's
    belief after perceiving that state. All agents start in one room."""
    state, _ = init_world(task, num_agents, seed)
    rng = random.Random(seed)
    beliefs = {i: Belief.empty() for i in state.agents}
    for step in range(steps + 1):
        for i in state.agents:
            beliefs[i] = perceive(reference_observation(state, i), beliefs[i])
        yield state, beliefs
        if step == steps:
            return
        joint = {}
        for i in state.agents:
            legal = sorted(reference_legal_actions(state, i), key=lambda a: a.render())
            grabs = [a for a in legal if a.kind == "GRAB"]
            joint[i] = rng.choice(grabs if grabs and rng.random() < 0.5 else legal)
        state, _ = transition(state, joint)


class TestTickEquivalence:
    """The once-per-tick visibility scan, the one-location grab check and the
    loop-built room ranking agree with the per-agent scans they replaced, on
    teams of 1-6 (init_world draws any team size; only EpisodeConfig caps it)."""

    @settings(max_examples=60, deadline=None)
    @given(
        task=st.sampled_from(ALL_TASKS),
        num_agents=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        steps=st.integers(0, 25),
    )
    def test_shared_scan_grab_check_and_ranking_match_the_references(
        self, task, num_agents, seed, steps
    ):
        for state, beliefs in belief_walk(task, num_agents, seed, steps):
            house = state.house
            sightings = room_sightings(state)
            for agent_id in state.agents:
                observation = observe(state, agent_id, sightings)
                assert observation == reference_observation(state, agent_id)
                reference = reference_legal_actions(state, agent_id)
                for object_id in list(state.locations) + ["no_such_object"]:
                    action = Action("GRAB", object_id)
                    assert is_legal(state, agent_id, action) == (action in reference)
            team = merge_team_belief([beliefs[i] for i in sorted(beliefs)])
            for belief in list(beliefs.values()) + [team]:
                for room in house.rooms:
                    assert sweep_targets(belief, house, room) == reference_sweep_targets(
                        belief, house, room
                    )

    def test_walks_reach_closed_containers_held_objects_and_shared_rooms(self):
        closed = held = shared = 0
        for task, num_agents in zip(ALL_TASKS, (2, 3, 4, 5, 6)):
            for state, _ in belief_walk(task, num_agents, 7, 20):
                closed += not all(state.container_open.values())
                held += any(a.held is not None for a in state.agents.values())
                rooms = [a.room for a in state.agents.values()]
                shared += len(set(rooms)) < len(rooms)
        assert closed and held and shared


class TestProgressAndReward:
    def goal(self):
        return GoalSpec(
            category="SetUpTable",
            predicates=(
                GoalPredicate(ON, "plate", "kitchentable", 2),
                GoalPredicate(ON, "fork", "kitchentable", 2),
            ),
        )

    def test_counts_cap_at_required(self):
        state, goal = init_world("SetUpTable", 1, 1)
        plate_ids = [o for o, c in state.house.object_classes.items() if c == "plate"]
        for oid in plate_ids:
            state.locations[oid] = Location(LOC_SURFACE, "kitchentable")
        progress = evaluate_progress(state, goal)
        plate_idx = [p.object_class for p in goal.predicates].index("plate")
        assert progress.by_predicate[plate_idx] == 2
        assert progress.satisfied == 2

    def test_held_objects_do_not_count(self):
        state, goal = init_world("SetUpTable", 1, 1)
        state.locations["plate_1"] = Location(LOC_AGENT, 1)
        assert evaluate_progress(state, goal).satisfied == 0

    def test_satisfied_equals_sum_by_predicate(self):
        for task in ALL_TASKS:
            state, goal = init_world(task, 2, 9)
            progress = evaluate_progress(state, goal)
            assert progress.satisfied == sum(progress.by_predicate)
            assert len(progress.by_predicate) == len(goal.predicates)


def placements(source):
    """(object_class, location) of every object a world state or belief
    places, in object id order."""
    if isinstance(source, Belief):
        return [(f.object_class, f.location) for _, f in sorted(source.facts.items())]
    classes = source.house.object_classes
    return [(classes[oid], loc) for oid, loc in sorted(source.locations.items())]


def brute_progress(source, goal):
    """Test-local progress oracle: every placement against every predicate."""
    raw = [0] * len(goal.predicates)
    for object_class, location in placements(source):
        for idx, pred in enumerate(goal.predicates):
            if object_class == pred.object_class and location == goal_location(
                pred.relation, pred.target
            ):
                raw[idx] += 1
    by_predicate = tuple(min(p.count, n) for p, n in zip(goal.predicates, raw))
    return TaskProgress(sum(by_predicate), goal.total_units, by_predicate)


# One class in two predicates with different targets, and a predicate whose
# count random placements exceed more often than not.
SHARED_CLASS_GOAL = GoalSpec(
    "Custom",
    (
        GoalPredicate(ON, "plate", "kitchentable", 2),
        GoalPredicate(IN, "plate", "dishwasher", 1),
        GoalPredicate(ON, "fork", "coffeetable", 1),
    ),
)
EXCEEDED_GOAL = GoalSpec("Custom", (GoalPredicate(ON, "plate", "kitchentable", 1),))


class TestProgressIndex:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_indexed_progress_equals_brute_force(self, data):
        task = data.draw(st.sampled_from(ALL_TASKS))
        state, goal = init_world(task, 3, data.draw(st.integers(0, 50)))
        house = state.house
        spots = (
            [Location(LOC_ROOM, r) for r in house.rooms]
            + [Location(LOC_SURFACE, s) for s in house.surfaces]
            + [Location(LOC_CONTAINER, c) for c in house.containers]
            + [Location(LOC_AGENT, i) for i in state.agents]
        )
        # Most objects land on a goal target so counts are hit and exceeded.
        targets = [Location(LOC_SURFACE, "kitchentable"), Location(LOC_CONTAINER, "dishwasher")]
        for object_id in sorted(state.locations):
            state.locations[object_id] = data.draw(st.sampled_from(targets + spots))
        # Progress must not depend on the insertion order of either mapping.
        order = data.draw(st.permutations(sorted(state.locations)))
        locations = {oid: state.locations[oid] for oid in order}
        state = dataclasses.replace(state, locations=locations)
        facts = [
            Fact(oid, state.house.object_classes[oid], loc, 0)
            for oid, loc in sorted(state.locations.items())
            if data.draw(st.booleans())
        ]
        belief = Belief(
            facts={fact.object_id: fact for fact in data.draw(st.permutations(facts))},
            visited_rooms={},
            container_flags={},
        )
        for spec in (goal, SHARED_CLASS_GOAL, EXCEEDED_GOAL):
            assert evaluate_progress(state, spec) == brute_progress(state, spec)
            assert evaluate_progress(belief, spec) == brute_progress(belief, spec)

    def test_shared_class_counts_per_target(self):
        state, _ = init_world("SetUpTable", 1, 1)
        plates = sorted(o for o, c in state.house.object_classes.items() if c == "plate")
        assert len(plates) >= 2
        state.locations[plates[0]] = Location(LOC_SURFACE, "kitchentable")
        state.locations[plates[1]] = Location(LOC_CONTAINER, "dishwasher")
        progress = evaluate_progress(state, SHARED_CLASS_GOAL)
        assert progress.by_predicate == (1, 1, 0)
        assert progress == brute_progress(state, SHARED_CLASS_GOAL)

    def test_exceeded_count_caps(self):
        state, _ = init_world("SetUpTable", 1, 1)
        plates = sorted(o for o, c in state.house.object_classes.items() if c == "plate")
        for oid in plates:
            state.locations[oid] = Location(LOC_SURFACE, "kitchentable")
        progress = evaluate_progress(state, EXCEEDED_GOAL)
        assert len(plates) > 1
        assert progress == TaskProgress(1, 1, (1,)) == brute_progress(state, EXCEEDED_GOAL)


class TestReachability:
    def test_omniscient_greedy_solver_completes_every_scenario(self):
        """Oracle: a test-local solver with full state access can always
        finish, so every generated goal is actually achievable."""
        for task in ALL_TASKS:
            for seed in range(8):
                state, goal = init_world(task, 1, seed)
                for _ in range(150):
                    progress = evaluate_progress(state, goal)
                    if progress.done():
                        break
                    state = self._solver_step(state, goal)
                assert evaluate_progress(state, goal).done(), (task, seed)

    def _solver_step(self, state, goal):
        house = state.house
        me = state.agents[1]

        def step(action):
            nxt, events = transition(state, {1: action})
            assert not [e for e in events if e.kind == "failure"], (
                action.render(),
                events,
            )
            return nxt

        # deliver first if holding something a predicate still needs
        if me.held is not None:
            cls = house.object_classes[me.held]
            progress = evaluate_progress(state, goal)
            for idx, pred in enumerate(goal.predicates):
                if pred.object_class != cls or progress.by_predicate[idx] >= pred.count:
                    continue
                target_room = house.room_of(pred.target)
                if me.room != target_room:
                    return step(Action("GOTO", house.next_hop(me.room, target_room)))
                if pred.relation == IN and not state.container_open[pred.target]:
                    return step(Action("OPEN", pred.target))
                return step(Action("PUTIN" if pred.relation == IN else "PUTON", pred.target))
            # held object is useless: drop it anywhere legal
            if house.surfaces_in(me.room):
                return step(Action("PUTON", house.surfaces_in(me.room)[0]))
            return step(Action("GOTO", house.next_hop(me.room, "kitchen")))

        # otherwise head for the nearest object that still helps (omniscient)
        progress = evaluate_progress(state, goal)
        candidates = []
        for idx, pred in enumerate(goal.predicates):
            if progress.by_predicate[idx] >= pred.count:
                continue
            goal_loc = Location(
                LOC_SURFACE if pred.relation == ON else LOC_CONTAINER, pred.target
            )
            for oid, cls in sorted(state.house.object_classes.items()):
                if cls != pred.object_class or state.locations[oid] == goal_loc:
                    continue
                loc = state.locations[oid]
                room = house.location_room(loc)
                candidates.append((house.distance(me.room, room), oid, loc, room))
        assert candidates, "unfinished goal but no fetchable object"
        candidates.sort(key=lambda c: (c[0], c[1]))
        _, oid, loc, room = candidates[0]
        if me.room != room:
            return step(Action("GOTO", house.next_hop(me.room, room)))
        if loc.kind == LOC_CONTAINER and not state.container_open[str(loc.ref)]:
            return step(Action("OPEN", str(loc.ref)))
        return step(Action("GRAB", oid))


# Every class value_type builds, each once; the first test below holds this
# tuple to the decorated classes under src/.
VALUE_TYPES = (
    Location, Action, Event, TaskProgress, AgentState, Fact, Observation,
    Belief, HistoryRecord, MacroTask, ReasonerRequest,
    Proposal, ContextEntry, JointAction, AgentView, AllocationInputs,
    AllocationReport, Summary, SummaryInputs,
)

# The frozen dataclasses that stay plain, and why. A per-tick type added as a
# plain frozen dataclass fails the first test below until it is listed here.
PLAIN_FROZEN = {
    "GoalSpec": "its cached properties need an instance dict",
    "HouseMap": "its __post_init__ hands the tables over",
    "EpisodeConfig": "it validates in __post_init__",
    "RemoteConfig": "it validates in __post_init__",
    "EpisodeResult": "tests take a weakref to it",
    "GoalPredicate": "built once per process",
    "RoomTables": "built once per floor plan",
    "_Tables": "built once per process",
    "CellMetrics": "built once per bench cell",
}

SRC_PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "homecrew"
)


def decorated_classes(decorator):
    """Names of the src/ classes whose last decorator line matches the regex."""
    pattern = re.compile(rf"^@{decorator}\n(?:@.*\n)*class (\w+)", re.MULTILINE)
    names = []
    for folder, _, files in os.walk(SRC_PACKAGE):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    names += pattern.findall(handle.read())
    return names


@functools.lru_cache(maxsize=None)
def reference_twin(cls):
    """What ``@dataclass(frozen=True)`` builds from the same fields."""
    specs = [
        (
            f.name,
            f.type,
            dataclasses.field(
                default=f.default,
                default_factory=f.default_factory,
                repr=f.repr,
                hash=f.hash,
                compare=f.compare,
            ),
        )
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


# Hashable values from a small domain, so two draws are often equal.
FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.text("ab", max_size=2),
    st.tuples(st.integers(0, 1)),
)

# Namespaces of classes that use a dataclass feature value_type's __init__
# does not reproduce; each is a valid plain frozen dataclass.
REFUSED = {
    "post_init": lambda: {"__annotations__": {"x": "int"}, "__post_init__": lambda self: None},
    "init_var": lambda: {"__annotations__": {"x": "int", "y": dataclasses.InitVar[int]}},
    "init_false": lambda: {
        "__annotations__": {"x": "int", "y": "int"},
        "y": dataclasses.field(default=0, init=False),
    },
    "kw_only": lambda: {
        "__annotations__": {"x": "int", "y": "int"},
        "y": dataclasses.field(default=0, kw_only=True),
    },
    "kw_only_init_var": lambda: {
        "__annotations__": {"x": "int", "_": dataclasses.KW_ONLY, "y": dataclasses.InitVar[int]},
    },
}


class TestValueType:
    def test_every_frozen_dataclass_is_a_value_type_or_listed_as_plain(self):
        assert sorted(decorated_classes("value_type")) == sorted(c.__name__ for c in VALUE_TYPES)
        plain = decorated_classes(r"(?:dataclasses\.)?dataclass\([^)\n]*frozen=True[^)\n]*\)")
        assert sorted(plain) == sorted(PLAIN_FROZEN)
        for cls in VALUE_TYPES:
            assert "__setattr__" not in cls.__init__.__code__.co_names, cls
            setters = cls.__init__.__globals__
            for f in dataclasses.fields(cls):
                assert setters[f"set_{f.name}"] == cls.__dict__[f.name].__set__, (cls, f.name)

    @pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
    def test_signature_is_the_frozen_dataclass_one(self, cls):
        twin = reference_twin(cls)
        assert inspect.signature(cls) == inspect.signature(twin)
        assert cls.__match_args__ == twin.__match_args__

    @pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_behaves_as_the_frozen_dataclass(self, cls, data):
        twin = reference_twin(cls)
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        first, second = (data.draw(st.tuples(*[FIELD_VALUES] * len(fields))) for _ in range(2))
        value, other = cls(*first), cls(*second)
        assert repr(value) == repr(twin(*first))
        assert hash(value) == hash(twin(*first))
        assert (value == other) == (twin(*first) == twin(*second))
        assert (value != other) == (twin(*first) != twin(*second))
        assert value == cls(*first) == cls(**dict(zip(names, first)))
        required = sum(
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            for f in fields
        )
        assert repr(cls(*first[:required])) == repr(twin(*first[:required]))
        assert dataclasses.replace(value) == value
        for idx, name in enumerate(names):
            mixed = first[:idx] + second[idx : idx + 1] + first[idx + 1 :]
            assert dataclasses.replace(value, **{name: second[idx]}) == cls(*mixed)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert value == cls(*first)  # the refused writes left it as it was

    def test_default_factory_values_are_fresh_per_instance(self):
        first = Observation(0, 0, "kitchen", None, ())
        second = Observation(1, 0, "kitchen", None, ())
        assert first.containers == first.agents_here == {}
        assert first.containers is not second.containers
        assert first.agents_here is not second.agents_here
        given_flags = {"fridge": True}
        assert Observation(0, 0, "kitchen", None, (), given_flags).containers is given_flags

    @pytest.mark.parametrize("feature", sorted(REFUSED))
    def test_refuses_a_feature_its_init_does_not_reproduce(self, feature):
        with pytest.raises(TypeError, match="value_type Synthetic"):
            value_type(type("Synthetic", (), REFUSED[feature]()))
        dataclasses.dataclass(frozen=True)(type("Synthetic", (), REFUSED[feature]()))
