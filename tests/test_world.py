"""World module tests: generation, legality, transition, observation, progress.

The heavier checks are oracle-based: legality is cross-checked against what
transition actually accepts, object conservation is counted independently,
shortest paths are compared against a test-local BFS, and reachability uses
an omniscient greedy solver that never touches the engine's planning code.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from walks import random_legal_joint, reference_legal_actions, reference_visible_objects
from homecrew.agents.belief import Belief, Fact, merge_team_belief, perceive
from homecrew.agents.execution import sweep_targets
from homecrew.errors import ConfigError, ContractViolation
from homecrew.world.engine import (
    evaluate_progress,
    is_legal,
    observe,
    room_sightings,
    transition,
)
from homecrew.world.scenarios import init_world, load_catalog, task_categories
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
    GoalPredicate,
    GoalSpec,
    HouseMap,
    Location,
    Observation,
    TaskProgress,
    go_to,
    goal_location,
    grab,
    open_container,
    put_in,
    put_on,
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
    prims += [go_to(r) for r in house.rooms]
    prims += [grab(o) for o in sorted(state.locations)]
    prims += [open_container(c) for c in house.containers]
    prims += [put_on(s) for s in house.surfaces]
    prims += [put_in(c) for c in house.containers]
    return prims


class TestCatalog:
    def test_default_catalog_loads_and_lists_tasks(self):
        catalog = load_catalog()
        assert catalog["version"] == 1
        assert task_categories() == ALL_TASKS

    def test_external_catalog_file_round_trip(self, tmp_path):
        import json

        catalog = load_catalog()
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(catalog), encoding="utf-8")
        again = load_catalog(str(path))
        assert again == catalog

    def test_broken_catalog_rejected(self, tmp_path):
        import json

        catalog = load_catalog()
        catalog["adjacency"]["kitchen"] = []
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(catalog), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_catalog(str(path))


def _write_catalog(path, catalog):
    path.write_text(json.dumps(catalog), encoding="utf-8")
    return str(path)


# One malformed shape each, including a floor plan whose rooms are not all
# connected; every one must end in ConfigError.
_MALFORMED = {
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


def _damage_paths(value, prefix=()):
    """Every (path, value) inside a JSON document, the root included."""
    yield prefix, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _damage_paths(child, prefix + (key,))
    elif isinstance(value, list):
        for idx, child in enumerate(value):
            yield from _damage_paths(child, prefix + (idx,))


_SHIPPED = load_catalog()
_SHIPPED_PATHS = [path for path, _ in _damage_paths(_SHIPPED) if path]
_NAMES = sorted({v for _, v in _damage_paths(_SHIPPED) if isinstance(v, str)})
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(_NAMES + ["ON", "IN"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_NAMES + ["goal", "count"]), inner, max_size=3),
    max_leaves=6,
)


class TestCatalogBoundary:
    @pytest.mark.parametrize("damage", sorted(_MALFORMED))
    def test_malformed_catalog_ends_in_config_error(self, tmp_path, damage):
        catalog = load_catalog()
        _MALFORMED[damage](catalog)
        with pytest.raises(ConfigError):
            load_catalog(_write_catalog(tmp_path / "bad.json", catalog))

    def test_duplicate_predicate_error_names_task_and_key(self, tmp_path):
        catalog = load_catalog()
        goal = catalog["tasks"]["SetUpTable"]["goal"]
        pred = goal[0]
        goal.append(dict(pred, count=pred["count"] + 1))
        key = f"{pred['relation']} {pred['object_class']} {pred['target']}"
        with pytest.raises(ConfigError, match=f"task SetUpTable: duplicate goal predicate {key}"):
            load_catalog(_write_catalog(tmp_path / "dup.json", catalog))

    def test_unreadable_or_non_object_file_ends_in_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_catalog(str(tmp_path / "absent.json"))
        with pytest.raises(ConfigError):
            load_catalog(str(tmp_path))
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError):
            load_catalog(str(binary))
        with pytest.raises(ConfigError):
            load_catalog(_write_catalog(tmp_path / "list.json", [_SHIPPED]))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_copies_load_or_raise_config_error(self, tmp_path_factory, data):
        catalog = copy.deepcopy(_SHIPPED)
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(_SHIPPED_PATHS))
            parent = catalog
            try:
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]]
            except (KeyError, IndexError, TypeError):
                continue  # an earlier damage already removed this spot
            if not isinstance(parent, (dict, list)):
                continue  # an earlier damage turned this spot's parent into a string
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_JSON_VALUES)
        path = _write_catalog(tmp_path_factory.getbasetemp() / "damaged.json", catalog)
        try:
            loaded = load_catalog(path)
        except ConfigError:
            return
        assert loaded == catalog

    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(0, len(json.dumps(_SHIPPED)) - 1))
    def test_truncated_file_raises_config_error(self, tmp_path_factory, cut):
        path = tmp_path_factory.getbasetemp() / "truncated.json"
        path.write_text(json.dumps(_SHIPPED)[:cut], encoding="utf-8")
        with pytest.raises(ConfigError):
            load_catalog(str(path))

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
                assert progress.total == goal.total_units()

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
        grab("no_such_object"),
        put_in(surface),
        put_on(container),
        open_container(surface),
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
                seen = [s.object_id for s in observe(state, agent_id).objects]
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
        joint = {1: grab("plate_1"), 2: grab("plate_1")}
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

        state, events = transition(state, {1: grab("apple_1")})
        assert state.agents[1].held == "apple_1"
        state, events = transition(state, {1: open_container("fridge")})
        assert state.container_open["fridge"] is True
        state, events = transition(state, {1: put_in("fridge")})
        assert state.agents[1].held is None
        assert state.locations["apple_1"] == Location(LOC_CONTAINER, "fridge")
        assert [e.kind for e in events] == ["placed"]


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
                    obs = observe(state, agent_id)
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
        assert "apple_1" not in {s.object_id for s in observe(state, 1).objects}
        state.container_open["fridge"] = True
        assert "apple_1" in {s.object_id for s in observe(state, 1).objects}


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
                    action = grab(object_id)
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
    return TaskProgress(sum(by_predicate), goal.total_units(), by_predicate)


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
                    return step(go_to(house.next_hop(me.room, target_room)))
                if pred.relation == IN and not state.container_open[pred.target]:
                    return step(open_container(pred.target))
                action = put_in(pred.target) if pred.relation == IN else put_on(pred.target)
                return step(action)
            # held object is useless: drop it anywhere legal
            if house.surfaces_in(me.room):
                return step(put_on(house.surfaces_in(me.room)[0]))
            return step(go_to(house.next_hop(me.room, "kitchen")))

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
            return step(go_to(house.next_hop(me.room, room)))
        if loc.kind == LOC_CONTAINER and not state.container_open[str(loc.ref)]:
            return step(open_container(str(loc.ref)))
        return step(grab(oid))
