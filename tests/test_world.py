"""World module tests: generation, legality, transition, observation, progress.

The heavier checks are oracle-based: legality is cross-checked against what
transition actually accepts, object conservation is counted independently,
shortest paths are compared against a test-local BFS, and reachability uses
an omniscient greedy solver that never touches the engine's planning code.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from homecrew.errors import ConfigError, ContractViolation
from homecrew.world import (
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
    Location,
    close_container,
    evaluate_progress,
    go_to,
    grab,
    init_world,
    legal_actions,
    load_catalog,
    observe,
    open_container,
    put_in,
    put_on,
    task_categories,
    transition,
)

ALL_TASKS = ["PrepareAMeal", "PrepareTea", "PutGroceries", "SetUpTable", "WashDishes"]


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


def all_primitives(state):
    """Every syntactically well-formed primitive for this scenario."""
    house = state.house
    prims = [WAIT, EXPLORE]
    prims += [go_to(r) for r in house.rooms]
    prims += [grab(o) for o in sorted(state.locations)]
    prims += [open_container(c) for c in house.containers]
    prims += [close_container(c) for c in house.containers]
    prims += [put_on(s) for s in house.surfaces]
    prims += [put_in(c) for c in house.containers]
    return prims


class TestCatalog:
    def test_default_catalog_loads_and_lists_tasks(self):
        catalog = load_catalog()
        assert catalog["version"] == 1
        assert task_categories(catalog) == ALL_TASKS

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

    def test_agent_count_validated(self):
        with pytest.raises(ConfigError):
            init_world("SetUpTable", 0, 1)
        with pytest.raises(ConfigError):
            init_world("SetUpTable", 4, 1)

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            init_world("FoldLaundry", 2, 1)

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


class TestLegalityOracle:
    def test_legal_set_matches_transition_outcome(self):
        """Every action in the legal set must succeed (no failure event);
        every well-formed action outside it must degrade to Wait."""
        for seed in range(6):
            state, _ = init_world("WashDishes", 2, seed)
            # walk a few random ticks first so held objects / open flags vary
            rng = random.Random(seed)
            for _ in range(6):
                joint = {
                    i: rng.choice(sorted(legal_actions(state, i), key=lambda a: a.render()))
                    for i in state.agents
                }
                state, _ = transition(state, joint)
            other = max(state.agents)
            for action in all_primitives(state):
                legal = action in legal_actions(state, 1)
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

    def test_grab_versus_close_lower_id_wins_each_way(self):
        state, _ = init_world("SetUpTable", 2, 0)
        state.agents = {i: a.__class__(room="kitchen", held=None) for i, a in state.agents.items()}
        state.container_open["fridge"] = True
        state.locations["plate_1"] = Location(LOC_CONTAINER, "fridge")

        # grabber has the lower id: grab applies, close degrades
        nxt, events = transition(state, {1: grab("plate_1"), 2: close_container("fridge")})
        assert nxt.agents[1].held == "plate_1"
        assert nxt.container_open["fridge"] is True
        assert [e.agent_id for e in events if e.kind == "conflict"] == [2]

        # closer has the lower id: close applies, grab degrades
        nxt, events = transition(state, {1: close_container("fridge"), 2: grab("plate_1")})
        assert nxt.container_open["fridge"] is False
        assert nxt.agents[2].held is None
        assert nxt.locations["plate_1"] == Location(LOC_CONTAINER, "fridge")
        assert [e.agent_id for e in events if e.kind == "conflict"] == [2]

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
        assert not observe(state, 1).sees("apple_1")
        state.container_open["fridge"] = True
        assert observe(state, 1).sees("apple_1")


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
            cls = state.object_class(me.held)
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
