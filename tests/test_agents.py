"""Agent-core tests: perceive/evict, team merge algebra, rendering, expansion.

The belief soundness check replays random episodes while snapshotting ground
truth, then audits every surviving fact against the snapshot at its stamp.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from walks import random_legal_joint, reference_legal_actions
from homecrew.agents.belief import Belief, Fact, merge_team_belief, perceive
from homecrew.agents.execution import (
    MacroTask,
    believed_instance,
    expand_macro,
    room_hides_content,
    sweep_targets,
)
from homecrew.agents.records import HistoryRecord
from homecrew.agents.textify import (
    belief_digest,
    render_belief,
    render_history,
    render_observation,
)
from homecrew.world.engine import observe, room_sightings, transition
from homecrew.world.scenarios import init_world
from homecrew.world.types import (
    IN,
    LOC_AGENT,
    LOC_CONTAINER,
    LOC_ROOM,
    LOC_SURFACE,
    ON,
    WAIT,
    Action,
    Location,
    Observation,
    goal_location,
)

TASKS = ["PrepareAMeal", "PrepareTea", "PutGroceries", "SetUpTable", "WashDishes"]


def random_walk(task, num_agents, seed, ticks):
    """Drive a scenario with random legal primitives; yield states after
    every transition (index = tick)."""
    state, goal = init_world(task, num_agents, seed)
    rng = random.Random(seed * 977 + 13)
    snapshots = [state]
    for _ in range(ticks):
        state, _ = transition(state, random_legal_joint(state, rng))
        snapshots.append(state)
    return snapshots, goal


class TestPerceive:
    def test_upsert_from_observation(self):
        state, _ = init_world("SetUpTable", 1, 5)
        obs = observe(state, 1, room_sightings(state))
        belief = perceive(obs, Belief.empty())
        assert len(belief.facts) == len(obs.objects)
        for sighting in obs.objects:
            fact = belief.facts[sighting.object_id]
            assert fact.location == sighting.location
            assert fact.observed_at == state.tick
        assert belief.visited_rooms == {obs.room: state.tick}
        for cid, flag in obs.containers.items():
            assert belief.container_flags[cid][0] == flag

    def test_eviction_on_contradiction(self):
        state, _ = init_world("SetUpTable", 1, 5)
        room = state.agents[1].room
        other_room = next(r for r in state.house.rooms if r != room)
        obs = observe(state, 1, room_sightings(state))
        stale_here = Fact("plate_99", "plate", Location(LOC_ROOM, room), 0)
        stale_elsewhere = Fact("fork_99", "fork", Location(LOC_ROOM, other_room), 0)
        prior = Belief(
            facts={"plate_99": stale_here, "fork_99": stale_elsewhere},
            visited_rooms={},
            container_flags={},
        )
        belief = perceive(obs, prior)
        assert "plate_99" not in belief.facts, "contradicted fact must be evicted"
        assert "fork_99" in belief.facts, "facts about other rooms must survive"

    def test_own_hand_fact_survives_only_while_that_object_is_held(self):
        state, _ = init_world("SetUpTable", 1, 5)
        state.agents[1] = state.agents[1].__class__(room=state.agents[1].room, held="fork_1")
        state.locations["fork_1"] = Location(LOC_AGENT, 1)
        prior = Belief(
            facts={
                "fork_1": Fact("fork_1", "fork", Location(LOC_AGENT, 1), 0),
                "plate_1": Fact("plate_1", "plate", Location(LOC_AGENT, 1), 0),
            },
            visited_rooms={},
            container_flags={},
        )
        belief = perceive(observe(state, 1, room_sightings(state)), prior)
        assert "fork_1" in belief.facts, "the object in hand stays believed there"
        assert "plate_1" not in belief.facts, "the hand holds something else"

    def test_closed_container_belief_survives_visit(self):
        state, _ = init_world("PutGroceries", 1, 3)
        state.agents[1] = state.agents[1].__class__(room="kitchen", held=None)
        state.container_open["fridge"] = False
        prior = Belief(
            facts={"apple_9": Fact("apple_9", "apple", Location(LOC_CONTAINER, "fridge"), 1)},
            visited_rooms={},
            container_flags={},
        )
        belief = perceive(observe(state, 1, room_sightings(state)), prior)
        assert "apple_9" in belief.facts

        state.container_open["fridge"] = True
        belief = perceive(observe(state, 1, room_sightings(state)), prior)
        assert "apple_9" not in belief.facts, "open container contradicts the fact"

    def test_belief_soundness_after_random_replay(self):
        """Every fact held after a replay was true at its observed_at tick."""
        for seed in range(4):
            snapshots, _ = random_walk(TASKS[seed % len(TASKS)], 2, seed, 40)
            beliefs = {1: Belief.empty(), 2: Belief.empty()}
            for state in snapshots:
                sightings = room_sightings(state)
                for agent_id in beliefs:
                    obs = observe(state, agent_id, sightings)
                    beliefs[agent_id] = perceive(obs, beliefs[agent_id])
            for agent_id, belief in beliefs.items():
                for object_id, fact in belief.facts.items():
                    truth = snapshots[fact.observed_at].locations[object_id]
                    assert truth == fact.location, (agent_id, object_id, fact)


class TestMerge:
    def locations(self):
        return [
            Location(LOC_ROOM, "kitchen"),
            Location(LOC_ROOM, "bedroom"),
            Location(LOC_SURFACE, "kitchentable"),
            Location(LOC_CONTAINER, "fridge"),
            Location(LOC_AGENT, 1),
        ]

    def random_belief(self, rng):
        locations = self.locations()
        facts = {}
        for idx in range(rng.randint(0, 5)):
            oid = f"plate_{rng.randint(1, 4)}"
            facts[oid] = Fact(oid, "plate", rng.choice(locations), rng.randint(0, 9))
        visited = {r: rng.randint(0, 9) for r in ("kitchen", "bedroom") if rng.random() < 0.7}
        flags = {c: (rng.random() < 0.5, rng.randint(0, 9)) for c in ("fridge",) if rng.random() < 0.7}
        return Belief(facts=facts, visited_rooms=visited, container_flags=flags)

    def test_newest_fact_wins(self):
        old = Fact("plate_1", "plate", Location(LOC_ROOM, "kitchen"), 2)
        new = Fact("plate_1", "plate", Location(LOC_SURFACE, "kitchentable"), 5)
        a = Belief(facts={"plate_1": old}, visited_rooms={}, container_flags={})
        b = Belief(facts={"plate_1": new}, visited_rooms={}, container_flags={})
        assert merge_team_belief([a, b]).facts["plate_1"] == new
        assert merge_team_belief([b, a]).facts["plate_1"] == new

    def test_tie_breaks_toward_earlier_agent(self):
        first = Fact("plate_1", "plate", Location(LOC_ROOM, "kitchen"), 5)
        second = Fact("plate_1", "plate", Location(LOC_ROOM, "bedroom"), 5)
        a = Belief(facts={"plate_1": first}, visited_rooms={}, container_flags={})
        b = Belief(facts={"plate_1": second}, visited_rooms={}, container_flags={})
        assert merge_team_belief([a, b]).facts["plate_1"] == first
        assert merge_team_belief([b, a]).facts["plate_1"] == second

    def test_merge_associative_and_idempotent(self):
        rng = random.Random(99)
        for _ in range(300):
            a, b, c = (self.random_belief(rng) for _ in range(3))
            left = merge_team_belief([merge_team_belief([a, b]), c])
            right = merge_team_belief([a, merge_team_belief([b, c])])
            flat = merge_team_belief([a, b, c])
            assert left == right == flat
            assert merge_team_belief([a, a]) == merge_team_belief([a])

    def test_merge_commutative_up_to_tiebreak(self):
        rng = random.Random(7)
        for _ in range(300):
            a, b = self.random_belief(rng), self.random_belief(rng)
            ab = merge_team_belief([a, b])
            ba = merge_team_belief([b, a])
            for oid in set(ab.facts) | set(ba.facts):
                fa, fb = ab.facts.get(oid), ba.facts.get(oid)
                assert fa is not None and fb is not None
                assert fa.observed_at == fb.observed_at
                if fa != fb:  # only a true timestamp tie may differ
                    assert a.facts[oid].observed_at == b.facts[oid].observed_at


class TestRendering:
    def test_empty_belief_renders_header_only(self):
        assert render_belief(Belief.empty()) == "belief: 0 facts"

    def test_single_fact_renders_two_lines(self):
        belief = Belief(
            facts={"plate_1": Fact("plate_1", "plate", Location(LOC_ROOM, "kitchen"), 3)},
            visited_rooms={},
            container_flags={},
        )
        lines = render_belief(belief).split("\n")
        assert len(lines) == 2
        assert lines[0] == "belief: 1 facts"
        assert "plate_1" in lines[1] and "room:kitchen" in lines[1]

    def test_render_deterministic_and_injective(self):
        rng = random.Random(31)
        helper = TestMerge()
        seen = {}
        for _ in range(1000):
            belief = helper.random_belief(rng)
            key = (
                tuple(sorted(belief.facts.items())),
                tuple(sorted(belief.visited_rooms.items())),
                tuple(sorted(belief.container_flags.items())),
            )
            text = render_belief(belief)
            assert text == render_belief(belief)
            if key in seen:
                assert seen[key] == text
            else:
                for other_key, other_text in seen.items():
                    if other_key != key:
                        assert other_text != text, "two distinct beliefs rendered equal"
                seen[key] = text

    def test_render_observation_stable(self):
        state, _ = init_world("WashDishes", 2, 1)
        obs = observe(state, 1, room_sightings(state))
        text = render_observation(obs)
        assert text.splitlines()[0].startswith("observation: agent 1 in ")

    def test_render_history_lines(self):
        records = [
            HistoryRecord(tick=3, agent_id=1, action=Action("GOTO", "kitchen")),
            HistoryRecord(tick=3, agent_id=2, action=WAIT),
        ]
        text = render_history(records)
        assert text.splitlines() == [
            "t=3 agent 1: GOTO(kitchen)",
            "t=3 agent 2: WAIT",
        ]
        assert render_history([]) == "(no recent activity)"

    def test_belief_digest_tracks_goal_classes_only(self):
        state, goal = init_world("SetUpTable", 1, 2)
        belief = Belief(
            facts={
                "plate_1": Fact("plate_1", "plate", Location(LOC_SURFACE, "kitchentable"), 4),
                "book_1": Fact("book_1", "book", Location(LOC_ROOM, "bedroom"), 4),
            },
            visited_rooms={},
            container_flags={},
        )
        digest = belief_digest(belief, goal)
        assert "plate_1@surface:kitchentable" in digest
        assert "book_1" not in digest
        assert belief_digest(Belief.empty(), goal) == "goal objects: none seen"


class TestExpandMacro:
    def setup_kitchen(self, task="SetUpTable", held=None, room="kitchen"):
        state, goal = init_world(task, 1, 8)
        state.agents[1] = state.agents[1].__class__(room=room, held=held)
        if held is not None:
            state.locations[held] = Location(LOC_AGENT, 1)
        return state, goal

    def test_idle_waits(self):
        state, _ = self.setup_kitchen()
        obs = observe(state, 1, room_sightings(state))
        action = expand_macro(MacroTask.idle(), Belief.empty(), obs, state.house)
        assert action == WAIT

    def test_holding_demanded_places_it(self):
        state, _ = self.setup_kitchen(held="plate_1")
        obs = observe(state, 1, room_sightings(state))
        belief = perceive(obs, Belief.empty())
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        assert expand_macro(task, belief, obs, state.house) == Action("PUTON", "kitchentable")

    def test_holding_demanded_opens_closed_container_first(self):
        state, _ = self.setup_kitchen(task="WashDishes", held="plate_1")
        state.container_open["dishwasher"] = False
        obs = observe(state, 1, room_sightings(state))
        belief = perceive(obs, Belief.empty())
        task = MacroTask.fetch("plate", IN, "dishwasher", object_id="plate_1")
        assert expand_macro(task, belief, obs, state.house) == Action("OPEN", "dishwasher")
        state.container_open["dishwasher"] = True
        obs = observe(state, 1, room_sightings(state))
        assert expand_macro(task, belief, obs, state.house) == Action("PUTIN", "dishwasher")

    def test_holding_wrong_object_unloads(self):
        state, _ = self.setup_kitchen(held="book_1")
        state.house.object_classes["book_1"] = "book"
        state.locations["book_1"] = Location(LOC_AGENT, 1)
        obs = observe(state, 1, room_sightings(state))
        belief = perceive(obs, Belief.empty())
        task = MacroTask.fetch("plate", ON, "kitchentable")
        action = expand_macro(task, belief, obs, state.house)
        assert action == Action("PUTON", "kitchentable"), "first surface in the room"

    def test_holding_wrong_object_opens_a_closed_container_when_no_surface_is_here(self):
        state, _ = self.setup_kitchen()
        # The living room without its coffee table: the cabinet is all it has.
        surfaces = {s: r for s, r in state.house.surfaces.items() if r != "livingroom"}
        house = dataclasses.replace(
            state.house, surfaces=surfaces, object_classes={"book_1": "book"}
        )
        obs = Observation(
            agent_id=1, tick=0, room="livingroom", held="book_1", objects=(),
            containers={"cabinet": False},
        )
        task = MacroTask.fetch("plate", ON, "kitchentable")
        assert expand_macro(task, Belief.empty(), obs, house) == Action("OPEN", "cabinet")
        obs = dataclasses.replace(obs, containers={"cabinet": True})
        assert expand_macro(task, Belief.empty(), obs, house) == Action("PUTIN", "cabinet")

    def test_walks_toward_believed_object(self):
        state, _ = self.setup_kitchen(room="bedroom")
        obs = observe(state, 1, room_sightings(state))
        belief = Belief(
            facts={"plate_1": Fact("plate_1", "plate", Location(LOC_ROOM, "kitchen"), 1)},
            visited_rooms={},
            container_flags={},
        )
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        action = expand_macro(task, belief, obs, state.house)
        assert action == Action("GOTO", "livingroom"), "next hop on bedroom->kitchen"

    def test_grabs_visible_object_in_room(self):
        state, _ = self.setup_kitchen()
        state.locations["plate_1"] = Location(LOC_ROOM, "kitchen")
        obs = observe(state, 1, room_sightings(state))
        belief = perceive(obs, Belief.empty())
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        assert expand_macro(task, belief, obs, state.house) == Action("GRAB", "plate_1")

    def test_opens_container_believed_to_hold_object(self):
        state, _ = self.setup_kitchen()
        state.locations["plate_1"] = Location(LOC_CONTAINER, "fridge")
        state.container_open["fridge"] = False
        obs = observe(state, 1, room_sightings(state))
        belief = Belief(
            facts={"plate_1": Fact("plate_1", "plate", Location(LOC_CONTAINER, "fridge"), 1)},
            visited_rooms={},
            container_flags={},
        )
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        assert expand_macro(task, belief, obs, state.house) == Action("OPEN", "fridge")

    def test_object_missing_from_its_believed_surface_sweeps_from_here(self):
        state, _ = self.setup_kitchen()
        state.locations["plate_1"] = Location(LOC_ROOM, "bedroom")
        state.container_open = {c: False for c in state.container_open}
        obs = observe(state, 1, room_sightings(state))
        belief = Belief(
            facts={"plate_1": Fact("plate_1", "plate", Location(LOC_SURFACE, "kitchentable"), 1)},
            visited_rooms={},
            container_flags={},
        )
        task = MacroTask.fetch("plate", ON, "sink", object_id="plate_1")
        # the never-visited kitchen is the nearest room that may hide it
        assert expand_macro(task, belief, obs, state.house) == Action("OPEN", "dishwasher")

    def test_unknown_object_sweeps_nearest_hiding_room(self):
        state, _ = self.setup_kitchen()
        state.container_open = {c: False for c in state.container_open}
        obs = observe(state, 1, room_sightings(state))
        belief = Belief(facts={}, visited_rooms={"kitchen": 3}, container_flags={})
        task = MacroTask.fetch("plate", ON, "kitchentable")
        # the kitchen itself may still hide the plate: open up before leaving
        action = expand_macro(task, belief, obs, state.house)
        assert action == Action("OPEN", "dishwasher")
        spent = Belief(
            facts={},
            visited_rooms={"kitchen": 3},
            container_flags={
                c: (True, 3) for c in state.house.containers_in("kitchen")
            },
        )
        state.container_open = {c: True for c in state.container_open}
        obs = observe(state, 1, room_sightings(state))
        action = expand_macro(task, spent, obs, state.house)
        assert action == Action("GOTO", state.house.next_hop("kitchen", "livingroom"))

    def test_sweep_opens_closed_containers_then_explores(self):
        state, _ = self.setup_kitchen()
        state.container_open = {c: False for c in state.container_open}
        obs = observe(state, 1, room_sightings(state))
        belief = perceive(obs, Belief.empty())
        action = expand_macro(MacroTask.explore("kitchen"), belief, obs, state.house)
        assert action == Action("OPEN", "dishwasher"), "first closed container by name"
        state.container_open = {c: True for c in state.container_open}
        obs = observe(state, 1, room_sightings(state))
        action = expand_macro(MacroTask.explore("kitchen"), perceive(obs, Belief.empty()), obs, state.house)
        assert action.kind == "EXPLORE"

    def test_unvisited_room_hides_content(self):
        state, _ = self.setup_kitchen()
        assert room_hides_content(Belief.empty(), "bathroom", state.house)

    def test_container_free_room_exhausts_on_visit(self):
        state, _ = self.setup_kitchen()
        belief = Belief(facts={}, visited_rooms={"bathroom": 2}, container_flags={})
        assert not room_hides_content(belief, "bathroom", state.house)

    def test_unopened_containers_keep_room_hiding(self):
        state, _ = self.setup_kitchen()
        house = state.house
        belief = Belief(facts={}, visited_rooms={"kitchen": 2}, container_flags={})
        assert room_hides_content(belief, "kitchen", house)
        closed = Belief(
            facts={},
            visited_rooms={"kitchen": 2},
            container_flags={"fridge": (False, 2)},
        )
        assert room_hides_content(closed, "kitchen", house)
        opened = Belief(
            facts={},
            visited_rooms={"kitchen": 2},
            container_flags={c: (True, 2) for c in house.containers_in("kitchen")},
        )
        assert not room_hides_content(opened, "kitchen", house)

    def test_sweep_targets_rank_hidden_then_stale(self):
        state, _ = self.setup_kitchen()
        belief = Belief(
            facts={},
            visited_rooms={"bathroom": 5, "bedroom": 1, "kitchen": 3, "livingroom": 2},
            container_flags={"cabinet": (True, 2)},
        )
        # kitchen still hides (closed appliances); the rest are spent and
        # fall back to oldest-visit order
        assert sweep_targets(belief, state.house, "bathroom") == [
            "kitchen",
            "bedroom",
            "livingroom",
            "bathroom",
        ]

    def test_sweep_finishes_current_room_before_moving_on(self):
        state, _ = self.setup_kitchen()
        house = state.house
        # kitchen and livingroom both still hide content; standing in the
        # kitchen must keep the kitchen first even though it was visited last
        belief = Belief(
            facts={},
            visited_rooms={"kitchen": 9, "livingroom": 8},
            container_flags={},
        )
        assert sweep_targets(belief, house, "kitchen")[0] == "kitchen"
        assert sweep_targets(belief, house, "livingroom")[0] == "livingroom"
        # equal distance: the never-visited room promises more
        order = sweep_targets(Belief.empty(), house, "livingroom")
        assert order[0] == "livingroom"

    def test_expansion_always_legal(self):
        """Invariant: whatever the task and belief, the primitive is legal."""
        rng = random.Random(17)
        for seed in range(4):
            snapshots, goal = random_walk(TASKS[seed % len(TASKS)], 2, seed, 30)
            beliefs = {1: Belief.empty(), 2: Belief.empty()}
            for state in snapshots:
                house = state.house
                tasks = [MacroTask.idle()]
                tasks += [MacroTask.explore(r) for r in house.rooms]
                for pred in goal.predicates:
                    tasks.append(MacroTask.fetch(pred.object_class, pred.relation, pred.target))
                for oid in list(house.object_classes)[:6]:
                    pred = goal.predicates[0]
                    tasks.append(
                        MacroTask.fetch(
                            house.object_classes[oid], pred.relation, pred.target, object_id=oid
                        )
                    )
                for agent_id in state.agents:
                    obs = observe(state, agent_id, room_sightings(state))
                    beliefs[agent_id] = perceive(obs, beliefs[agent_id])
                    team = merge_team_belief([beliefs[i] for i in sorted(beliefs)])
                    for task in tasks:
                        action = expand_macro(task, team, obs, house)
                        assert action in reference_legal_actions(state, agent_id), (
                            task.render(),
                            action.render(),
                            obs.room,
                        )


def sorting_believed_instance(task, belief, from_room, house):
    """Reference believed_instance: ranks every eligible fact in id order
    and sorts the list, which the min-based one must agree with."""
    target_loc = goal_location(str(task.relation), str(task.target))
    if task.object_id is not None:
        fact = belief.facts.get(task.object_id)
        if fact is None or fact.location == target_loc or fact.location.kind == LOC_AGENT:
            return None
        return fact
    ranked = []
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


class TestBelievedInstance:
    def test_nearest_tie_breaks_by_id_whatever_the_insertion_order(self):
        state, _ = init_world("SetUpTable", 1, 0)
        house = state.house
        # bedroom and kitchen are both one room away from the livingroom.
        facts = {
            "plate_9": Fact("plate_9", "plate", Location(LOC_ROOM, "kitchen"), 0),
            "plate_2": Fact("plate_2", "plate", Location(LOC_ROOM, "bedroom"), 0),
            "plate_5": Fact("plate_5", "plate", Location(LOC_ROOM, "livingroom"), 0),
        }
        belief = Belief(facts=facts, visited_rooms={}, container_flags={})
        task = MacroTask.fetch("plate", ON, "kitchentable")
        assert house.distance("livingroom", "kitchen") == house.distance("livingroom", "bedroom")
        assert believed_instance(task, belief, "livingroom", house).object_id == "plate_5"
        del facts["plate_5"]
        assert believed_instance(task, belief, "livingroom", house).object_id == "plate_2"

    def test_bound_object_in_a_hand_is_not_offered(self):
        state, _ = init_world("SetUpTable", 1, 0)
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        for holder in (1, 2):
            fact = Fact("plate_1", "plate", Location(LOC_AGENT, holder), 0)
            belief = Belief(facts={"plate_1": fact}, visited_rooms={}, container_flags={})
            assert believed_instance(task, belief, "kitchen", state.house) is None

    def test_min_equals_the_sorting_definition(self):
        """Random walks, thinned beliefs with shuffled insertion order, every
        goal predicate bound and unbound, from every room. Ties at the
        nearest distance must come up often."""
        rng = random.Random(23)
        checked = ties = 0
        for seed in range(6):
            snapshots, goal = random_walk(TASKS[seed % len(TASKS)], 3, seed, 25)
            for state in snapshots:
                house = state.house
                placements = [
                    (oid, Fact(oid, house.object_classes[oid], loc, state.tick))
                    for oid, loc in sorted(state.locations.items())
                    if rng.random() < 0.8
                ]
                rng.shuffle(placements)
                belief = Belief(facts=dict(placements), visited_rooms={}, container_flags={})
                tasks = []
                for pred in goal.predicates:
                    tasks.append(MacroTask.fetch(pred.object_class, pred.relation, pred.target))
                    for oid, cls in house.object_classes.items():
                        if cls == pred.object_class:
                            tasks.append(
                                MacroTask.fetch(cls, pred.relation, pred.target, object_id=oid)
                            )
                for task in tasks:
                    for room in house.rooms:
                        expected = sorting_believed_instance(task, belief, room, house)
                        assert believed_instance(task, belief, room, house) == expected
                        checked += 1
                        if task.object_id is None:
                            target = goal_location(task.relation, task.target)
                            distances = sorted(
                                house.distance(room, house.location_room(fact.location))
                                for fact in belief.facts.values()
                                if fact.object_class == task.object_class
                                and fact.location.kind != LOC_AGENT
                                and fact.location != target
                            )
                            ties += len(distances) > 1 and distances[0] == distances[1]
        assert checked > 1000 and ties > 100
