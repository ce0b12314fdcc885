"""Coordination tests: proposals, the response grammar, scoring, allocation.

Score semantics are pinned by hand-computed examples on the fixed floor
plan; a test-local exhaustive argmax (own product loop, own option listing)
then checks the allocator's selection over randomized scenarios, so the
enumeration order and tie-breaking stay honest.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from homecrew.agents import Belief, Fact, MacroTask
from homecrew.coordination import (
    AgentView,
    AllocationInputs,
    CrossAgentContext,
    JointAction,
    Proposal,
    allocate,
    allocate_with_report,
    assemble_context,
    check_conflicts,
    enumerate_joint_space,
    heuristic_allocation,
    heuristic_proposal,
    make_proposal,
    remaining_by_predicate,
    score_joint,
)
from homecrew.errors import RemoteBackendError, ResponseParseError
from homecrew.reasoner import (
    ALLOCATE,
    PROPOSE,
    HeuristicReasoner,
    Reasoner,
    ScriptedReasoner,
    TEXT,
    format_allocation,
    parse_allocation,
    parse_proposal,
    parse_task,
)
from homecrew.summaries import CollaborativeSummary
from homecrew.world import (
    IN,
    LOC_ROOM,
    ON,
    GoalPredicate,
    GoalSpec,
    Location,
    Observation,
    TaskProgress,
    build_house,
    evaluate_progress,
    init_world,
    legal_actions,
    load_catalog,
    observe,
    transition,
)

TASKS = ["PrepareAMeal", "PrepareTea", "PutGroceries", "SetUpTable", "WashDishes"]


def omniscient_belief(state) -> Belief:
    facts = {
        object_id: Fact(object_id, object_class, location, state.tick)
        for object_id, object_class, location in state.object_placements()
    }
    return Belief(
        facts=facts,
        visited_rooms={room: state.tick for room in state.house.rooms},
        container_flags={
            cid: (is_open, state.tick) for cid, is_open in state.container_open.items()
        },
    )


def fixture_house(object_classes):
    """The catalog floor plan with a hand-picked object census."""
    house = build_house(load_catalog())
    return dataclasses.replace(house, object_classes=dict(object_classes))


def fab_observation(agent_id, room, held=None, tick=0):
    return Observation(agent_id=agent_id, tick=tick, room=room, held=held, objects=())


def single_plate_goal():
    return GoalSpec("Custom", (GoalPredicate(ON, "plate", "kitchentable", 1),))


def make_view(state, goal, agent_id, belief=None) -> AgentView:
    belief = belief if belief is not None else omniscient_belief(state)
    return AgentView(
        agent_id=agent_id,
        tick=state.tick,
        num_agents=len(state.agents),
        house=state.house,
        goal=goal,
        progress=evaluate_progress(belief, goal),
        observation=observe(state, agent_id),
        belief=belief,
    )


def build_inputs(task, num_agents, seed, drop_rate=0.0) -> AllocationInputs:
    """A full allocation instance: optionally thinned per-agent beliefs,
    heuristic proposals, ground-truth progress."""
    state, goal = init_world(task, num_agents, seed)
    rng = random.Random(seed * 31 + num_agents * 7 + int(drop_rate * 100))
    for _ in range(rng.randint(0, 6)):
        joint = {
            i: rng.choice(sorted(legal_actions(state, i), key=lambda a: a.render()))
            for i in state.agents
        }
        state, _ = transition(state, joint)
    beliefs, observations, proposals = {}, {}, []
    for agent_id in sorted(state.agents):
        full = omniscient_belief(state)
        facts = {
            object_id: fact
            for object_id, fact in full.facts.items()
            if rng.random() >= drop_rate
        }
        belief = dataclasses.replace(full, facts=facts)
        beliefs[agent_id] = belief
        observations[agent_id] = observe(state, agent_id)
        proposals.append(heuristic_proposal(make_view(state, goal, agent_id, belief)))
    context = assemble_context(proposals, beliefs, observations, state.house)
    return AllocationInputs(
        context=context,
        summaries=CollaborativeSummary.empty(),
        progress=evaluate_progress(state, goal),
        goal=goal,
    )


INSTANCE_GRID = [
    (task, num_agents, seed, drop)
    for task in TASKS
    for num_agents in (1, 2, 3)
    for seed in (0, 1)
    for drop in (0.0, 0.4)
]


class TestProposal:
    def test_candidate_targets_nearest_believed_object(self):
        state, goal = init_world("WashDishes", 1, seed=3)
        proposal = heuristic_proposal(make_view(state, goal, 1))
        task = proposal.candidate
        assert task.kind == "fetch_place"
        assert task.object_id is not None
        assert task.predicate_key() in {p.key() for p in goal.predicates}
        assert proposal.rationale

    def test_empty_belief_falls_back_to_sweep(self):
        state, goal = init_world("PrepareTea", 1, seed=0)
        empty = Belief.empty()
        proposal = heuristic_proposal(make_view(state, goal, 1, empty))
        # knowing nothing, sweep where you stand, then the nearest rooms
        assert proposal.candidate == MacroTask.explore("livingroom")
        assert proposal.alternatives == (MacroTask.explore("bathroom"),)
        assert not proposal.degraded

    def test_done_goal_proposes_idle(self):
        state, goal = init_world("PutGroceries", 1, seed=5)
        belief = omniscient_belief(state)
        done = dataclasses.replace(
            make_view(state, goal, 1, belief),
            progress=TaskProgress(goal.total_units(), goal.total_units()),
        )
        assert heuristic_proposal(done).candidate == MacroTask.idle()

    def test_alternatives_capped_and_deduped(self):
        for task in TASKS:
            for seed in range(4):
                state, goal = init_world(task, 2, seed)
                for agent_id in (1, 2):
                    proposal = heuristic_proposal(make_view(state, goal, agent_id))
                    assert len(proposal.alternatives) <= 3
                    assert proposal.candidate not in proposal.alternatives
                    assert len(set(proposal.alternatives)) == len(proposal.alternatives)

    def test_held_goal_object_ranks_first(self):
        state, goal = init_world("SetUpTable", 1, seed=2)
        house = state.house
        plate_id = sorted(
            oid for oid, cls in house.object_classes.items() if cls == "plate"
        )[0]
        belief = omniscient_belief(state)
        held_fact = Fact(plate_id, "plate", Location("agent", "1"), state.tick)
        belief = dataclasses.replace(
            belief, facts={**belief.facts, plate_id: held_fact}
        )
        proposal = heuristic_proposal(make_view(state, goal, 1, belief))
        assert proposal.candidate.object_id == plate_id
        assert "hand" in proposal.rationale


class TestGrammar:
    def random_task(self, rng, vocabulary):
        kind = rng.choice(["idle", "explore", "fetch", "fetch_bound"])
        if kind == "idle":
            return MacroTask.idle()
        if kind == "explore":
            return MacroTask.explore(rng.choice(vocabulary.rooms))
        relation = rng.choice([ON, IN])
        target = rng.choice(
            vocabulary.surfaces if relation == ON else vocabulary.containers
        )
        if kind == "fetch":
            return MacroTask.fetch(rng.choice(vocabulary.classes), relation, target)
        object_id = rng.choice(sorted(vocabulary.objects))
        return MacroTask.fetch(
            vocabulary.objects[object_id], relation, target, object_id=object_id
        )

    def test_round_trip_random_joints(self):
        inputs = build_inputs("PrepareAMeal", 3, seed=1)
        context = inputs.context
        rng = random.Random(99)
        for _ in range(200):
            tasks = {}
            used_ids = set()
            for agent_id in context.agent_ids():
                task = self.random_task(rng, context.vocabulary)
                while task.object_id is not None and task.object_id in used_ids:
                    task = self.random_task(rng, context.vocabulary)
                if task.object_id is not None:
                    used_ids.add(task.object_id)
                tasks[agent_id] = task
            joint = JointAction(tasks=tasks)
            assert parse_allocation(format_allocation(joint), context) == joint

    def test_fenced_block_with_surrounding_prose(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        raw = (
            "Here is my assignment, considering everything:\n"
            "```\n1: EXPLORE(kitchen)\n2: IDLE\n```\n"
            "1: this trailing prose must be ignored\n"
        )
        joint = parse_allocation(raw, inputs.context)
        assert joint.task_for(1) == MacroTask.explore("kitchen")
        assert joint.task_for(2) == MacroTask.idle()

    def test_agent_prefix_and_dot_separator(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        raw = "Agent 1: IDLE\n2. EXPLORE(bedroom)\n"
        joint = parse_allocation(raw, inputs.context)
        assert joint.task_for(1) == MacroTask.idle()
        assert joint.task_for(2) == MacroTask.explore("bedroom")

    @pytest.mark.parametrize(
        "bad",
        [
            "DANCE()",
            "IDLE(now)",
            "EXPLORE()",
            "EXPLORE(garage)",
            "EXPLORE(kitchen, bedroom)",
            "FETCH(plate, ON)",
            "FETCH(plate, UNDER, kitchentable)",
            "FETCH(plate, ON, fridge)",
            "FETCH(plate, IN, kitchentable)",
            "FETCH(ghost, ON, kitchentable)",
            "just words",
        ],
    )
    def test_parse_task_rejects(self, bad):
        inputs = build_inputs("PrepareAMeal", 2, seed=0)
        with pytest.raises(ResponseParseError):
            parse_task(bad, inputs.context.vocabulary)

    def test_parse_task_accepts_class_and_bound_forms(self):
        inputs = build_inputs("WashDishes", 2, seed=0)
        vocabulary = inputs.context.vocabulary
        task = parse_task("fetch(plate, in, dishwasher)", vocabulary)
        assert task.object_id is None and task.object_class == "plate"
        bound_id = sorted(vocabulary.objects)[0]
        bound = parse_task(f"FETCH({bound_id}, ON, kitchentable)", vocabulary)
        assert bound.object_id == bound_id

    def test_allocation_unknown_agent(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        with pytest.raises(ResponseParseError):
            parse_allocation("1: IDLE\n2: IDLE\n7: IDLE", inputs.context)

    def test_allocation_duplicate_agent(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        with pytest.raises(ResponseParseError):
            parse_allocation("1: IDLE\n1: EXPLORE(kitchen)\n2: IDLE", inputs.context)

    def test_allocation_missing_agent(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        with pytest.raises(ResponseParseError):
            parse_allocation("1: IDLE", inputs.context)

    def test_allocation_double_booked_object(self):
        inputs = build_inputs("WashDishes", 2, seed=0)
        bound_id = sorted(inputs.context.vocabulary.objects)[0]
        cls = inputs.context.vocabulary.objects[bound_id]
        raw = (
            f"1: FETCH({bound_id}, ON, kitchentable)\n"
            f"2: FETCH({bound_id}, IN, fridge)"
        )
        with pytest.raises(ResponseParseError):
            parse_allocation(raw, inputs.context)

    def test_allocation_oversubscribed_predicate(self):
        inputs = build_inputs("PrepareTea", 3, seed=0)
        remaining = {(ON, "kettle", "kitchentable"): 1}
        raw = (
            "1: FETCH(kettle, ON, kitchentable)\n"
            "2: FETCH(kettle, ON, kitchentable)\n"
            "3: IDLE"
        )
        with pytest.raises(ResponseParseError):
            parse_allocation(raw, inputs.context, remaining)
        assert parse_allocation(raw, inputs.context) is not None

    def test_proposal_lines(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        vocabulary = inputs.context.vocabulary
        raw = (
            "why: the kettle is closest\n"
            "propose: FETCH(kettle, ON, kitchentable)\n"
            "alt: EXPLORE(kitchen)\n"
            "alt: explore(kitchen)\n"
            "alt: IDLE\n"
        )
        proposal = parse_proposal(raw, vocabulary, agent_id=2)
        assert proposal.agent_id == 2
        assert proposal.candidate.object_class == "kettle"
        assert proposal.alternatives == (MacroTask.explore("kitchen"), MacroTask.idle())
        assert proposal.rationale == "the kettle is closest"

    def test_proposal_requires_propose_line(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        with pytest.raises(ResponseParseError):
            parse_proposal("alt: IDLE\nwhy: nothing", inputs.context.vocabulary, 1)


class TestScore:
    def plate_context(self, *agent_specs):
        """agent_specs: (agent_id, room, held, facts, visited, proposal_task)
        with an optional trailing container_flags mapping."""
        object_classes = {"plate_1": "plate", "plate_2": "plate"}
        house = fixture_house(object_classes)
        goal = single_plate_goal()
        proposals, beliefs, observations = [], {}, {}
        for agent_id, room, held, facts, visited, task, *rest in agent_specs:
            proposals.append(Proposal(agent_id, task))
            beliefs[agent_id] = Belief(
                facts={f.object_id: f for f in facts},
                visited_rooms=visited,
                container_flags=rest[0] if rest else {},
            )
            observations[agent_id] = fab_observation(agent_id, room, held)
        context = assemble_context(proposals, beliefs, observations, house)
        return context, goal

    def test_relevant_fetch_two_rooms_away_scores_eight(self):
        fact = Fact("plate_1", "plate", Location(LOC_ROOM, "kitchen"), 0)
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        context, goal = self.plate_context(
            (1, "bedroom", None, [fact], {"bedroom": 0}, task)
        )
        joint = JointAction(tasks={1: task})
        assert score_joint(joint, context, TaskProgress(0, 1, (0,)), goal) == 8

    def test_all_idle_scores_zero(self):
        context, goal = self.plate_context(
            (1, "kitchen", None, [], {"kitchen": 0}, MacroTask.idle()),
            (2, "bedroom", None, [], {"bedroom": 0}, MacroTask.idle()),
        )
        joint = JointAction(tasks={1: MacroTask.idle(), 2: MacroTask.idle()})
        assert score_joint(joint, context, TaskProgress(0, 1, (0,)), goal) == 0

    def test_second_agent_past_quota_earns_no_relevance(self):
        fact1 = Fact("plate_1", "plate", Location(LOC_ROOM, "kitchen"), 0)
        fact2 = Fact("plate_2", "plate", Location(LOC_ROOM, "kitchen"), 0)
        task = MacroTask.fetch("plate", ON, "kitchentable")
        context, goal = self.plate_context(
            (1, "livingroom", None, [fact1, fact2], {"livingroom": 0}, task),
            (2, "livingroom", None, [fact1, fact2], {"livingroom": 0}, task),
        )
        joint = JointAction(tasks={1: task, 2: task})
        # agent 1: 10 - 1; agent 2 past the single remaining unit: 0 - 1
        assert score_joint(joint, context, TaskProgress(0, 1, (0,)), goal) == 8

    def test_duplicate_explore_pays_novelty_once(self):
        explore = MacroTask.explore("bathroom")
        context, goal = self.plate_context(
            (1, "bedroom", None, [], {"bedroom": 0}, explore),
            (2, "livingroom", None, [], {"livingroom": 0}, explore),
        )
        joint = JointAction(tasks={1: explore, 2: explore})
        # both one room out; only agent 1 scores the still-hidden bonus of 3
        assert score_joint(joint, context, TaskProgress(0, 1, (0,)), goal) == 1

    def test_exhausted_room_explore_earns_no_novelty(self):
        # bathroom has no containers, so one visit exhausts it
        explore = MacroTask.explore("bathroom")
        context, goal = self.plate_context(
            (1, "bathroom", None, [], {"bathroom": 0}, explore),
        )
        joint = JointAction(tasks={1: explore})
        assert score_joint(joint, context, TaskProgress(0, 1, (0,)), goal) == 0

    def test_unopened_containers_keep_room_novel(self):
        explore = MacroTask.explore("kitchen")
        context, goal = self.plate_context(
            (1, "kitchen", None, [], {"kitchen": 0}, explore),
        )
        joint = JointAction(tasks={1: explore})
        # visited, but the fridge and friends are not believed open
        assert score_joint(joint, context, TaskProgress(0, 1, (0,)), goal) == 3

    def test_all_containers_open_ends_kitchen_novelty(self):
        explore = MacroTask.explore("kitchen")
        flags = {c: (True, 0) for c in ("dishwasher", "fridge", "stove")}
        context, goal = self.plate_context(
            (1, "kitchen", None, [], {"kitchen": 0}, explore, flags),
        )
        joint = JointAction(tasks={1: explore})
        assert score_joint(joint, context, TaskProgress(0, 1, (0,)), goal) == 0

    def test_object_already_at_target_scores_nothing(self):
        fact = Fact("plate_1", "plate", Location("surface", "kitchentable"), 0)
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        context, goal = self.plate_context(
            (1, "kitchen", None, [fact], {"kitchen": 0}, task)
        )
        joint = JointAction(tasks={1: task})
        assert score_joint(joint, context, TaskProgress(1, 1, (1,)), goal) == 0

    def test_holding_the_object_counts_target_distance(self):
        fact = Fact("plate_1", "plate", Location("agent", "1"), 0)
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        context, goal = self.plate_context(
            (1, "bathroom", "plate_1", [fact], {"bathroom": 0}, task)
        )
        joint = JointAction(tasks={1: task})
        # relevance 10 minus bathroom -> kitchen travel of 2
        assert score_joint(joint, context, TaskProgress(0, 1, (0,)), goal) == 8


class TestAllocator:
    def options_for(self, entry):
        options = [entry.proposal.candidate]
        for task in entry.proposal.alternatives[:3]:
            if task not in options:
                options.append(task)
        if MacroTask.idle() not in options:
            options.append(MacroTask.idle())
        return options

    def brute_force(self, inputs: AllocationInputs) -> JointAction:
        context = inputs.context
        remaining = remaining_by_predicate(inputs.goal, inputs.progress)
        agent_ids = [entry.agent_id for entry in context.entries]
        best, best_score = None, None
        for combo in itertools.product(
            *[self.options_for(entry) for entry in context.entries]
        ):
            joint = JointAction(tasks=dict(zip(agent_ids, combo)))
            if check_conflicts(joint, remaining):
                continue
            score = score_joint(joint, context, inputs.progress, inputs.goal)
            if best is None or score > best_score:
                best, best_score = joint, score
        return best

    @pytest.mark.parametrize("task,num_agents,seed,drop", INSTANCE_GRID)
    def test_matches_exhaustive_argmax(self, task, num_agents, seed, drop):
        inputs = build_inputs(task, num_agents, seed, drop)
        assert heuristic_allocation(inputs) == self.brute_force(inputs)

    @pytest.mark.parametrize("task,num_agents,seed,drop", INSTANCE_GRID[::3])
    def test_allocation_covers_agents_conflict_free(self, task, num_agents, seed, drop):
        inputs = build_inputs(task, num_agents, seed, drop)
        joint = heuristic_allocation(inputs)
        assert [aid for aid, _ in joint.items()] == list(inputs.context.agent_ids())
        remaining = remaining_by_predicate(inputs.goal, inputs.progress)
        assert check_conflicts(joint, remaining) == []

    def test_enumeration_matches_product_filter(self):
        inputs = build_inputs("SetUpTable", 3, seed=4, drop_rate=0.3)
        remaining = remaining_by_predicate(inputs.goal, inputs.progress)
        expected = []
        agent_ids = [e.agent_id for e in inputs.context.entries]
        for combo in itertools.product(
            *[self.options_for(e) for e in inputs.context.entries]
        ):
            joint = JointAction(tasks=dict(zip(agent_ids, combo)))
            if not check_conflicts(joint, remaining):
                expected.append(joint)
        assert enumerate_joint_space(inputs.context, 3, remaining) == expected

    def test_structured_backend_equals_heuristic(self):
        inputs = build_inputs("PutGroceries", 2, seed=7)
        via_backend = allocate(
            HeuristicReasoner(),
            inputs.context,
            inputs.summaries,
            inputs.progress,
            inputs.goal,
        )
        assert via_backend == heuristic_allocation(inputs)

    def test_text_backend_honors_valid_response(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        forced = JointAction(
            tasks={1: MacroTask.idle(), 2: MacroTask.explore("bathroom")}
        )
        scripted = ScriptedReasoner(
            {(ALLOCATE, inputs.context.tick, 1): [format_allocation(forced)]}
        )
        joint, report = allocate_with_report(
            scripted, inputs.context, inputs.summaries, inputs.progress, inputs.goal
        )
        assert joint == forced
        assert report.attempts == 1 and not report.degraded

    def test_text_backend_retries_then_falls_back(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        key = (ALLOCATE, inputs.context.tick, 1)
        scripted = ScriptedReasoner(
            {key: ["no structure", "1: DANCE()\n2: IDLE", "still nothing"]}
        )
        joint, report = allocate_with_report(
            scripted, inputs.context, inputs.summaries, inputs.progress, inputs.goal
        )
        assert report.degraded and report.attempts == 3
        assert scripted.pending() == 0
        assert joint == heuristic_allocation(inputs)

    def test_text_backend_conflicting_then_valid(self):
        inputs = build_inputs("WashDishes", 2, seed=1)
        bound_id = sorted(inputs.context.vocabulary.objects)[0]
        conflicting = (
            f"1: FETCH({bound_id}, IN, dishwasher)\n"
            f"2: FETCH({bound_id}, IN, dishwasher)"
        )
        valid = "1: IDLE\n2: IDLE"
        scripted = ScriptedReasoner(
            {(ALLOCATE, inputs.context.tick, 1): [conflicting, valid]}
        )
        joint, report = allocate_with_report(
            scripted, inputs.context, inputs.summaries, inputs.progress, inputs.goal
        )
        assert report.attempts == 2 and not report.degraded
        assert joint.task_for(2) == MacroTask.idle()

    def test_remote_error_falls_back_degraded(self):
        class ExplodingReasoner(Reasoner):
            name = "exploding"
            produces = TEXT

            def invoke(self, request):
                raise RemoteBackendError("endpoint unreachable")

        inputs = build_inputs("SetUpTable", 2, seed=3)
        joint, report = allocate_with_report(
            ExplodingReasoner(),
            inputs.context,
            inputs.summaries,
            inputs.progress,
            inputs.goal,
        )
        assert report.degraded
        assert "unreachable" in report.note
        assert joint == heuristic_allocation(inputs)


class TestMakeProposal:
    def test_structured_backend_matches_heuristic(self):
        state, goal = init_world("WashDishes", 2, seed=9)
        view = make_view(state, goal, 2)
        assert make_proposal(HeuristicReasoner(), view) == heuristic_proposal(view)

    def test_scripted_proposal_parsed(self):
        state, goal = init_world("PrepareTea", 2, seed=0)
        view = make_view(state, goal, 1)
        raw = "propose: EXPLORE(kitchen)\nwhy: checking the stove"
        scripted = ScriptedReasoner({(PROPOSE, view.tick, 1): [raw]})
        proposal = make_proposal(scripted, view)
        assert proposal.candidate == MacroTask.explore("kitchen")
        assert proposal.rationale == "checking the stove"
        assert not proposal.degraded

    def test_malformed_then_valid_uses_retry(self):
        state, goal = init_world("PrepareTea", 2, seed=0)
        view = make_view(state, goal, 2)
        scripted = ScriptedReasoner(
            {(PROPOSE, view.tick, 2): ["gibberish", "propose: IDLE"]}
        )
        proposal = make_proposal(scripted, view)
        assert proposal.candidate == MacroTask.idle()
        assert not proposal.degraded

    def test_exhausted_budget_degrades_to_sweep(self):
        state, goal = init_world("PrepareTea", 2, seed=0)
        view = make_view(state, goal, 1, Belief.empty())
        scripted = ScriptedReasoner(
            {(PROPOSE, view.tick, 1): ["bad", "bad", "bad"]}
        )
        proposal = make_proposal(scripted, view, parse_retries=2)
        assert proposal.degraded
        assert proposal.candidate == MacroTask.explore("livingroom")
        assert scripted.pending() == 0


class TestContext:
    def test_entries_sorted_with_digests(self):
        inputs = build_inputs("PrepareAMeal", 3, seed=2)
        context = inputs.context
        assert context.agent_ids() == (1, 2, 3)
        assert context.vocabulary.agent_ids == (1, 2, 3)
        prompts = []

        class CapturingReasoner(Reasoner):
            name = "capturing"
            produces = TEXT

            def invoke(self, request):
                prompts.append(request.rendered_prompt)
                raise RemoteBackendError("no reply")

        allocate_with_report(
            CapturingReasoner(),
            context,
            inputs.summaries,
            inputs.progress,
            inputs.goal,
        )
        blocks = prompts[0].split("\n### agent ")[1:]
        assert [block.split("\n")[0] for block in blocks] == ["1", "2", "3"]
        for agent_id, block in zip((1, 2, 3), blocks):
            assert "\n  goal objects: " in block
            assert f"\n  observation: agent {agent_id} in " in block

    def test_remaining_by_predicate_counts_down(self):
        state, goal = init_world("WashDishes", 1, seed=0)
        start = remaining_by_predicate(goal, evaluate_progress(state, goal))
        assert sum(start.values()) == goal.total_units()
        done = remaining_by_predicate(
            goal, TaskProgress(goal.total_units(), goal.total_units(),
                               tuple(p.count for p in goal.predicates))
        )
        assert all(v == 0 for v in done.values())
