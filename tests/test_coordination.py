"""Coordination tests: proposals, the response grammar, scoring, allocation.

Score semantics are pinned by hand-computed examples on the fixed floor
plan; the exhaustive argmax of tests/oracle.py (own product loop, own option
listing, own conflict filter) then checks the allocator's selection over
randomized scenarios, so the enumeration order and tie-breaking stay honest.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import conflict_free_joints, exhaustive_argmax
from update_goldens import format_allocation
from walks import random_legal_joint
from homecrew.agents import execution
from homecrew.agents.belief import Belief, Fact, merge_team_belief
from homecrew.agents.execution import MacroTask, sweep_targets
from homecrew.coordination.allocate import (
    _agent_options,
    allocate,
    allocate_with_report,
    assemble_context,
    enumerate_joint_space,
    heuristic_allocation,
    score_joint,
)
from homecrew.coordination.negotiate import heuristic_proposal, make_proposal
from homecrew.coordination.types import (
    AgentView,
    AllocationInputs,
    ContextEntry,
    JointAction,
    Proposal,
    check_conflicts,
    remaining_by_predicate,
)
from homecrew.errors import (
    NOTE_LIMIT,
    FixtureExhausted,
    RemoteBackendError,
    ResponseParseError,
)
from homecrew.harness.config import VARIANTS, EpisodeConfig
from homecrew.harness.episode import run_episode
from homecrew.reasoner.base import ALLOCATE, PROPOSE, TEXT, Reasoner, ReasonerRequest
from homecrew.reasoner.heuristic import HeuristicReasoner
from homecrew.reasoner.parsing import parse_allocation, parse_proposal, parse_task
from homecrew.reasoner.scripted import ScriptedReasoner
from homecrew.world.engine import evaluate_progress, observe, room_sightings, transition
from homecrew.world.scenarios import build_house, init_world, load_catalog
from homecrew.world.types import (
    IN,
    LOC_AGENT,
    LOC_ROOM,
    LOC_SURFACE,
    ON,
    GoalPredicate,
    GoalSpec,
    Location,
    Observation,
    TaskProgress,
    goal_location,
)

TASKS = ["PrepareAMeal", "PrepareTea", "PutGroceries", "SetUpTable", "WashDishes"]

# An agent id with more digits than int() converts by default (4300).
LONG_ID_REPLY = "9" * 4301 + ": IDLE\n1: IDLE"


def omniscient_belief(state) -> Belief:
    facts = {
        object_id: Fact(object_id, state.house.object_classes[object_id], location, state.tick)
        for object_id, location in sorted(state.locations.items())
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
        observation=observe(state, agent_id, room_sightings(state)),
        belief=belief,
    )


def build_inputs(task, num_agents, seed, drop_rate=0.0) -> AllocationInputs:
    """A full allocation instance: optionally thinned per-agent beliefs,
    heuristic proposals, ground-truth progress."""
    state, goal = init_world(task, num_agents, seed)
    rng = random.Random(seed * 31 + num_agents * 7 + int(drop_rate * 100))
    for _ in range(rng.randint(0, 6)):
        state, _ = transition(state, random_legal_joint(state, rng))
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
        observations[agent_id] = observe(state, agent_id, room_sightings(state))
        proposals.append(heuristic_proposal(make_view(state, goal, agent_id, belief)))
    return AllocationInputs(
        tick=state.tick,
        entries=assemble_context(proposals, beliefs, observations),
        house=state.house,
        summaries=(),
        progress=evaluate_progress(state, goal),
        goal=goal,
        team=merge_team_belief([beliefs[i] for i in sorted(beliefs)]),
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
        assert task.kind == "FETCH"
        assert task.object_id is not None
        assert task.predicate_key() in {p.key() for p in goal.predicates}
        assert proposal.rationale

    def test_kind_is_the_rendered_label(self):
        house = init_world("WashDishes", 1, seed=3)[0].house
        object_id = sorted(house.object_classes)[0]
        object_class = house.object_classes[object_id]
        tasks = [
            MacroTask.fetch(object_class, ON, sorted(house.surfaces)[0], object_id=object_id),
            MacroTask.fetch(object_class, IN, sorted(house.containers)[0]),
            MacroTask.explore(house.rooms[0]),
            MacroTask.idle(),
        ]
        assert [task.kind for task in tasks] == ["FETCH", "FETCH", "EXPLORE", "IDLE"]
        for task in tasks:
            assert task.render().split("(")[0] == task.kind
            assert parse_task(task.render(), house) == task

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
            progress=TaskProgress(
                goal.total_units,
                goal.total_units,
                tuple(p.count for p in goal.predicates),
            ),
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


def sorting_heuristic_proposal(view):
    """Reference heuristic_proposal: believed progress first, then one scan
    of the sorted facts per unmet predicate, every option built as a task
    and sorted, which the one-pass ranking must agree with."""
    if view.progress.total and view.progress.satisfied >= view.progress.total:
        return Proposal(view.agent_id, MacroTask.idle(), "goal already satisfied")
    believed = evaluate_progress(view.belief, view.goal)
    ranked = []
    for idx, pred in enumerate(view.goal.predicates):
        if believed.by_predicate[idx] >= pred.count:
            continue
        target_loc = goal_location(pred.relation, pred.target)
        for object_id in sorted(view.belief.facts):
            fact = view.belief.facts[object_id]
            if fact.object_class != pred.object_class or fact.location == target_loc:
                continue
            if fact.location.kind == LOC_AGENT:
                if int(fact.location.ref) != view.agent_id:
                    continue
                distance, where = 0, "already in hand"
            else:
                room = str(view.house.location_room(fact.location))
                distance = view.house.distance(view.observation.room, room)
                where = f"seen at {fact.location.render()}"
            task = MacroTask.fetch(
                pred.object_class, pred.relation, pred.target, object_id=object_id
            )
            ranked.append(((distance, object_id, idx), task, where))
    ranked.sort(key=lambda item: item[0])
    options = [(task, where) for _, task, where in ranked]
    sweep_order = sweep_targets(view.belief, view.house, view.observation.room)
    explore_task = MacroTask.explore(sweep_order[0])
    if options:
        candidate, where = options[0]
        alternatives = []
        for task, _ in options[1:]:
            if task != candidate and task not in alternatives:
                alternatives.append(task)
            if len(alternatives) >= 2:
                break
        if explore_task not in alternatives:
            alternatives.append(explore_task)
        return Proposal(
            view.agent_id, candidate, f"{candidate.object_id} {where}", tuple(alternatives[:3])
        )
    return Proposal(
        view.agent_id,
        explore_task,
        f"no usable goal objects known; sweeping {sweep_order[0]}",
        tuple(MacroTask.explore(room) for room in sweep_order[1:2]),
    )


# One class in two predicates, and two predicates with one key.
REWRITE_GOALS = (
    GoalSpec(
        "Custom",
        (
            GoalPredicate(ON, "plate", "kitchentable", 2),
            GoalPredicate(IN, "plate", "dishwasher", 1),
            GoalPredicate(ON, "fork", "coffeetable", 1),
        ),
    ),
    GoalSpec(
        "Custom",
        (
            GoalPredicate(ON, "plate", "kitchentable", 1),
            GoalPredicate(ON, "plate", "kitchentable", 2),
        ),
    ),
)


class TestProposalRewrite:
    def test_one_pass_ranking_equals_the_sorting_definition(self):
        """Random walks of three agents (so objects sit in other hands),
        thinned beliefs in shuffled insertion order with some facts moved
        onto goal targets, for the catalog goal and REWRITE_GOALS."""
        rng = random.Random(61)
        checked = fetches = 0
        for task in TASKS:
            for seed in range(3):
                state, task_goal = init_world(task, 3, seed)
                for _ in range(24):
                    state, _ = transition(state, random_legal_joint(state, rng))
                    for goal in (task_goal,) + REWRITE_GOALS:
                        targets = [loc for entries in goal.targets.values() for _, loc in entries]
                        facts = []
                        for oid, loc in sorted(state.locations.items()):
                            if rng.random() < 0.25:
                                continue
                            if rng.random() < 0.2:
                                loc = rng.choice(targets)
                            cls = state.house.object_classes[oid]
                            facts.append((oid, Fact(oid, cls, loc, state.tick)))
                        rng.shuffle(facts)
                        belief = Belief(
                            facts=dict(facts),
                            visited_rooms={r: 0 for r in rng.sample(state.house.rooms, 2)},
                            container_flags={},
                        )
                        for agent_id in state.agents:
                            view = make_view(state, goal, agent_id, belief)
                            expected = sorting_heuristic_proposal(view)
                            assert heuristic_proposal(view) == expected
                            checked += 1
                            fetches += len(expected.alternatives) == 3
        assert checked > 2000 and fetches > 500


class TestGrammar:
    def random_task(self, rng, house):
        kind = rng.choice(["idle", "explore", "fetch", "fetch_bound"])
        if kind == "idle":
            return MacroTask.idle()
        if kind == "explore":
            return MacroTask.explore(rng.choice(house.rooms))
        relation = rng.choice([ON, IN])
        target = rng.choice(
            sorted(house.surfaces) if relation == ON else sorted(house.containers)
        )
        if kind == "fetch":
            classes = sorted(set(house.object_classes.values()))
            return MacroTask.fetch(rng.choice(classes), relation, target)
        object_id = rng.choice(sorted(house.object_classes))
        return MacroTask.fetch(
            house.object_classes[object_id], relation, target, object_id=object_id
        )

    def test_round_trip_random_joints(self):
        # A goal with no predicates sets no quota, so random joints stay valid.
        inputs = dataclasses.replace(
            build_inputs("PrepareAMeal", 3, seed=1),
            goal=GoalSpec("none", ()),
            progress=TaskProgress(0, 0, ()),
        )
        rng = random.Random(99)
        for _ in range(200):
            tasks = {}
            used_ids = set()
            for agent_id in inputs.agent_ids():
                task = self.random_task(rng, inputs.house)
                while task.object_id is not None and task.object_id in used_ids:
                    task = self.random_task(rng, inputs.house)
                if task.object_id is not None:
                    used_ids.add(task.object_id)
                tasks[agent_id] = task
            joint = JointAction(tasks=tasks)
            assert parse_allocation(format_allocation(joint), inputs) == joint

    def test_fenced_block_with_surrounding_prose(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        raw = (
            "Here is my assignment, considering everything:\n"
            "```\n1: EXPLORE(kitchen)\n2: IDLE\n```\n"
            "1: this trailing prose must be ignored\n"
        )
        joint = parse_allocation(raw, inputs)
        assert joint.tasks[1] == MacroTask.explore("kitchen")
        assert joint.tasks[2] == MacroTask.idle()

    def test_agent_prefix_and_dot_separator(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        raw = "Agent 1: IDLE\n2. EXPLORE(bedroom)\n"
        joint = parse_allocation(raw, inputs)
        assert joint.tasks[1] == MacroTask.idle()
        assert joint.tasks[2] == MacroTask.explore("bedroom")

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
            parse_task(bad, inputs.house)

    def test_parse_task_accepts_class_and_bound_forms(self):
        inputs = build_inputs("WashDishes", 2, seed=0)
        house = inputs.house
        task = parse_task("fetch(plate, in, dishwasher)", house)
        assert task.object_id is None and task.object_class == "plate"
        bound_id = sorted(house.object_classes)[0]
        bound = parse_task(f"FETCH({bound_id}, ON, kitchentable)", house)
        assert bound.object_id == bound_id

    def test_allocation_unknown_agent(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        with pytest.raises(ResponseParseError):
            parse_allocation("1: IDLE\n2: IDLE\n7: IDLE", inputs)

    def test_allocation_over_long_agent_id(self):
        inputs = build_inputs("PrepareTea", 1, seed=0)
        with pytest.raises(ResponseParseError, match="^unknown agent id 9999") as caught:
            parse_allocation(LONG_ID_REPLY, inputs)
        assert len(str(caught.value)) == NOTE_LIMIT and str(caught.value).endswith("\u2026")

    def test_allocation_duplicate_agent(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        with pytest.raises(ResponseParseError):
            parse_allocation("1: IDLE\n1: EXPLORE(kitchen)\n2: IDLE", inputs)

    def test_allocation_missing_agent(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        with pytest.raises(ResponseParseError):
            parse_allocation("1: IDLE", inputs)

    def test_allocation_double_booked_object(self):
        inputs = build_inputs("WashDishes", 2, seed=0)
        bound_id = sorted(inputs.house.object_classes)[0]
        cls = inputs.house.object_classes[bound_id]
        raw = (
            f"1: FETCH({bound_id}, ON, kitchentable)\n"
            f"2: FETCH({bound_id}, IN, fridge)"
        )
        with pytest.raises(ResponseParseError):
            parse_allocation(raw, inputs)

    def test_allocation_oversubscribed_predicate(self):
        inputs = build_inputs("PrepareTea", 3, seed=0)
        assert remaining_by_predicate(inputs.goal, inputs.progress)[
            (ON, "kettle", "kitchentable")
        ] == 1
        raw = (
            "1: FETCH(kettle, ON, kitchentable)\n"
            "2: FETCH(kettle, ON, kitchentable)\n"
            "3: IDLE"
        )
        with pytest.raises(ResponseParseError):
            parse_allocation(raw, inputs)
        raw = "1: FETCH(kettle, ON, kitchentable)\n2: IDLE\n3: IDLE"
        assert parse_allocation(raw, inputs) is not None

    def test_proposal_lines(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        house = inputs.house
        raw = (
            "why: the kettle is closest\n"
            "propose: FETCH(kettle, ON, kitchentable)\n"
            "alt: EXPLORE(kitchen)\n"
            "alt: explore(kitchen)\n"
            "alt: IDLE\n"
        )
        proposal = parse_proposal(raw, house, agent_id=2)
        assert proposal.agent_id == 2
        assert proposal.candidate.object_class == "kettle"
        assert proposal.alternatives == (MacroTask.explore("kitchen"), MacroTask.idle())
        assert proposal.rationale == "the kettle is closest"

    def test_proposal_requires_propose_line(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        with pytest.raises(ResponseParseError):
            parse_proposal("alt: IDLE\nwhy: nothing", inputs.house, 1)

    def test_proposal_refuses_two_propose_lines(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        with pytest.raises(ResponseParseError, match="multiple propose lines"):
            parse_proposal("propose: IDLE\npropose: IDLE", inputs.house, 1)


# The remote-reply boundary: replies stitched from grammar fragments, the
# house's own names and junk.
_BOUNDARY = build_inputs("PrepareAMeal", 3, seed=0)
_HOUSE = _BOUNDARY.house
_NAMES = sorted(
    {*_HOUSE.rooms, *_HOUSE.surfaces, *_HOUSE.containers, *_HOUSE.object_classes,
     *_HOUSE.object_classes.values()}
)
_WORD = st.one_of(st.sampled_from(_NAMES), st.text(max_size=6))


def _name_or_word(names):
    return st.one_of(st.sampled_from(sorted(names)), _WORD)


_TASK = st.one_of(
    st.sampled_from(["IDLE", "idle", "IDLE()", "DANCE"]),
    st.builds("EXPLORE({})".format, _name_or_word(_HOUSE.rooms)),
    st.builds(
        "FETCH({}, {}, {})".format,
        _name_or_word({*_HOUSE.object_classes, *_HOUSE.object_classes.values()}),
        st.sampled_from(["ON", "IN", "on", "in", "UNDER", ""]),
        _name_or_word({*_HOUSE.surfaces, *_HOUSE.containers}),
    ),
    st.builds("FETCH({})".format, _WORD),
)
_PREFIX = st.sampled_from(
    ["", "propose: ", "alt: ", "why: ", "1: ", "2. ", "agent 3: ", "4: ", "01: ", "x: "]
)
_LINE = st.one_of(
    st.builds("{}{}".format, _PREFIX, _TASK),
    st.lists(
        st.one_of(
            _WORD,
            st.sampled_from(
                ["propose:", "alt:", "FETCH(", "EXPLORE(", ")", ", ", "```", "1:", "\n"]
            ),
        ),
        max_size=8,
    ).map("".join),
)
_PROPOSAL = st.builds(
    "propose: {}\n{}\nwhy: {}".format,
    _TASK,
    st.lists(_TASK, max_size=4).map(lambda tasks: "\n".join(f"alt: {t}" for t in tasks)),
    _WORD,
)
_ASSIGNMENTS = st.lists(_TASK, min_size=3, max_size=3).map(
    lambda tasks: "\n".join(f"{i}: {task}" for i, task in enumerate(tasks, 1))
)
_REPLY = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "```\n", "prose\n```\n"]),
    st.one_of(st.lists(_LINE, max_size=6).map("\n".join), _PROPOSAL, _ASSIGNMENTS),
    st.sampled_from(["", "\n```", "\n```\ntrailing"]),
)


def assert_names_only_the_house(task):
    house = _HOUSE
    if task.kind == "EXPLORE":
        assert task.room in house.rooms
    elif task.kind == "FETCH":
        fixtures = house.surfaces if task.relation == ON else house.containers
        assert task.relation in (ON, IN) and task.target in fixtures
        assert task.object_class in house.object_classes.values()
        if task.object_id is not None:
            assert house.object_classes[task.object_id] == task.object_class
    else:
        assert task == MacroTask.idle()


class TestReplyBoundary:
    @settings(max_examples=400, deadline=None)
    @given(reply=_REPLY)
    @example(reply=LONG_ID_REPLY)
    def test_replies_parse_to_house_names_or_are_refused(self, reply):
        lines = reply.split("\n")
        for text in (reply, *lines, *(line.partition(":")[2] for line in lines)):
            try:
                assert_names_only_the_house(parse_task(text, _HOUSE))
            except ResponseParseError:
                pass
        try:
            proposal = parse_proposal(reply, _HOUSE, agent_id=2)
        except ResponseParseError:
            pass
        else:
            assert proposal.agent_id == 2
            for task in (proposal.candidate, *proposal.alternatives):
                assert_names_only_the_house(task)
        try:
            joint = parse_allocation(reply, _BOUNDARY)
        except ResponseParseError:
            pass
        else:
            assert sorted(joint.tasks) == list(_BOUNDARY.agent_ids())
            for _, task in joint.items():
                assert_names_only_the_house(task)


class TestScore:
    def plate_inputs(self, *agent_specs):
        """agent_specs: (agent_id, room, held, facts, visited, proposal_task)
        with an optional trailing container_flags mapping."""
        object_classes = {"plate_1": "plate", "plate_2": "plate"}
        house = fixture_house(object_classes)
        proposals, beliefs, observations = [], {}, {}
        for agent_id, room, held, facts, visited, task, *rest in agent_specs:
            proposals.append(Proposal(agent_id, task))
            beliefs[agent_id] = Belief(
                facts={f.object_id: f for f in facts},
                visited_rooms=visited,
                container_flags=rest[0] if rest else {},
            )
            observations[agent_id] = fab_observation(agent_id, room, held)
        return AllocationInputs(
            tick=0,
            entries=assemble_context(proposals, beliefs, observations),
            house=house,
            summaries=(),
            progress=TaskProgress(0, 1, (0,)),
            goal=single_plate_goal(),
            team=merge_team_belief([beliefs[i] for i in sorted(beliefs)]),
        )

    def test_relevant_fetch_two_rooms_away_scores_eight(self):
        fact = Fact("plate_1", "plate", Location(LOC_ROOM, "kitchen"), 0)
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        inputs = self.plate_inputs(
            (1, "bedroom", None, [fact], {"bedroom": 0}, task)
        )
        joint = JointAction(tasks={1: task})
        assert score_joint(joint, inputs) == 8

    def test_all_idle_scores_zero(self):
        inputs = self.plate_inputs(
            (1, "kitchen", None, [], {"kitchen": 0}, MacroTask.idle()),
            (2, "bedroom", None, [], {"bedroom": 0}, MacroTask.idle()),
        )
        joint = JointAction(tasks={1: MacroTask.idle(), 2: MacroTask.idle()})
        assert score_joint(joint, inputs) == 0

    def test_second_agent_past_quota_earns_no_relevance(self):
        fact1 = Fact("plate_1", "plate", Location(LOC_ROOM, "kitchen"), 0)
        fact2 = Fact("plate_2", "plate", Location(LOC_ROOM, "kitchen"), 0)
        task = MacroTask.fetch("plate", ON, "kitchentable")
        inputs = self.plate_inputs(
            (1, "livingroom", None, [fact1, fact2], {"livingroom": 0}, task),
            (2, "livingroom", None, [fact1, fact2], {"livingroom": 0}, task),
        )
        joint = JointAction(tasks={1: task, 2: task})
        # agent 1: 10 - 1; agent 2 past the single remaining unit: 0 - 1
        assert score_joint(joint, inputs) == 8

    def test_duplicate_explore_pays_novelty_once(self):
        explore = MacroTask.explore("bathroom")
        inputs = self.plate_inputs(
            (1, "bedroom", None, [], {"bedroom": 0}, explore),
            (2, "livingroom", None, [], {"livingroom": 0}, explore),
        )
        joint = JointAction(tasks={1: explore, 2: explore})
        # both one room out; only agent 1 scores the still-hidden bonus of 3
        assert score_joint(joint, inputs) == 1

    def test_exhausted_room_explore_earns_no_novelty(self):
        # bathroom has no containers, so one visit exhausts it
        explore = MacroTask.explore("bathroom")
        inputs = self.plate_inputs(
            (1, "bathroom", None, [], {"bathroom": 0}, explore),
        )
        joint = JointAction(tasks={1: explore})
        assert score_joint(joint, inputs) == 0

    def test_unopened_containers_keep_room_novel(self):
        explore = MacroTask.explore("kitchen")
        inputs = self.plate_inputs(
            (1, "kitchen", None, [], {"kitchen": 0}, explore),
        )
        joint = JointAction(tasks={1: explore})
        # visited, but the fridge and friends are not believed open
        assert score_joint(joint, inputs) == 3

    def test_all_containers_open_ends_kitchen_novelty(self):
        explore = MacroTask.explore("kitchen")
        flags = {c: (True, 0) for c in ("dishwasher", "fridge", "stove")}
        inputs = self.plate_inputs(
            (1, "kitchen", None, [], {"kitchen": 0}, explore, flags),
        )
        joint = JointAction(tasks={1: explore})
        assert score_joint(joint, inputs) == 0

    def test_object_already_at_target_scores_nothing(self):
        fact = Fact("plate_1", "plate", Location("surface", "kitchentable"), 0)
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        inputs = self.plate_inputs(
            (1, "kitchen", None, [fact], {"kitchen": 0}, task)
        )
        joint = JointAction(tasks={1: task})
        done = dataclasses.replace(inputs, progress=TaskProgress(1, 1, (1,)))
        assert score_joint(joint, done) == 0

    def test_holding_the_object_counts_target_distance(self):
        fact = Fact("plate_1", "plate", Location("agent", "1"), 0)
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        inputs = self.plate_inputs(
            (1, "bathroom", "plate_1", [fact], {"bathroom": 0}, task)
        )
        joint = JointAction(tasks={1: task})
        # relevance 10 minus bathroom -> kitchen travel of 2
        assert score_joint(joint, inputs) == 8

    def test_bound_object_in_another_hand_scores_nothing(self):
        fact = Fact("plate_1", "plate", Location(LOC_AGENT, 2), 0)
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        inputs = self.plate_inputs((1, "bathroom", None, [fact], {"bathroom": 0}, task))
        # agent 2 carries it: no relevance, and no travel is believed
        assert score_joint(JointAction(tasks={1: task}), inputs) == 0

    def test_bound_object_not_believed_anywhere_stays_relevant(self):
        task = MacroTask.fetch("plate", ON, "kitchentable", object_id="plate_1")
        inputs = self.plate_inputs((1, "bathroom", None, [], {"bathroom": 0}, task))
        # unknown position: relevance 10, travel costs nothing
        assert score_joint(JointAction(tasks={1: task}), inputs) == 10

    def test_class_with_every_instance_placed_or_carried_scores_nothing(self):
        placed = Fact("plate_1", "plate", Location(LOC_SURFACE, "kitchentable"), 0)
        carried = Fact("plate_2", "plate", Location(LOC_AGENT, 2), 0)
        task = MacroTask.fetch("plate", ON, "kitchentable")
        inputs = self.plate_inputs(
            (1, "bathroom", None, [placed, carried], {"bathroom": 0}, task)
        )
        assert score_joint(JointAction(tasks={1: task}), inputs) == 0

    def test_class_fetch_counts_both_legs_to_the_chased_instance(self):
        placed = Fact("plate_1", "plate", Location(LOC_SURFACE, "kitchentable"), 0)
        loose = Fact("plate_2", "plate", Location(LOC_ROOM, "bedroom"), 0)
        task = MacroTask.fetch("plate", ON, "kitchentable")
        inputs = self.plate_inputs(
            (1, "bathroom", None, [placed, loose], {"bathroom": 0}, task)
        )
        # relevance 10 minus bathroom -> bedroom (1) and bedroom -> kitchen (2)
        assert score_joint(JointAction(tasks={1: task}), inputs) == 7


class TestAllocator:
    @pytest.mark.parametrize("task,num_agents,seed,drop", INSTANCE_GRID)
    def test_matches_exhaustive_argmax(self, task, num_agents, seed, drop):
        inputs = build_inputs(task, num_agents, seed, drop)
        assert heuristic_allocation(inputs) == exhaustive_argmax(inputs)

    @pytest.mark.parametrize("task,num_agents,seed,drop", INSTANCE_GRID[::3])
    def test_allocation_covers_agents_conflict_free(self, task, num_agents, seed, drop):
        inputs = build_inputs(task, num_agents, seed, drop)
        joint = heuristic_allocation(inputs)
        assert [aid for aid, _ in joint.items()] == list(inputs.agent_ids())
        remaining = remaining_by_predicate(inputs.goal, inputs.progress)
        assert check_conflicts(joint, remaining) == []

    def test_search_leaves_no_reference_cycle(self):
        # Cyclic garbage waits for the collector, whose passes every later
        # tick pays for; an allocation must free all it made as it returns.
        instances = [
            build_inputs(task, num_agents, seed, drop)
            for task, num_agents, seed, drop in INSTANCE_GRID
        ]
        gc.collect()
        gc.disable()
        try:
            for inputs in instances:
                heuristic_allocation(inputs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_enumeration_matches_product_filter(self):
        inputs = build_inputs("SetUpTable", 3, seed=4, drop_rate=0.3)
        assert enumerate_joint_space(inputs) == conflict_free_joints(inputs)

    def test_structured_backend_equals_heuristic(self):
        inputs = build_inputs("PutGroceries", 2, seed=7)
        via_backend = allocate(HeuristicReasoner(), inputs)
        assert via_backend == heuristic_allocation(inputs)

    def test_text_backend_honors_valid_response(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        forced = JointAction(
            tasks={1: MacroTask.idle(), 2: MacroTask.explore("bathroom")}
        )
        scripted = ScriptedReasoner(
            {(ALLOCATE, inputs.tick, 1): [format_allocation(forced)]}
        )
        joint, report = allocate_with_report(scripted, inputs)
        assert joint == forced
        assert report.attempts == 1 and not report.degraded

    def test_text_backend_retries_then_falls_back(self):
        inputs = build_inputs("PrepareTea", 2, seed=0)
        key = (ALLOCATE, inputs.tick, 1)
        scripted = ScriptedReasoner(
            {key: ["no structure", "1: DANCE()\n2: IDLE", "still nothing"]}
        )
        joint, report = allocate_with_report(scripted, inputs)
        assert report.degraded and report.attempts == 3
        with pytest.raises(FixtureExhausted):
            scripted.invoke(ReasonerRequest(ALLOCATE, None, tick=key[1], agent_id=key[2]))
        assert joint == heuristic_allocation(inputs)

    def test_text_backend_conflicting_then_valid(self):
        inputs = build_inputs("WashDishes", 2, seed=1)
        bound_id = sorted(inputs.house.object_classes)[0]
        conflicting = (
            f"1: FETCH({bound_id}, IN, dishwasher)\n"
            f"2: FETCH({bound_id}, IN, dishwasher)"
        )
        valid = "1: IDLE\n2: IDLE"
        scripted = ScriptedReasoner(
            {(ALLOCATE, inputs.tick, 1): [conflicting, valid]}
        )
        joint, report = allocate_with_report(scripted, inputs)
        assert report.attempts == 2 and not report.degraded
        assert joint.tasks[2] == MacroTask.idle()

    def test_text_backend_over_long_agent_id_falls_back(self):
        inputs = build_inputs("PrepareTea", 1, seed=0)
        scripted = ScriptedReasoner(
            {(ALLOCATE, inputs.tick, 1): [LONG_ID_REPLY] * 3}
        )
        joint, report = allocate_with_report(scripted, inputs)
        assert report.degraded and report.attempts == 3
        assert report.note.startswith("unknown agent id 9999")
        assert len(report.note) <= NOTE_LIMIT
        assert joint == heuristic_allocation(inputs)

    def test_remote_error_falls_back_degraded(self):
        class ExplodingReasoner(Reasoner):
            name = "exploding"
            produces = TEXT

            def invoke(self, request):
                raise RemoteBackendError("endpoint unreachable")

        inputs = build_inputs("SetUpTable", 2, seed=3)
        joint, report = allocate_with_report(ExplodingReasoner(), inputs)
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

    def test_exhausted_budget_degrades_to_the_heuristic_proposal(self):
        state, goal = init_world("PrepareTea", 2, seed=0)
        view = make_view(state, goal, 1, Belief.empty())
        scripted = ScriptedReasoner(
            {(PROPOSE, view.tick, 1): ["bad", "bad", "bad"]}
        )
        proposal = make_proposal(scripted, view)
        assert proposal.degraded
        assert proposal.candidate == MacroTask.explore("livingroom")
        with pytest.raises(FixtureExhausted):
            scripted.invoke(ReasonerRequest(PROPOSE, None, tick=view.tick, agent_id=1))


class TestContext:
    def test_entry_of_an_absent_agent_is_a_key_error(self):
        inputs = build_inputs("PrepareAMeal", 2, seed=0)
        assert inputs.entry(2).agent_id == 2
        with pytest.raises(KeyError, match="agent 3 not in context"):
            inputs.entry(3)

    def test_entries_sorted_with_digests(self):
        inputs = build_inputs("PrepareAMeal", 3, seed=2)
        assert inputs.agent_ids() == (1, 2, 3)
        prompts = []

        class CapturingReasoner(Reasoner):
            name = "capturing"
            produces = TEXT

            def invoke(self, request):
                prompts.append(request.rendered_prompt)
                raise RemoteBackendError("no reply")

        allocate_with_report(CapturingReasoner(), inputs)
        blocks = prompts[0].split("\n### agent ")[1:]
        assert [block.split("\n")[0] for block in blocks] == ["1", "2", "3"]
        for agent_id, block in zip((1, 2, 3), blocks):
            assert "\n  goal objects: " in block
            assert f"\n  observation: agent {agent_id} in " in block

    def test_remaining_by_predicate_counts_down(self):
        state, goal = init_world("WashDishes", 1, seed=0)
        start = remaining_by_predicate(goal, evaluate_progress(state, goal))
        assert sum(start.values()) == goal.total_units
        done = remaining_by_predicate(
            goal, TaskProgress(goal.total_units, goal.total_units,
                               tuple(p.count for p in goal.predicates))
        )
        assert all(v == 0 for v in done.values())


class TestInternedTasks:
    """fetch, explore and idle share one instance per distinct task; tasks
    still compare and hash by value, so a directly built twin is the same
    task everywhere."""

    def test_fetch_returns_one_shared_instance(self):
        first = MacroTask.fetch("cup", ON, "kitchentable", object_id="cup_1")
        assert MacroTask.fetch("cup", ON, "kitchentable", object_id="cup_1") is first
        assert MacroTask.explore("kitchen") is MacroTask.explore("kitchen")
        assert MacroTask.idle() is MacroTask.idle()

    def test_shared_instance_equals_and_hashes_like_a_built_one(self):
        shared = MacroTask.fetch("cup", ON, "kitchentable", object_id="cup_1")
        built = MacroTask("FETCH", "cup", "cup_1", ON, "kitchentable")
        assert built is not shared
        assert built == shared and hash(built) == hash(shared)
        assert MacroTask("EXPLORE", room="kitchen") == MacroTask.explore("kitchen")
        assert MacroTask("IDLE") == MacroTask.idle()

    def test_parsed_task_is_the_heuristics_instance(self):
        state, goal = init_world("PrepareTea", 1, seed=0)
        parsed = parse_task("FETCH(cup_1, ON, kitchentable)", state.house)
        assert parsed is MacroTask.fetch("cup", ON, "kitchentable", object_id="cup_1")
        proposal = heuristic_proposal(make_view(state, goal, 1))
        for task in (proposal.candidate, *proposal.alternatives):
            assert parse_task(task.render(), state.house) is task

    def test_shared_instance_stays_frozen(self):
        task = MacroTask.fetch("cup", ON, "kitchentable", object_id="cup_1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.target = "sink"
        assert task == MacroTask.fetch("cup", ON, "kitchentable", object_id="cup_1")

    def test_options_dedupe_a_built_task_with_its_shared_twin(self):
        built = MacroTask("FETCH", "cup", "cup_1", ON, "kitchentable")
        shared = MacroTask.fetch("cup", ON, "kitchentable", object_id="cup_1")
        proposal = Proposal(1, built, "why", (shared, MacroTask("IDLE")))
        entry = ContextEntry(1, proposal, Belief.empty(), fab_observation(1, "kitchen"))
        options = _agent_options(entry)
        assert options == [shared, MacroTask.idle()]
        assert options[0] is built

    def test_cache_holds_only_the_house_vocabulary(self, monkeypatch):
        # lru_cache keeps every distinct argument tuple for the life of the
        # process, so the factory must see nothing but house names.
        built = []
        real = execution.MacroTask

        def recording(*fields):
            built.append(real(*fields))
            return built[-1]

        execution._interned.cache_clear()
        monkeypatch.setattr(execution, "MacroTask", recording)
        for task in TASKS:
            for variant in ("full", "no_allocation"):
                use_allocation, use_summaries = VARIANTS[variant]
                for num_agents in (1, 2, 3):
                    for seed in range(4):
                        run_episode(EpisodeConfig(
                            task, num_agents, seed,
                            use_allocation=use_allocation, use_summaries=use_summaries,
                        ))
        catalog = load_catalog()
        classes = {p["object_class"] for t in catalog["tasks"].values() for p in t["goal"]}
        classes |= set(catalog["distractor_classes"])
        counts = {}
        for entry in catalog["tasks"].values():
            for p in entry["goal"]:
                key = (p["relation"], p["object_class"], p["target"])
                counts[key] = max(counts.get(key, 0), p["count"])
        # Idle, one sweep per room, and per goal predicate its unbound fetch
        # plus one bound fetch per instance (the count and one spare).
        bound = 1 + len(catalog["rooms"]) + sum(count + 2 for count in counts.values())
        info = execution._interned.cache_info()
        assert info.currsize == len(built) == len(set(built))
        assert 0 < info.currsize <= bound
        fixtures = {ON: catalog["surfaces"], IN: catalog["containers"]}
        for task in built:
            if task.kind == "EXPLORE":
                assert task.room in catalog["rooms"]
            elif task.kind == "FETCH":
                assert task.object_class in classes
                assert task.target in fixtures[task.relation]
                if task.object_id is not None:
                    assert re.fullmatch(re.escape(task.object_class) + r"_[1-9][0-9]*", task.object_id)
            else:
                assert task == real("IDLE")
