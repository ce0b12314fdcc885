"""End-to-end acceptance suite: one test per shipped guarantee.

Covered, in order: efficiency-improvement arithmetic anchors; allocator
equality with an exhaustive argmax on 1000 randomized instances; conflict
freedom on 500 contention-heavy instances; the same two checks on teams of
4-6 with the team-size cap lifted for the test; summary intervals partitioning
the acted history; pinned golden trace digests; the same digests with every
text renderer made to raise, so heuristic episodes build no prompt or digest
text; larger teams finishing faster; ablation ordering; exact replay of
recorded remote traces; a stub-backed remote episode end to end; and a
concurrent remote round that records the same trace as a sequential one.
Each test prints one "acceptance <name>: PASS|FAIL" line.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import sys
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Optional

import pytest

from stubserver import approve_candidates, completion, propose_goal_objects
from homecrew.agents import Belief, Fact, MacroTask
from homecrew.coordination import (
    JointAction,
    Proposal,
    AllocationInputs,
    assemble_context,
    heuristic_allocation,
    remaining_by_predicate,
    score_joint,
)
from homecrew.harness import (
    EpisodeConfig,
    RemoteConfig,
    replay_trace,
    run_episode,
)
from homecrew.harness.metrics import compute_ei
from homecrew.harness.trace import action_stream, render_trace, trace_sha256
from homecrew.reasoner import PROPOSE, RemoteReasoner
from homecrew.summaries import CollaborativeSummary
from homecrew.world import (
    evaluate_progress,
    init_world,
    legal_actions,
    observe,
    scenarios,
    transition,
)

TASKS = ("PrepareAMeal", "PrepareTea", "PutGroceries", "SetUpTable", "WashDishes")

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_hashes.json")

# Mirrors scripts/update_goldens.py; change both together.
GOLDEN_CONFIGS = (
    EpisodeConfig(task="WashDishes", num_agents=2, seed=0),
    EpisodeConfig(task="PrepareTea", num_agents=1, seed=1),
    EpisodeConfig(task="PrepareAMeal", num_agents=3, seed=2),
    EpisodeConfig(task="SetUpTable", num_agents=2, seed=3, use_summaries=False),
    EpisodeConfig(task="PutGroceries", num_agents=3, seed=4, use_allocation=False),
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"acceptance {name}: FAIL")
        raise
    print(f"acceptance {name}: PASS")


# ---------------------------------------------------------------- generators


def random_instance(
    rng: random.Random, contentious: bool = False, num_agents: Optional[int] = None
) -> AllocationInputs:
    """A full allocation instance over a randomized world: thinned beliefs,
    synthetic proposals with up to three alternatives each. Contentious mode
    points every agent at the same bound object and goal slot. The team size
    is drawn (1-3, or 2-3 when contentious) unless num_agents pins it."""
    task = rng.choice(TASKS)
    if num_agents is None:
        num_agents = rng.randint(2, 3) if contentious else rng.randint(1, 3)
    state, goal = init_world(task, num_agents, rng.randrange(10**6))
    for _ in range(rng.randint(0, 4)):
        joint = {
            i: rng.choice(sorted(legal_actions(state, i), key=lambda a: a.render()))
            for i in state.agents
        }
        state, _ = transition(state, joint)
    house = state.house
    rooms = list(house.rooms)
    surfaces = sorted(house.surfaces)
    containers = sorted(house.containers)
    by_class = {}
    for object_id, object_class in house.object_classes.items():
        by_class.setdefault(object_class, []).append(object_id)

    def goal_fetch() -> MacroTask:
        pred = rng.choice(goal.predicates)
        bound = rng.random() < 0.6
        object_id = rng.choice(sorted(by_class[pred.object_class])) if bound else None
        return MacroTask.fetch(pred.object_class, pred.relation, pred.target, object_id)

    def off_goal_fetch() -> MacroTask:
        object_class = rng.choice(sorted(set(house.object_classes.values())))
        if containers and rng.random() < 0.5:
            return MacroTask.fetch(object_class, "IN", rng.choice(containers))
        return MacroTask.fetch(object_class, "ON", rng.choice(surfaces))

    def random_task() -> MacroTask:
        roll = rng.random()
        if roll < 0.5:
            return goal_fetch()
        if roll < 0.65:
            return off_goal_fetch()
        if roll < 0.9:
            return MacroTask.explore(rng.choice(rooms))
        return MacroTask.idle()

    if contentious:
        pred = rng.choice(goal.predicates)
        instances = sorted(by_class[pred.object_class])
        hot = rng.choice(instances)
        shared_pool = [
            MacroTask.fetch(pred.object_class, pred.relation, pred.target, hot),
            MacroTask.fetch(pred.object_class, pred.relation, pred.target),
            MacroTask.explore(rng.choice(rooms)),
        ]
        if len(instances) > 1:
            shared_pool.append(
                MacroTask.fetch(
                    pred.object_class, pred.relation, pred.target, instances[1]
                )
            )

    beliefs, observations, proposals = {}, {}, []
    for agent_id in sorted(state.agents):
        drop = rng.random() * 0.7
        facts = {
            object_id: Fact(object_id, object_class, location, state.tick)
            for object_id, object_class, location in state.object_placements()
            if rng.random() >= drop
        }
        visited = rng.sample(rooms, rng.randint(0, len(rooms)))
        beliefs[agent_id] = Belief(
            facts=facts,
            visited_rooms={room: state.tick for room in visited},
            container_flags={},
        )
        observations[agent_id] = observe(state, agent_id)
        if contentious:
            candidate = shared_pool[0]
            alternatives = tuple(
                rng.sample(shared_pool, rng.randint(0, min(3, len(shared_pool))))
            )
        else:
            candidate = random_task()
            alternatives = tuple(random_task() for _ in range(rng.randint(0, 3)))
        proposals.append(
            Proposal(
                agent_id=agent_id,
                candidate=candidate,
                rationale="synthetic",
                alternatives=alternatives,
            )
        )
    context = assemble_context(proposals, beliefs, observations, house)
    return AllocationInputs(
        context=context,
        summaries=CollaborativeSummary.empty(),
        progress=evaluate_progress(state, goal),
        goal=goal,
    )


# ------------------------------------------------------- independent oracles


def conflict_violations(joint: JointAction, remaining) -> list:
    """Re-stated conflict rules: one agent per bound object, and no goal
    predicate loaded past its remaining unit count."""
    violations = []
    owners = {}
    load = {}
    for agent_id, task in sorted(joint.tasks.items()):
        if task.object_id is not None:
            owners.setdefault(task.object_id, []).append(agent_id)
        key = task.predicate_key()
        if key is not None:
            load[key] = load.get(key, 0) + 1
    for object_id, agents in sorted(owners.items()):
        if len(agents) > 1:
            violations.append(f"object {object_id} double-booked by {agents}")
    for key, count in sorted(load.items()):
        if key in remaining and count > remaining[key]:
            violations.append(f"predicate {key} oversubscribed: {count}")
    return violations


def exhaustive_argmax(inputs: AllocationInputs) -> JointAction:
    """Own product loop, own option listing, own conflict filter; first
    strict maximum in the same canonical order the engine documents."""
    context = inputs.context
    remaining = remaining_by_predicate(inputs.goal, inputs.progress)
    agent_ids = [entry.agent_id for entry in context.entries]
    pools = []
    for entry in context.entries:
        pool = [entry.proposal.candidate]
        for alternative in entry.proposal.alternatives[:3]:
            if alternative not in pool:
                pool.append(alternative)
        if MacroTask.idle() not in pool:
            pool.append(MacroTask.idle())
        pools.append(pool)
    best, best_score = None, None
    for combo in itertools.product(*pools):
        joint = JointAction(tasks=dict(zip(agent_ids, combo)))
        if conflict_violations(joint, remaining):
            continue
        score = score_joint(joint, context, inputs.progress, inputs.goal)
        if best is None or score > best_score:
            best, best_score = joint, score
    return best


@lru_cache(maxsize=None)
def mean_steps(task: str, num_agents: int, use_allocation: bool, use_summaries: bool):
    steps = []
    for seed in range(20):
        result = run_episode(
            EpisodeConfig(
                task=task,
                num_agents=num_agents,
                seed=seed,
                use_allocation=use_allocation,
                use_summaries=use_summaries,
            )
        )
        assert result.success, f"{task} a{num_agents} s{seed} did not finish"
        steps.append(result.steps)
    return sum(steps) / len(steps)


def remote_episode_config(stub, **overrides):
    base = dict(
        task="WashDishes",
        num_agents=2,
        seed=1,
        manager_backend="remote",
        member_backend="heuristic",
        max_steps=60,
        remote=RemoteConfig(
            endpoint_url=stub.url,
            model="house-7b",
            timeout_s=5.0,
            transport_retries=1,
        ),
    )
    base.update(overrides)
    return EpisodeConfig(**base)


# -------------------------------------------------------------------- tests


def test_efficiency_improvement_anchors():
    with criterion("efficiency improvement anchors"):
        assert compute_ei(106.1, 34.4) == 68
        assert compute_ei(106.1, 82.7) == 22
        assert compute_ei(12.0, 12.0) == 0


def test_allocator_matches_exhaustive_argmax_on_random_instances():
    rng = random.Random(41)
    with criterion("allocator equals exhaustive argmax on 1000 instances"):
        for trial in range(1000):
            inputs = random_instance(rng)
            assert heuristic_allocation(inputs) == exhaustive_argmax(inputs), (
                f"trial {trial} diverged"
            )


def test_contended_allocations_stay_conflict_free():
    rng = random.Random(42)
    with criterion("500 contended allocations conflict-free"):
        for trial in range(500):
            inputs = random_instance(rng, contentious=True)
            joint = heuristic_allocation(inputs)
            remaining = remaining_by_predicate(inputs.goal, inputs.progress)
            assert conflict_violations(joint, remaining) == [], f"trial {trial}"
            assert sorted(joint.tasks) == sorted(inputs.context.agent_ids())


def test_allocator_stays_exact_on_larger_teams(monkeypatch):
    # Teams past the shipped cap: the search must still equal the flat scan.
    monkeypatch.setattr(scenarios, "MAX_AGENTS", 6)
    rng = random.Random(43)
    with criterion("allocator equals exhaustive argmax on teams of 4-6"):
        for trial in range(120):
            inputs = random_instance(rng, num_agents=4 + trial % 2)
            assert heuristic_allocation(inputs) == exhaustive_argmax(inputs), (
                f"trial {trial} diverged"
            )
        for trial in range(8):
            inputs = random_instance(rng, num_agents=6)
            joint = heuristic_allocation(inputs)
            remaining = remaining_by_predicate(inputs.goal, inputs.progress)
            assert conflict_violations(joint, remaining) == [], f"trial {trial}"
            assert sorted(joint.tasks) == sorted(inputs.context.agent_ids())
            assert joint == exhaustive_argmax(inputs), f"trial {trial} diverged"
        for trial in range(60):
            inputs = random_instance(rng, contentious=True, num_agents=4 + trial % 3)
            joint = heuristic_allocation(inputs)
            remaining = remaining_by_predicate(inputs.goal, inputs.progress)
            assert conflict_violations(joint, remaining) == [], f"trial {trial}"
            assert sorted(joint.tasks) == sorted(inputs.context.agent_ids())


def check_partition(records) -> None:
    ticks = [r for r in records if r["type"] == "tick"]
    summaries = [r for r in records if r["type"] == "summary"]
    end = next(r for r in records if r["type"] == "end")
    assert [r["tick"] for r in ticks] == list(range(1, len(ticks) + 1))
    satisfied = {0: 0}
    satisfied.update({r["tick"]: r["satisfied"] for r in ticks})
    change_ticks = [
        r["tick"] for r in ticks if satisfied[r["tick"]] != satisfied[r["tick"] - 1]
    ]
    # one summary per progress-change tick, in order
    assert [s["tick"] for s in summaries] == change_ticks
    assert [s["index"] for s in summaries] == list(range(1, len(summaries) + 1))
    assert end["summaries"] == len(summaries)
    # intervals tile (0, last-change tick] with no gap or overlap
    lower = 0
    for summary in summaries:
        start, stop = summary["interval"]
        assert start == lower
        assert stop == summary["tick"] > start
        assert summary["delta"] == satisfied[stop] - satisfied[start]
        lower = stop
    if change_ticks:
        last = change_ticks[-1]
        assert lower == last
        intervals = [tuple(s["interval"]) for s in summaries]
        for tick in range(1, last + 1):
            assert sum(1 for a, b in intervals if a < tick <= b) == 1
        assert sum(b - a for a, b in intervals) == last


def test_summary_intervals_partition_history():
    with criterion("summary intervals partition the acted history"):
        episodes = 0
        for task in TASKS:
            for num_agents in (1, 2, 3):
                for seed in (0, 1, 2, 3):
                    result = run_episode(
                        EpisodeConfig(task=task, num_agents=num_agents, seed=seed)
                    )
                    assert result.num_summaries >= 1
                    check_partition(result.records)
                    episodes += 1
        assert episodes >= 50


def golden_key(config):
    return f"{config.task}_{config.variant}_a{config.num_agents}_s{config.seed}"


def test_golden_traces_stay_pinned():
    with criterion("golden trace digests"):
        with open(GOLDEN_PATH) as handle:
            stored = json.load(handle)
        assert len(stored) == len(GOLDEN_CONFIGS) == 5
        for config in GOLDEN_CONFIGS:
            key = golden_key(config)
            first = run_episode(config)
            second = run_episode(config)
            assert render_trace(list(first.records)) == render_trace(
                list(second.records)
            )
            assert trace_sha256(list(first.records)) == stored[key], key


# Everything that turns beliefs, observations, history or a payload into text.
TEXT_RENDERERS = (
    "render_prompt",
    "render_belief",
    "render_observation",
    "render_history",
    "belief_digest",
)


def test_heuristic_episodes_render_no_text(monkeypatch):
    with criterion("heuristic episodes render no text"):

        def refuse(*args, **kwargs):
            raise AssertionError("a heuristic episode rendered text")

        patched = set()
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] != "homecrew" or module is None:
                continue
            for attr in TEXT_RENDERERS:
                if callable(getattr(module, attr, None)):
                    monkeypatch.setattr(module, attr, refuse)
                    patched.add(attr)
        assert patched == set(TEXT_RENDERERS)
        with open(GOLDEN_PATH) as handle:
            stored = json.load(handle)
        for config in GOLDEN_CONFIGS:
            result = run_episode(config)
            assert trace_sha256(list(result.records)) == stored[golden_key(config)]


def test_larger_teams_cut_mean_steps():
    with criterion("three agents beat one on every task"):
        for task in TASKS:
            solo = mean_steps(task, 1, True, True)
            trio = mean_steps(task, 3, True, True)
            assert trio < solo, f"{task}: {trio} !< {solo}"


def test_ablations_rank_as_shipped():
    with criterion("ablation ordering: allocation off hurts most"):
        for task in TASKS:
            full = mean_steps(task, 2, True, True)
            no_summary = mean_steps(task, 2, True, False)
            no_allocation = mean_steps(task, 2, False, True)
            assert full <= no_summary, f"{task}: {full} !<= {no_summary}"
            assert full < no_allocation, f"{task}: {full} !< {no_allocation}"
            assert no_summary < no_allocation, f"{task}: {no_summary} !< {no_allocation}"


def test_remote_trace_replay_is_exact(stub):
    stub.policy = approve_candidates
    with criterion("recorded remote trace replays exactly"):
        recorded = run_episode(remote_episode_config(stub))
        replayed, ok, message = replay_trace(list(recorded.records))
        assert ok, message
        assert replayed.steps == recorded.steps
        assert action_stream(list(replayed.records)) == action_stream(
            list(recorded.records)
        )


def test_stub_remote_episode_end_to_end(stub):
    stub.policy = approve_candidates
    with criterion("stub-backed remote episode end to end"):
        result = run_episode(remote_episode_config(stub))
        assert result.success
        assert result.num_summaries >= 1
        assert result.degraded_exchanges == 0
        allocations = [r for r in result.records if r["type"] == "allocation"]
        assert allocations
        assert all(r["mode"] == "centralized" for r in allocations)
        # malformed manager responses must degrade gracefully, not abort
        garbage = (200, completion("no assignment here"))
        stub.replies = [garbage, garbage, garbage]
        degraded_run = run_episode(remote_episode_config(stub))
        assert degraded_run.success
        assert degraded_run.degraded_exchanges >= 1


class CrashingReasoner(RemoteReasoner):
    """A remote backend whose call for one agent's proposal raises."""

    def invoke(self, request):
        if (request.kind, request.tick, request.agent_id) == (PROPOSE, 2, 2):
            raise RuntimeError("backend crashed")
        return super().invoke(request)


def test_concurrent_remote_round_matches_sequential(stub):
    stub.policy = propose_goal_objects
    stub.delay_s = 0.01
    with criterion("concurrent remote round matches sequential"):
        base = remote_episode_config(stub, num_agents=3, member_backend="remote")
        digests, peaks = {}, {}
        for limit in (1, 4):
            config = dataclasses.replace(
                base, remote=dataclasses.replace(base.remote, max_concurrency=limit)
            )
            stub.max_in_flight = 0
            # Frequent thread switches shake out any order the trace might
            # take from which call finished first.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                result = run_episode(config)
            finally:
                sys.setswitchinterval(interval)
            peaks[limit] = stub.max_in_flight
            records = list(result.records)
            digests[limit] = trace_sha256(records)
            assert result.success and result.num_summaries >= 1
            assert result.degraded_exchanges == 0
            replayed, ok, message = replay_trace(records)
            assert ok, message
        assert digests[1] == digests[4]
        assert peaks[1] == 1
        assert 2 <= peaks[4] <= 4

        crashing = CrashingReasoner(stub.url, "house-7b")
        try:
            with pytest.raises(RuntimeError, match="backend crashed"):
                run_episode(config, crashing, crashing)
        finally:
            crashing.close()
        assert not [
            t for t in threading.enumerate() if t.name.startswith("homecrew-round")
        ]
