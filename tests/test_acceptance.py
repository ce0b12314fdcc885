"""End-to-end acceptance suite: one test per shipped guarantee.

Covered, in order: efficiency-improvement arithmetic anchors; allocator
equality with an exhaustive argmax on 1000 randomized instances; conflict
freedom on 500 contention-heavy instances; the same two checks on teams of
4-6 with the team-size cap lifted for the test; summary intervals partitioning
the acted history; pinned golden trace digests and one digest over a
240-episode grid, the golden digests also recomputed in fresh interpreters
under two PYTHONHASHSEED values; pinned prompt digests of episodes whose
manager and members answer as text; the same digests with every text
renderer made to raise, so heuristic episodes build no prompt or digest
text; one team-belief merge per tick, reused by the allocator for teams of
1-6; larger teams finishing faster; ablation ordering; exact replay of
recorded remote traces; episodes under an adversarial text backend that run,
say why each allocation degraded and replay record for record; episodes
whose text backend answers as the heuristic, which write the heuristic's
records; episodes whose manager, members or both get no usable reply, which
decide as the heuristic; a stub-backed remote episode end to end, and one
whose endpoint refuses every request; and a concurrent remote round that
records the same trace as a sequential one.
Each test prints one "acceptance <name>: PASS|FAIL" line.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracle import conflict_violations, exhaustive_argmax
from stubserver import approve_candidates, completion, propose_goal_objects, unavailable
import update_goldens as goldens
from walks import random_legal_joint
from homecrew.agents.belief import Belief, Fact, merge_team_belief, perceive
from homecrew.agents.execution import MacroTask
from homecrew.coordination.allocate import assemble_context, heuristic_allocation
from homecrew.coordination.types import (
    AllocationInputs,
    Proposal,
    remaining_by_predicate,
)
from homecrew.errors import NOTE_LIMIT, ContractViolation, RemoteBackendError
from homecrew.harness import episode as episode_module
from homecrew.harness.config import VARIANTS, EpisodeConfig, RemoteConfig, variant_flags
from homecrew.harness.episode import replay_trace, run_episode
from homecrew.harness.metrics import compute_ei
from homecrew.harness.trace import render_line, render_trace, trace_sha256
from homecrew.reasoner.base import ALLOCATE, PROPOSE, SUMMARIZE, TEXT, Reasoner
from homecrew.reasoner.heuristic import HeuristicReasoner
from homecrew.reasoner.remote import TRANSPORT_RETRIES, RemoteReasoner
from homecrew.world import scenarios
from homecrew.world.engine import evaluate_progress, observe, room_sightings, transition
from homecrew.world.scenarios import init_world

TASKS = ("PrepareAMeal", "PrepareTea", "PutGroceries", "SetUpTable", "WashDishes")

# The pinned episodes, the capture backend and the file paths are the ones
# scripts/update_goldens.py writes the digests with.
GOLDEN_PATH = goldens.OUT_PATH
GOLDEN_CONFIGS = goldens.GOLDEN_CONFIGS


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
        state, _ = transition(state, random_legal_joint(state, rng))
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
            object_id: Fact(object_id, house.object_classes[object_id], location, state.tick)
            for object_id, location in sorted(state.locations.items())
            if rng.random() >= drop
        }
        visited = rng.sample(rooms, rng.randint(0, len(rooms)))
        beliefs[agent_id] = Belief(
            facts=facts,
            visited_rooms={room: state.tick for room in visited},
            container_flags={},
        )
        observations[agent_id] = observe(state, agent_id, room_sightings(state))
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
    return AllocationInputs(
        tick=state.tick,
        entries=assemble_context(proposals, beliefs, observations),
        house=house,
        summaries=(),
        progress=evaluate_progress(state, goal),
        goal=goal,
        team=merge_team_belief([beliefs[i] for i in sorted(beliefs)]),
    )


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
            assert sorted(joint.tasks) == sorted(inputs.agent_ids())


def test_allocator_stays_exact_on_larger_teams():
    # Teams past the shipped cap, which only EpisodeConfig enforces: the
    # search must still equal the flat scan.
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
            assert sorted(joint.tasks) == sorted(inputs.agent_ids())
            assert joint == exhaustive_argmax(inputs), f"trial {trial} diverged"
        for trial in range(60):
            inputs = random_instance(rng, contentious=True, num_agents=4 + trial % 3)
            joint = heuristic_allocation(inputs)
            remaining = remaining_by_predicate(inputs.goal, inputs.progress)
            assert conflict_violations(joint, remaining) == [], f"trial {trial}"
            assert sorted(joint.tasks) == sorted(inputs.agent_ids())


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
                    assert result.end["summaries"] >= 1
                    check_partition(result.records)
                    episodes += 1
        assert episodes >= 50


def test_golden_traces_stay_pinned():
    with criterion("golden trace digests"):
        with open(GOLDEN_PATH) as handle:
            stored = json.load(handle)
        assert len(stored) == len(GOLDEN_CONFIGS) == 5
        for config in GOLDEN_CONFIGS:
            key = config.key
            first = run_episode(config)
            second = run_episode(config)
            assert render_trace(list(first.records)) == render_trace(
                list(second.records)
            )
            assert trace_sha256(list(first.records)) == stored[key], key
        with open(goldens.GRID_PATH) as handle:
            assert goldens.grid_digest() == json.load(handle)


def test_golden_traces_ignore_the_hash_seed():
    with criterion("golden trace digests under two hash seeds"):
        with open(GOLDEN_PATH) as handle:
            stored = json.load(handle)
        script = (
            "import importlib.util, json, sys\n"
            "spec = importlib.util.spec_from_file_location('update_goldens', sys.argv[1])\n"
            "goldens = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(goldens)\n"
            "from homecrew.harness.episode import run_episode\n"
            "from homecrew.harness.trace import trace_sha256\n"
            "print(json.dumps({config.key: trace_sha256(list(run_episode(config).records))\n"
            "                  for config in goldens.GOLDEN_CONFIGS}))\n"
        )
        for seed in ("0", "12345"):
            done = subprocess.run(
                [sys.executable, "-c", script, goldens.__file__],
                env=dict(os.environ, PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert json.loads(done.stdout) == stored, seed


def test_text_prompts_stay_pinned():
    with criterion("prompt digests of text-backend episodes"):
        with open(goldens.PROMPT_PATH) as handle:
            stored = json.load(handle)
        fresh = {
            config.key: goldens.prompt_digests(config)
            for config in goldens.PROMPT_CONFIGS
        }
        assert fresh == stored
        for kind in (PROPOSE, ALLOCATE, SUMMARIZE):
            assert sum(digests[kind]["prompts"] for digests in fresh.values()) > 0, kind


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
            assert trace_sha256(list(result.records)) == stored[config.key]


def test_episodes_parse_no_catalog(monkeypatch):
    with criterion("the embedded catalog is parsed once per process"):
        init_world("SetUpTable", 2, 42)  # the catalog is parsed here, if not before
        parses = []
        real = scenarios.load_catalog

        def counting(*args, **kwargs):
            parses.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scenarios, "load_catalog", counting)
        with open(GOLDEN_PATH) as handle:
            stored = json.load(handle)
        for config in GOLDEN_CONFIGS:
            # A rebuilt config checks its task name against the catalog again.
            result = run_episode(dataclasses.replace(config))
            assert trace_sha256(list(result.records)) == stored[config.key]
        assert parses == []


def test_one_team_merge_per_tick(monkeypatch):
    with criterion("the team belief is merged once per tick"):
        merges = []
        real = merge_team_belief

        def counting(beliefs):
            merges.append(len(beliefs))
            return real(beliefs)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] != "homecrew" or module is None:
                continue
            if getattr(module, "merge_team_belief", None) is real:
                monkeypatch.setattr(module, "merge_team_belief", counting)
        with open(GOLDEN_PATH) as handle:
            stored = json.load(handle)
        for config in GOLDEN_CONFIGS:
            merges.clear()
            result = run_episode(config)
            assert trace_sha256(list(result.records)) == stored[config.key]
            # The loop runs once per tick, plus the pass that finds the end.
            ticks = sum(1 for r in result.records if r["type"] == "tick")
            assert merges == [config.num_agents] * (ticks + 1), config.key

        state, _ = init_world("WashDishes", 3, 0)
        for agent_id in state.agents:
            observation = observe(state, agent_id, room_sightings(state))
            belief = perceive(observation, Belief.empty())
            assert observation.objects
            for sighting in observation.objects:
                assert belief.facts[sighting.object_id] is sighting
                assert sighting.observed_at == observation.tick


def test_allocation_reuses_the_round_team_belief(monkeypatch):
    # Teams of 1-6, past the shipped cap as above.
    rng = random.Random(44)
    with criterion("allocation with the round's team belief equals a fresh merge"):
        for trial in range(240):
            inputs = random_instance(rng, num_agents=1 + trial % 6)
            team = merge_team_belief([entry.belief for entry in inputs.entries])
            fresh = heuristic_allocation(inputs)
            with monkeypatch.context() as patch:
                # The package's allocate function shadows its module name.
                for name in ("allocate", "types"):
                    module = sys.modules[f"homecrew.coordination.{name}"]
                    if hasattr(module, "merge_team_belief"):
                        patch.setattr(module, "merge_team_belief", None)
                given = dataclasses.replace(inputs, team=team)
                assert given == inputs
                assert heuristic_allocation(given) == fresh, f"trial {trial} diverged"


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
        # Replay writes its own backend name into the header; every record
        # after it must be the recorded one.
        assert list(replayed.records)[1:] == list(recorded.records)[1:]


# Grammar fragments that junk replies mix in with the house's own names.
JUNK_TOKENS = (
    "propose:", "alt:", "why:", "FETCH(", "EXPLORE(", "IDLE", ")", ",", "1:", "2:", "\n"
)


class AdversarialBackend(Reasoner):
    """A text backend that answers each call with one of four draws: the
    heuristic's own decision in the reply grammar, junk made of the house's
    names, an empty reply, or a transport failure. It is named like the
    remote backend, so that replay accepts the header of its traces."""

    name = "remote"
    produces = TEXT

    def __init__(self, rng: random.Random, house):
        self.rng = rng
        names = {*house.rooms, *house.surfaces, *house.containers, *house.object_classes}
        self.words = sorted(names | set(house.object_classes.values())) + list(JUNK_TOKENS)
        self.heuristic = goldens.PromptCapture()

    def invoke(self, request):
        draw = self.rng.randrange(4)
        if draw == 0:
            return self.heuristic.invoke(request)
        if draw == 1:
            junk = self.rng.choices(self.words, k=self.rng.randint(1, 12))
            return " ".join(junk)
        if draw == 2:
            return ""
        raise RemoteBackendError(f"HTTP 503 after 3 attempt(s) at tick {request.tick}")


@settings(max_examples=40, deadline=None)
@given(
    task=st.sampled_from(TASKS),
    num_agents=st.integers(1, 3),
    variant=st.sampled_from(list(VARIANTS)),
    seed=st.integers(0, 99),
    stream=st.integers(0, 2**32 - 1),
)
def check_any_reply_stream(task, num_agents, variant, seed, stream):
    use_allocation, use_summaries = variant_flags(variant)
    config = EpisodeConfig(
        task=task,
        num_agents=num_agents,
        seed=seed,
        manager_backend="remote",
        member_backend="remote",
        use_allocation=use_allocation,
        use_summaries=use_summaries,
    )
    house = init_world(task, num_agents, seed)[0].house
    backend = AdversarialBackend(random.Random(stream), house)
    records = list(run_episode(config, backend, backend).records)
    degraded = [r for r in records if r["type"] == "allocation" and r["degraded"]]
    for record in degraded:
        assert 0 < len(record["note"]) <= NOTE_LIMIT, record
    replayed, ok, message = replay_trace(records)
    assert ok, message
    # Replay writes its own backend name into the header; the records after
    # it must be the recorded ones.
    assert list(replayed.records)[1:] == records[1:]


def test_any_reply_stream_runs_says_why_and_replays():
    with criterion("any reply stream runs, says why it degraded and replays"):
        check_any_reply_stream()


@settings(max_examples=100, deadline=None)
@given(
    task=st.sampled_from(TASKS),
    variant=st.sampled_from(list(VARIANTS)),
    num_agents=st.integers(1, 3),
    seed=st.integers(0, 99),
)
def check_text_path_matches_heuristic(task, variant, num_agents, seed):
    use_allocation, use_summaries = variant_flags(variant)
    config = EpisodeConfig(
        task=task,
        num_agents=num_agents,
        seed=seed,
        use_allocation=use_allocation,
        use_summaries=use_summaries,
    )
    heuristic = list(run_episode(config).records)
    capture = goldens.PromptCapture()
    text = [r for r in run_episode(config, capture, capture).records if r["type"] != "exchange"]
    # The headers differ only in the backend names.
    assert text[1:] == heuristic[1:], episode_module.divergence(heuristic, text)


def test_text_path_decides_as_the_heuristic():
    with criterion("a text backend answering as the heuristic writes its records"):
        check_text_path_matches_heuristic()


class DeadBackend(Reasoner):
    """A text backend whose every call fails in transport."""

    name = "remote"
    produces = TEXT

    def invoke(self, request):
        raise RemoteBackendError("connection refused")


class BlankBackend(Reasoner):
    """A text backend whose every reply is blank, which every kind refuses."""

    name = "remote"
    produces = TEXT

    def invoke(self, request):
        return "  \n "


# What a degraded run may record differently from a heuristic one.
DEGRADATION_FIELDS = ("attempts", "degraded", "note", "degraded_exchanges")


def decisions(records):
    """The records after the header, exchanges dropped, without the fields
    that say how a decision was reached."""
    return [
        {key: value for key, value in record.items() if key not in DEGRADATION_FIELDS}
        for record in records[1:]
        if record["type"] != "exchange"
    ]


@settings(max_examples=60, deadline=None)
@given(
    task=st.sampled_from(TASKS),
    variant=st.sampled_from(list(VARIANTS)),
    num_agents=st.integers(1, 3),
    seed=st.integers(0, 99),
    failing=st.sampled_from(("manager", "members", "both")),
)
def check_unusable_backend_decides_as_heuristic(task, variant, num_agents, seed, failing):
    use_allocation, use_summaries = variant_flags(variant)
    config = EpisodeConfig(
        task=task,
        num_agents=num_agents,
        seed=seed,
        use_allocation=use_allocation,
        use_summaries=use_summaries,
    )
    heuristic = decisions(run_episode(config).records)
    for backend in (DeadBackend(), BlankBackend()):
        manager = backend if failing != "members" else HeuristicReasoner()
        member = backend if failing != "manager" else HeuristicReasoner()
        records = list(run_episode(config, manager, member).records)
        assert decisions(records) == heuristic, (backend.__class__.__name__, failing)


def test_a_backend_with_no_usable_reply_decides_as_the_heuristic():
    with criterion("a backend with no usable reply decides as the heuristic"):
        check_unusable_backend_decides_as_heuristic()


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@lru_cache(maxsize=None)
def tamper_sources() -> dict:
    """Two recorded traces: a heuristic episode, and a text-backend episode
    whose replies mix the heuristic's answers with junk, empty replies and
    transport failures."""
    text = EpisodeConfig(
        task="PrepareTea", num_agents=3, seed=1,
        manager_backend="remote", member_backend="remote",
    )
    backend = AdversarialBackend(random.Random(7), init_world("PrepareTea", 3, 1)[0].house)
    return {
        "heuristic": run_episode(EpisodeConfig(task="WashDishes", num_agents=2, seed=0)).records,
        "text": run_episode(text, backend, backend).records,
    }


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(("heuristic", "text")), data=st.data())
def check_tampered_trace(source, data):
    records = copy.deepcopy(list(tamper_sources()[source]))
    # Exchange records are left out: a changed reply replays as a changed
    # decision, so its first difference is a later record.
    index = data.draw(
        st.sampled_from(
            [i for i, r in enumerate(records) if i and r["type"] != "exchange"]
        ),
        label="index",
    )
    record = records[index]
    key = data.draw(st.sampled_from(sorted(record)), label="key")
    old = render_line({key: record[key]})
    record[key] = data.draw(
        JSON_VALUES.filter(lambda value: render_line({key: value}) != old), label="value"
    )
    with mock.patch.object(
        episode_module, "run_episode", wraps=episode_module.run_episode
    ) as rerun:
        try:
            _, ok, message = replay_trace(records)
        except ContractViolation:
            assert not rerun.called
            return
    assert not ok
    assert message == f"record {index + 1} ({record.get('type')}) diverged at {key!r}"


def test_tampered_trace_is_refused_or_fails_at_that_record():
    with criterion("a tampered record is refused or named by replay"):
        for source, records in tamper_sources().items():
            _, ok, message = replay_trace(list(records))
            assert ok, (source, message)
        check_tampered_trace()


def test_stub_remote_episode_end_to_end(stub):
    stub.policy = approve_candidates
    with criterion("stub-backed remote episode end to end"):
        result = run_episode(remote_episode_config(stub))
        assert result.success
        assert result.end["summaries"] >= 1
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


def test_an_endpoint_refusing_every_request_runs_the_heuristic_episode(stub):
    stub.policy = unavailable
    with criterion("an endpoint refusing every request runs the heuristic episode"):
        config = remote_episode_config(stub, member_backend="remote")
        heuristic = run_episode(
            dataclasses.replace(config, manager_backend="heuristic", member_backend="heuristic")
        )
        result = run_episode(config)
        assert result.success
        assert result.end["steps"] == heuristic.end["steps"]
        assert result.degraded_exchanges > 0
        ticks = [r for r in result.records if r["type"] == "tick"]
        assert ticks == [r for r in heuristic.records if r["type"] == "tick"]
        # A transport failure ends a decision's asking at once.
        exchanges = [r for r in result.records if r["type"] == "exchange"]
        assert all(r["response"] is None for r in exchanges)
        assert len(stub.seen) == len(exchanges) * (1 + TRANSPORT_RETRIES)


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
            assert result.success and result.end["summaries"] >= 1
            assert result.degraded_exchanges == 0
            replayed, ok, message = replay_trace(records)
            assert ok, message
        assert digests[1] == digests[4]
        assert peaks[1] == 1
        assert 2 <= peaks[4] <= 4

        crashing = CrashingReasoner(RemoteConfig(stub.url, "house-7b"))
        try:
            with pytest.raises(RuntimeError, match="backend crashed"):
                run_episode(config, crashing, crashing)
        finally:
            crashing.close()
        assert not [
            t for t in threading.enumerate() if t.name.startswith("homecrew-round")
        ]
