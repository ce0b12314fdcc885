"""Prompt rendering and backend plumbing tests.

Prompts must be pure functions of the decision's inputs; the scripted
backend must hand out fixtures in FIFO order and refuse to improvise past
them.
"""

from __future__ import annotations

import dataclasses

import pytest

import update_goldens as goldens
from homecrew.agents.belief import Belief, Fact, merge_team_belief
from homecrew.agents.execution import MacroTask
from homecrew.agents.records import HistoryRecord
from homecrew.coordination.allocate import (
    allocate_with_report, assemble_context, heuristic_allocation
)
from homecrew.coordination.negotiate import heuristic_proposal, make_proposal
from homecrew.coordination.types import AgentView, AllocationInputs, Proposal
from homecrew.errors import ContractViolation, FixtureExhausted
from homecrew.harness.config import EpisodeConfig
from homecrew.harness.episode import run_episode
from homecrew.harness.trace import check_trace
from homecrew.reasoner.base import (
    ALLOCATE, PARSE_RETRIES, PROPOSE, SUMMARIZE, TEXT, Reasoner, ReasonerRequest
)
from homecrew.reasoner.heuristic import HeuristicReasoner
from homecrew.reasoner.parsing import parse_reply
from homecrew.reasoner.prompts import NO_SUMMARIES_MARKER, render_prompt
from homecrew.reasoner.scripted import ScriptedReasoner, exchange_entry, load_fixtures
from homecrew.summaries import Summary, SummaryInputs, summarize, template_digest
from homecrew.world.engine import evaluate_progress, observe, room_sightings
from homecrew.world.scenarios import init_world
from homecrew.world.types import IN, Action, goal_location


def propose_view() -> AgentView:
    """Agent 2 of 3 on WashDishes, believing one plate already sits in the
    dishwasher: 1 of the task's 3 goal units."""
    state, goal = init_world("WashDishes", 3, seed=0)
    classes = state.house.object_classes
    plate = next(oid for oid in sorted(state.locations) if classes[oid] == "plate")
    fact = Fact(plate, "plate", goal_location(IN, "dishwasher"), state.tick)
    belief = dataclasses.replace(Belief.empty(), facts={plate: fact})
    return AgentView(
        agent_id=2,
        tick=state.tick,
        num_agents=3,
        house=state.house,
        goal=goal,
        progress=evaluate_progress(belief, goal),
        observation=observe(state, 2, room_sightings(state)),
        belief=belief,
    )


def allocation_inputs(summary_texts=()) -> AllocationInputs:
    """Three PrepareTea agents, each proposing to explore the bedroom, and
    one summary per text, the first covering ticks 1-4."""
    state, goal = init_world("PrepareTea", 3, seed=0)
    agent_ids = sorted(state.agents)
    proposals = [
        Proposal(i, MacroTask.explore("bedroom"), f"agent {i} reasoning", (MacroTask.idle(),))
        for i in agent_ids
    ]
    beliefs = {i: Belief.empty() for i in agent_ids}
    observations = {i: observe(state, i, room_sightings(state)) for i in agent_ids}
    bounds = (0, 4, 9)
    summaries = tuple(
        Summary(index, (bounds[index - 1], bounds[index]), 1, text)
        for index, text in enumerate(summary_texts, 1)
    )
    return AllocationInputs(
        tick=state.tick,
        entries=assemble_context(proposals, beliefs, observations),
        house=state.house,
        summaries=summaries,
        progress=evaluate_progress(state, goal),
        goal=goal,
        team=merge_team_belief([beliefs[i] for i in agent_ids]),
    )


def summary_inputs(interval=(3, 8), delta=2) -> SummaryInputs:
    _, goal = init_world("PrepareTea", 1, seed=0)
    records = (HistoryRecord(5, 1, Action("GRAB", "cup_1"), ()),)
    return SummaryInputs(records=records, delta=delta, interval=interval, goal=goal)


class TestPrompts:
    def test_rendering_is_deterministic(self):
        for kind, inputs in [
            (PROPOSE, propose_view()),
            (ALLOCATE, allocation_inputs(("first delivery",))),
            (SUMMARIZE, summary_inputs((0, 4), 1)),
        ]:
            assert render_prompt(kind, inputs) == render_prompt(kind, inputs)

    def test_propose_prompt_sections(self):
        text = render_prompt(PROPOSE, propose_view())
        assert "agent 2" in text and "team of 3" in text
        assert "WashDishes" in text
        assert "1/3 goal units satisfied" in text
        assert "## Response format" in text
        assert "propose:" in text

    def test_allocate_prompt_lists_agents_in_order(self):
        text = render_prompt(ALLOCATE, allocation_inputs())
        first = text.index("### agent 1")
        second = text.index("### agent 2")
        third = text.index("### agent 3")
        assert first < second < third
        assert "agent 2 reasoning" in text

    def test_allocate_prompt_marks_missing_summaries(self):
        bare = render_prompt(ALLOCATE, allocation_inputs())
        assert NO_SUMMARIES_MARKER in bare
        filled = render_prompt(ALLOCATE, allocation_inputs(("y", "x")))
        assert NO_SUMMARIES_MARKER not in filled
        assert filled.index("[2] ticks 5-9: x") < filled.index("[1] ticks 1-4: y")

    def test_summarize_prompt_carries_interval_and_records(self):
        text = render_prompt(SUMMARIZE, summary_inputs())
        assert "Between tick 4 and tick 8" in text
        assert "by 2 unit(s)" in text
        assert "t=5 agent 1: GRAB(cup_1)" in text

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolation):
            render_prompt("daydream", propose_view())


class TestScripted:
    def test_fifo_per_key(self):
        scripted = ScriptedReasoner({(PROPOSE, 3, 1): ["first", "second"]})
        request = ReasonerRequest(
            kind=PROPOSE, rendered_prompt="", structured_payload=None, tick=3, agent_id=1
        )
        assert scripted.invoke(request) == "first"
        assert scripted.invoke(request) == "second"
        with pytest.raises(FixtureExhausted):
            scripted.invoke(request)

    def test_exhaustion_is_an_error(self):
        scripted = ScriptedReasoner({})
        request = ReasonerRequest(
            kind=ALLOCATE, rendered_prompt="", structured_payload=None, tick=0, agent_id=1
        )
        with pytest.raises(FixtureExhausted):
            scripted.invoke(request)

    def test_keys_are_kind_tick_agent(self):
        scripted = ScriptedReasoner({(PROPOSE, 1, 1): ["a"], (PROPOSE, 1, 2): ["b"]})
        req1 = ReasonerRequest(
            kind=PROPOSE, rendered_prompt="", structured_payload=None, tick=1, agent_id=2
        )
        assert scripted.invoke(req1) == "b"

    def test_check_trace_queues_exchanges_in_recorded_order(self):
        recorded = run_episode(EpisodeConfig(task="WashDishes", num_agents=1)).records
        exchanges = [
            {"type": "exchange", "kind": kind, "tick": 1, "agent_id": 1, "response": reply}
            for kind, reply in ((PROPOSE, "x"), (PROPOSE, "y"), (ALLOCATE, "z"))
        ]
        _, fixtures = check_trace([recorded[0], *exchanges, recorded[-1]])
        assert fixtures == {(PROPOSE, 1, 1): ["x", "y"], (ALLOCATE, 1, 1): ["z"]}
        scripted = ScriptedReasoner(fixtures)
        request = ReasonerRequest(
            kind=PROPOSE, rendered_prompt="", structured_payload=None, tick=1, agent_id=1
        )
        assert scripted.invoke(request) == "x"
        assert scripted.invoke(request) == "y"
        with pytest.raises(FixtureExhausted):
            scripted.invoke(request)
        allocate = dataclasses.replace(request, kind=ALLOCATE)
        assert scripted.invoke(allocate) == "z"
        with pytest.raises(FixtureExhausted):
            scripted.invoke(allocate)

    def test_load_fixtures_round_trip(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        path.write_text(
            '{"kind": "PROPOSE", "tick": 2, "agent_id": 1, "response": "one"}\n'
            "\n"
            '{"kind": "PROPOSE", "tick": 2, "agent_id": 1, "response": "two"}\n',
            encoding="utf-8",
        )
        fixtures = load_fixtures(str(path))
        assert fixtures == {(PROPOSE, 2, 1): ["one", "two"]}


class TestAsk:
    """The re-ask rule ``ask`` applies by request kind, seen through the
    queue a scripted backend has left: the reply after the last one asked
    stays queued."""

    BLANK = "  \n "

    @staticmethod
    def next_reply(scripted, kind, tick, agent_id):
        return scripted.invoke(ReasonerRequest(kind, None, tick=tick, agent_id=agent_id))

    def test_a_blank_summary_degrades_after_one_ask(self):
        inputs = summary_inputs()
        tick = inputs.interval[1]
        scripted = ScriptedReasoner({(SUMMARIZE, tick, 0): [self.BLANK, "unasked"]})
        summary, attempts, note = summarize(
            scripted, (), inputs.records, inputs.delta, tick, goal=inputs.goal
        )
        assert (attempts, note) == (1, "empty summary")
        assert summary.text == template_digest(inputs.records, inputs.delta)
        assert self.next_reply(scripted, SUMMARIZE, tick, 0) == "unasked"

    def test_a_blank_proposal_is_re_asked_then_degrades(self):
        view = propose_view()
        key = (PROPOSE, view.tick, view.agent_id)
        scripted = ScriptedReasoner({key: [self.BLANK] * (1 + PARSE_RETRIES) + ["unasked"]})
        proposal, attempts, note = make_proposal(scripted, view)
        assert note is not None and attempts == 1 + PARSE_RETRIES
        assert proposal == heuristic_proposal(view)
        assert self.next_reply(scripted, *key) == "unasked"

    def test_a_blank_allocation_is_re_asked_then_degrades(self):
        inputs = allocation_inputs()
        key = (ALLOCATE, inputs.tick, min(inputs.agent_ids()))
        scripted = ScriptedReasoner({key: [self.BLANK] * (1 + PARSE_RETRIES) + ["unasked"]})
        joint, attempts, note = allocate_with_report(scripted, inputs)
        assert note is not None and attempts == 1 + PARSE_RETRIES
        assert joint == heuristic_allocation(inputs)
        assert self.next_reply(scripted, *key) == "unasked"

    def test_a_transport_failure_with_no_message_still_degrades(self):
        """An empty note still marks a decision degraded: only None does not."""
        failure = {"response": None, "error": ""}
        view, inputs = propose_view(), allocation_inputs()
        keys = [(PROPOSE, view.tick, view.agent_id), (ALLOCATE, inputs.tick, 1)]
        entries = [
            exchange_entry({**failure, "kind": kind, "tick": tick, "agent_id": agent_id})
            for kind, tick, agent_id in keys
        ]
        scripted = ScriptedReasoner({key: [value] for key, value in entries})
        assert make_proposal(scripted, view) == (heuristic_proposal(view), 1, "")
        assert allocate_with_report(scripted, inputs) == (heuristic_allocation(inputs), 1, "")

        class FailingAtTickZero(Reasoner):
            """The fixtures' empty failures at tick 0; the heuristic's
            replies everywhere else."""

            produces = TEXT

            def __init__(self):
                self.scripted = ScriptedReasoner({key: [value] for key, value in entries})
                self.capture = goldens.PromptCapture()

            def invoke(self, request):
                try:
                    return self.scripted.invoke(request)
                except FixtureExhausted:
                    return self.capture.invoke(request)

        backend = FailingAtTickZero()
        config = EpisodeConfig(task="PrepareTea", num_agents=3, seed=0)
        result = run_episode(config, backend, backend)
        assert result.success
        assert result.degraded_exchanges == 2

    def test_one_degraded_decision_of_each_kind_counts_three(self, monkeypatch):
        """The loop counts a decision degraded exactly when its step returns a
        note, and the step returns ask's note as it is."""

        class OneOfEach(Reasoner):
            """The heuristic's replies, except on agent 1's tick-0 proposal, the
            tick-0 allocation and the first summary."""

            name = "one-of-each"
            produces = TEXT

            def __init__(self):
                self.capture = goldens.PromptCapture()
                self.summaries = 0

            def invoke(self, request):
                if request.kind == SUMMARIZE:
                    self.summaries += 1
                    if self.summaries == 1:
                        return TestAsk.BLANK
                elif request.tick == 0 and request.kind == ALLOCATE:
                    return "1: DANCE()\n2: IDLE"
                elif request.tick == 0 and request.agent_id == 1:
                    return TestAsk.BLANK
                return self.capture.invoke(request)

        notes = []

        def noting(step, kind):
            def wrapped(*args, **kwargs):
                outcome = step(*args, **kwargs)
                if outcome[2] is not None:
                    notes.append((kind, outcome[1], outcome[2]))
                return outcome

            return wrapped

        episode = "homecrew.harness.episode."
        monkeypatch.setattr(episode + "make_proposal", noting(make_proposal, PROPOSE))
        monkeypatch.setattr(
            episode + "allocate_with_report", noting(allocate_with_report, ALLOCATE)
        )
        monkeypatch.setattr(episode + "summarize", noting(summarize, SUMMARIZE))
        backend = OneOfEach()
        config = EpisodeConfig(task="PrepareTea", num_agents=2, seed=0)
        result = run_episode(config, backend, backend)
        assert result.degraded_exchanges == 3
        attempts = 1 + PARSE_RETRIES
        assert notes == [
            (PROPOSE, attempts, "missing propose line"),
            (ALLOCATE, attempts, "unknown task form 'DANCE': 'DANCE()'"),
            (SUMMARIZE, 1, "empty summary"),
        ]
        allocation = next(r for r in result.records if r["type"] == "allocation")
        assert (allocation["attempts"], allocation["degraded"]) == (attempts, True)
        assert allocation["note"] == notes[1][2]
        summaries = [r["degraded"] for r in result.records if r["type"] == "summary"]
        assert summaries[0] and not any(summaries[1:])


class TestHeuristicBackend:
    def test_unknown_kind_rejected(self):
        request = ReasonerRequest(
            kind="daydream", rendered_prompt="", structured_payload=None
        )
        with pytest.raises(ContractViolation):
            HeuristicReasoner().invoke(request)

    def test_a_reply_to_an_unknown_kind_is_not_parsed(self):
        with pytest.raises(ContractViolation, match="unknown request kind: daydream"):
            parse_reply("daydream", "IDLE", None)

    def test_the_base_backend_decides_nothing(self):
        request = ReasonerRequest(kind=PROPOSE, rendered_prompt="", structured_payload=None)
        with pytest.raises(NotImplementedError):
            Reasoner().invoke(request)
