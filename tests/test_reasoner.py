"""Prompt rendering and backend plumbing tests.

Prompts must be pure functions of their payloads; the scripted backend must
hand out fixtures in FIFO order and refuse to improvise past them.
"""

from __future__ import annotations

import pytest

from homecrew.errors import ConfigError, ContractViolation, FixtureExhausted
from homecrew.reasoner import (
    ALLOCATE,
    NO_SUMMARIES_MARKER,
    PROPOSE,
    SUMMARIZE,
    AgentBlock,
    AllocatePayload,
    HeuristicReasoner,
    ProposePayload,
    ReasonerRequest,
    ScriptedReasoner,
    SummarizePayload,
    load_fixtures,
    render_prompt,
)


def propose_payload(**overrides):
    fields = dict(
        agent_id=2,
        num_agents=3,
        tick=7,
        goal_text="WashDishes: 2x plate IN dishwasher",
        progress_line="1/3 goal units satisfied (tick 7)",
        belief_text="belief: 0 facts",
        observation_text="room: kitchen",
        history_text="(no recent activity)",
        task_forms=("IDLE",),
    )
    fields.update(overrides)
    return ProposePayload(**fields)


def allocate_payload(summary_lines=()):
    blocks = tuple(
        AgentBlock(
            agent_id=i,
            proposal_line=f"EXPLORE(bedroom)",
            rationale=f"agent {i} reasoning",
            alternative_lines=("IDLE",),
            belief_text="goal objects: none seen",
            observation_text=f"room: kitchen",
        )
        for i in (1, 2, 3)
    )
    return AllocatePayload(
        tick=4,
        goal_text="PrepareTea: 2x cup ON kitchentable",
        progress_line="0/4 goal units satisfied (tick 4)",
        summary_lines=tuple(summary_lines),
        blocks=blocks,
        agent_ids=(1, 2, 3),
        task_forms=("IDLE",),
    )


class TestPrompts:
    def test_rendering_is_deterministic(self):
        for kind, payload in [
            (PROPOSE, propose_payload()),
            (ALLOCATE, allocate_payload(("[1] ticks 1-4: first delivery",))),
            (SUMMARIZE, SummarizePayload((0, 4), 1, "goal", ("t=1 agent 1: WAIT",))),
        ]:
            assert render_prompt(kind, payload) == render_prompt(kind, payload)

    def test_propose_prompt_sections(self):
        text = render_prompt(PROPOSE, propose_payload())
        assert "agent 2" in text and "team of 3" in text
        assert "WashDishes" in text
        assert "1/3 goal units satisfied" in text
        assert "## Response format" in text
        assert "propose:" in text

    def test_allocate_prompt_lists_agents_in_order(self):
        text = render_prompt(ALLOCATE, allocate_payload())
        first = text.index("### agent 1")
        second = text.index("### agent 2")
        third = text.index("### agent 3")
        assert first < second < third
        assert "agent 2 reasoning" in text

    def test_allocate_prompt_marks_missing_summaries(self):
        bare = render_prompt(ALLOCATE, allocate_payload())
        assert NO_SUMMARIES_MARKER in bare
        filled = render_prompt(
            ALLOCATE, allocate_payload(("[2] ticks 5-9: x", "[1] ticks 1-4: y"))
        )
        assert NO_SUMMARIES_MARKER not in filled
        assert filled.index("[2] ticks 5-9: x") < filled.index("[1] ticks 1-4: y")

    def test_summarize_prompt_carries_interval_and_records(self):
        text = render_prompt(
            SUMMARIZE,
            SummarizePayload((3, 8), 2, "goal text", ("t=5 agent 1: GRAB(cup_1)",)),
        )
        assert "Between tick 4 and tick 8" in text
        assert "by 2 unit(s)" in text
        assert "t=5 agent 1: GRAB(cup_1)" in text

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            render_prompt("daydream", propose_payload())


class TestScripted:
    def test_fifo_per_key(self):
        scripted = ScriptedReasoner({(PROPOSE, 3, 1): ["first", "second"]})
        request = ReasonerRequest(
            kind=PROPOSE, rendered_prompt="", structured_payload=None, tick=3, agent_id=1
        )
        assert scripted.invoke(request).raw_text == "first"
        assert scripted.invoke(request).raw_text == "second"
        assert scripted.pending() == 0

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
        assert scripted.invoke(req1).raw_text == "b"

    def test_from_exchanges_preserves_order(self):
        scripted = ScriptedReasoner.from_exchanges(
            [(PROPOSE, 1, 1, "x"), (PROPOSE, 1, 1, "y"), (ALLOCATE, 1, 1, "z")]
        )
        assert scripted.pending() == 3
        request = ReasonerRequest(
            kind=PROPOSE, rendered_prompt="", structured_payload=None, tick=1, agent_id=1
        )
        assert scripted.invoke(request).raw_text == "x"
        assert scripted.invoke(request).raw_text == "y"

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


class TestHeuristicBackend:
    def test_unknown_kind_rejected(self):
        request = ReasonerRequest(
            kind="daydream", rendered_prompt="", structured_payload=None
        )
        with pytest.raises(ContractViolation):
            HeuristicReasoner().invoke(request)
