"""Summary-memory tests: the trigger, interval algebra, fallbacks, and
the partition property over random episodes (every summary covers exactly
the records between consecutive progress changes, with no gaps or overlap).
"""

from __future__ import annotations

import random

import pytest

from walks import random_legal_joint
from homecrew.agents.belief import merge_team_belief
from homecrew.agents.records import HistoryRecord
from homecrew.coordination.types import AllocationInputs
from homecrew.errors import ContractViolation, RemoteBackendError
from homecrew.harness import episode
from homecrew.harness.config import EpisodeConfig
from homecrew.reasoner.base import ALLOCATE, SUMMARIZE, TEXT, Reasoner
from homecrew.reasoner.heuristic import HeuristicReasoner
from homecrew.reasoner.prompts import render_prompt
from homecrew.reasoner.scripted import ScriptedReasoner
from homecrew.summaries import (
    SUMMARY_CHAR_BUDGET,
    Summary,
    progress_since,
    slice_history,
    summarized_until,
    summarize,
    template_digest,
)
from homecrew.world.engine import evaluate_progress, transition
from homecrew.world.scenarios import init_world
from homecrew.world.types import ON, WAIT, Event, GoalPredicate, GoalSpec, TaskProgress

TASKS = ["PrepareAMeal", "PrepareTea", "PutGroceries", "SetUpTable", "WashDishes"]

GOAL = GoalSpec("PrepareTea", (GoalPredicate(ON, "cup", "kitchentable", 2),))


def record(tick, agent_id=1, events=()):
    return HistoryRecord(
        tick=tick,
        agent_id=agent_id,
        action=WAIT,
        events=tuple(events),
    )


def summary_for(interval, index, text="note", delta=1):
    lo, hi = interval
    return Summary(
        index=index,
        interval=interval,
        delta=delta,
        text=text,
    )


def run_partitioned(task, num_agents, seed, ticks=120):
    """Random-walk an episode while maintaining the summary store exactly the
    way a driver would; returns the store, the change ticks, and the log."""
    state, goal = init_world(task, num_agents, seed)
    rng = random.Random(seed * 613 + 7)
    reasoner = HeuristicReasoner()
    records = []
    collected = ()
    change_ticks = []
    for _ in range(ticks):
        joint = random_legal_joint(state, rng)
        state, events = transition(state, joint)
        for agent_id in sorted(joint):
            records.append(
                HistoryRecord(
                    tick=state.tick,
                    agent_id=agent_id,
                    action=joint[agent_id],
                    events=tuple(e for e in events if e.agent_id == agent_id),
                )
            )
        progress = evaluate_progress(state, goal)
        window = slice_history(records, summarized_until(collected), state.tick)
        delta = progress_since(collected, progress)
        if delta:
            change_ticks.append(state.tick)
            summary, attempts, note = summarize(
                reasoner, collected, window, delta, state.tick, goal=goal
            )
            assert (attempts, note) == (1, None)
            collected += (summary,)
    return collected, change_ticks, records


class TestIntervals:
    def test_progress_since_is_satisfied_count_only(self):
        # The summaries' deltas add up to the satisfied count they last saw.
        saw_none, saw_two = (), (summary_for((0, 2), 1, delta=2),)
        saw_one = (summary_for((0, 2), 1, delta=2), summary_for((2, 4), 2, delta=-1))
        assert progress_since(saw_none, TaskProgress(1, 3, (1, 0))) == 1
        assert progress_since(saw_two, TaskProgress(1, 3, (1, 0))) == -1
        assert progress_since(saw_one, TaskProgress(1, 3, (0, 1))) == 0

    def test_slice_history_half_open(self):
        log = [record(t) for t in range(1, 7)]
        assert [r.tick for r in slice_history(log, 2, 5)] == [3, 4, 5]
        assert [r.tick for r in slice_history(log, 0, 2)] == [1, 2]
        assert slice_history(log, 5, 5) == []
        covered = slice_history(log, 0, 3) + slice_history(log, 3, 6)
        assert covered == log

    def test_summarize_numbers_and_places_after_the_last(self):
        reasoner, collected = HeuristicReasoner(), ()
        for tick in (3, 5):
            collected += (summarize(reasoner, collected, [record(tick)], 1, tick, goal=GOAL)[0],)
        summary, _, _ = summarize(reasoner, collected, [record(9)], 1, 9, goal=GOAL)
        assert [s.index for s in collected] == [1, 2]
        assert [s.interval for s in collected] == [(0, 3), (3, 5)]
        assert (summary.index, summary.interval) == (3, (5, 9))
        assert summary.render_line() == f"[3] ticks 6-9: {summary.text}"
        assert summarized_until(collected + (summary,)) == 9

    def test_summarize_refuses_a_tick_not_after_the_last(self):
        collected = (summarize(HeuristicReasoner(), (), [record(4)], 1, 4, goal=GOAL)[0],)
        assert collected[0].render_line() == f"[1] ticks 1-4: {collected[0].text}"
        for tick in (4, 3):
            with pytest.raises(ContractViolation, match="empty or inverted summary interval"):
                summarize(HeuristicReasoner(), collected, [record(4)], 1, tick, goal=GOAL)

    def test_rendered_lines_most_recent_first(self):
        collected = (summary_for((0, 3), 1, "first"), summary_for((3, 5), 2, "second"))
        state, goal = init_world("PrepareTea", 1, seed=0)
        inputs = AllocationInputs(
            tick=0,
            entries=(),
            house=state.house,
            summaries=collected,
            progress=evaluate_progress(state, goal),
            goal=goal,
            team=merge_team_belief([]),
        )
        prompt = render_prompt(ALLOCATE, inputs)
        section = prompt.split("## Collaboration summary (most recent first)\n")[1]
        lines = section.split("\n\n")[0].splitlines()
        assert lines == ["[2] ticks 4-5: second", "[1] ticks 1-3: first"]


class TestSummarize:
    def test_empty_slice_raises(self):
        with pytest.raises(ContractViolation):
            summarize(HeuristicReasoner(), (), [], 1, 2, goal=GOAL)

    def test_zero_delta_raises(self):
        with pytest.raises(ContractViolation):
            summarize(HeuristicReasoner(), (), [record(1)], 0, 1, goal=GOAL)

    def test_structured_backend_writes_template_digest(self):
        events = [Event(2, 1, "placed", "1 placed plate_1 on kitchentable")]
        records = [record(1), record(2, events=events)]
        summary, attempts, note = summarize(HeuristicReasoner(), (), records, 1, 2, goal=GOAL)
        assert summary.text == template_digest(records, 1)
        assert "progress +1" in summary.text
        assert "plate_1" in summary.text
        assert (attempts, note) == (1, None)
        assert summary == Summary(
            index=1, interval=(0, 2), delta=1, text=template_digest(records, 1)
        )

    def test_template_digest_counts_setbacks(self):
        events = [
            Event(3, 2, "conflict", "grab clash"),
            Event(3, 1, "failure", "illegal action"),
        ]
        text = template_digest([record(3, events=events)], -1)
        assert "progress -1" in text
        assert "1 conflict(s)" in text
        assert "1 failed action(s)" in text

    def test_text_backend_collapses_whitespace(self):
        scripted = ScriptedReasoner(
            {(SUMMARIZE, 2, 0): ["  agent 1   delivered\nthe plate  "]}
        )
        summary, attempts, note = summarize(scripted, (), [record(1), record(2)], 1, 2, goal=GOAL)
        assert summary.text == "agent 1 delivered the plate"
        assert (attempts, note) == (1, None)

    def test_text_backend_blank_degrades(self):
        scripted = ScriptedReasoner({(SUMMARIZE, 1, 0): ["   \n  "]})
        summary, attempts, note = summarize(scripted, (), [record(1)], 1, 1, goal=GOAL)
        assert (attempts, note) == (1, "empty summary")
        assert summary.text == template_digest([record(1)], 1)

    def test_transport_error_degrades(self):
        class ExplodingReasoner(Reasoner):
            name = "exploding"
            produces = TEXT

            def invoke(self, request):
                raise RemoteBackendError("down")

        summary, attempts, note = summarize(ExplodingReasoner(), (), [record(1)], 1, 1, goal=GOAL)
        assert (attempts, note) == (1, "down")
        assert summary.text == template_digest([record(1)], 1)

    def test_character_budget_clips(self):
        scripted = ScriptedReasoner({(SUMMARIZE, 1, 0): ["x" * 3000]})
        summary, _, note = summarize(scripted, (), [record(1)], 1, 1, goal=GOAL)
        assert len(summary.text) == 512 and note is None


class TestPartitionProperty:
    # 5 tasks x 12 seeds = 60 random episodes
    @pytest.mark.parametrize("task", TASKS)
    def test_summaries_tile_history(self, task):
        total_changes = 0
        for seed in range(12):
            collected, change_ticks, records = run_partitioned(task, 2, seed)
            total_changes += len(change_ticks)
            assert len(collected) == len(change_ticks)
            previous_end = 0
            for summary, change_tick in zip(collected, change_ticks):
                lo, hi = summary.interval
                assert lo == previous_end
                assert hi == change_tick
                assert summary.text == template_digest(
                    slice_history(records, lo, hi), summary.delta
                )[:SUMMARY_CHAR_BUDGET]
                assert summary.text and len(summary.text) <= SUMMARY_CHAR_BUDGET
                previous_end = hi
            if change_ticks:
                rebuilt = []
                previous_end = 0
                for summary in collected:
                    rebuilt.extend(
                        slice_history(records, previous_end, summary.interval[1])
                    )
                    previous_end = summary.interval[1]
                assert rebuilt == slice_history(records, 0, change_ticks[-1])
        # random walks reliably bump progress at least somewhere in 12 seeds
        assert total_changes > 0

    @pytest.mark.parametrize("task", TASKS)
    def test_episode_summaries_digest_the_reference_slice(self, task, monkeypatch):
        """Every summary a heuristic episode writes is the template digest of
        slice_history over the episode's whole history for its interval, so
        the loop's running window holds exactly the records since the last
        summary."""
        history = []

        def recording_transition(state, joint):
            after, events = transition(state, joint)
            history.extend(
                HistoryRecord(
                    after.tick, i, joint[i], tuple(e for e in events if e.agent_id == i)
                )
                for i in sorted(joint)
            )
            return after, events

        monkeypatch.setattr(episode, "transition", recording_transition)
        checked = 0
        for num_agents in (1, 2, 3):
            for seed in range(3):
                history.clear()
                config = EpisodeConfig(task=task, num_agents=num_agents, seed=seed)
                for record in episode.run_episode(config).records:
                    if record["type"] != "summary":
                        continue
                    lo, hi = record["interval"]
                    assert record["text"] == template_digest(
                        slice_history(history, lo, hi), record["delta"]
                    )[:SUMMARY_CHAR_BUDGET]
                    checked += 1
        assert checked > 0
