"""Summary-memory tests: change detection, interval algebra, fallbacks, and
the partition property over random episodes (every summary covers exactly
the records between consecutive progress changes, with no gaps or overlap).
"""

from __future__ import annotations

import random

import pytest

from homecrew.agents.records import HistoryRecord
from homecrew.errors import ContractViolation, RemoteBackendError
from homecrew.reasoner import (
    SUMMARIZE,
    TEXT,
    HeuristicReasoner,
    Reasoner,
    ScriptedReasoner,
)
from homecrew.summaries import (
    SUMMARY_CHAR_BUDGET,
    CollaborativeSummary,
    Summary,
    append,
    detect_change,
    slice_history,
    summarize,
    template_digest,
)
from homecrew.world import (
    WAIT,
    Event,
    TaskProgress,
    evaluate_progress,
    init_world,
    legal_actions,
    transition,
)

TASKS = ["PrepareAMeal", "PrepareTea", "PutGroceries", "SetUpTable", "WashDishes"]


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
        source_record_count=hi - lo,
    )


def run_partitioned(task, num_agents, seed, ticks=120):
    """Random-walk an episode while maintaining the summary store exactly the
    way a driver would; returns the store, the change ticks, and the log."""
    state, goal = init_world(task, num_agents, seed)
    rng = random.Random(seed * 613 + 7)
    reasoner = HeuristicReasoner()
    records = []
    collected = CollaborativeSummary.empty()
    last = evaluate_progress(state, goal)
    t_last = 0
    change_ticks = []
    for _ in range(ticks):
        joint = {
            i: rng.choice(sorted(legal_actions(state, i), key=lambda a: a.render()))
            for i in state.agents
        }
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
        if detect_change(progress, last):
            change_ticks.append(state.tick)
            window = slice_history(records, t_last, state.tick)
            summary = summarize(
                reasoner,
                window,
                progress.satisfied - last.satisfied,
                (t_last, state.tick),
                index=len(collected) + 1,
                goal=goal,
            )
            collected = append(collected, summary)
            t_last = state.tick
            last = progress
    return collected, change_ticks, records


class TestIntervals:
    def test_detect_change_is_satisfied_count_only(self):
        assert detect_change(TaskProgress(1, 3, (1, 0)), TaskProgress(0, 3, (0, 0)))
        assert detect_change(TaskProgress(1, 3, (1, 0)), TaskProgress(2, 3, (2, 0)))
        assert not detect_change(
            TaskProgress(1, 3, (1, 0)), TaskProgress(1, 3, (0, 1))
        )

    def test_slice_history_half_open(self):
        log = [record(t) for t in range(1, 7)]
        assert [r.tick for r in slice_history(log, 2, 5)] == [3, 4, 5]
        assert [r.tick for r in slice_history(log, 0, 2)] == [1, 2]
        assert slice_history(log, 5, 5) == []
        covered = slice_history(log, 0, 3) + slice_history(log, 3, 6)
        assert covered == log

    def test_append_builds_adjacent_chain(self):
        collected = CollaborativeSummary.empty()
        for index, interval in enumerate([(0, 3), (3, 5), (5, 9)], start=1):
            collected = append(collected, summary_for(interval, index))
        assert len(collected) == 3
        assert [s.interval for s in collected.entries] == [(0, 3), (3, 5), (5, 9)]

    def test_append_rejects_wrong_index(self):
        collected = append(CollaborativeSummary.empty(), summary_for((0, 2), 1))
        with pytest.raises(ContractViolation):
            append(collected, summary_for((2, 4), 3))

    def test_append_rejects_gap(self):
        collected = append(CollaborativeSummary.empty(), summary_for((0, 2), 1))
        with pytest.raises(ContractViolation):
            append(collected, summary_for((3, 4), 2))

    def test_append_rejects_empty_interval(self):
        with pytest.raises(ContractViolation):
            append(CollaborativeSummary.empty(), summary_for((4, 4), 1))

    def test_rendered_lines_most_recent_first(self):
        collected = append(CollaborativeSummary.empty(), summary_for((0, 3), 1, "first"))
        collected = append(collected, summary_for((3, 5), 2, "second"))
        lines = collected.rendered_lines()
        assert lines == ("[2] ticks 4-5: second", "[1] ticks 1-3: first")


class TestSummarize:
    def test_empty_slice_raises(self):
        with pytest.raises(ContractViolation):
            summarize(HeuristicReasoner(), [], 1, (0, 2))

    def test_zero_delta_raises(self):
        with pytest.raises(ContractViolation):
            summarize(HeuristicReasoner(), [record(1)], 0, (0, 1))

    def test_structured_backend_writes_template_digest(self):
        events = [Event(2, 1, "placed", "1 placed plate_1 on kitchentable")]
        records = [record(1), record(2, events=events)]
        summary = summarize(HeuristicReasoner(), records, 1, (0, 2))
        assert summary.text == template_digest(records, 1)
        assert "progress +1" in summary.text
        assert "plate_1" in summary.text
        assert not summary.degraded
        assert summary.source_record_count == 2

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
        summary = summarize(scripted, [record(1), record(2)], 1, (0, 2))
        assert summary.text == "agent 1 delivered the plate"
        assert not summary.degraded

    def test_text_backend_blank_degrades(self):
        scripted = ScriptedReasoner({(SUMMARIZE, 1, 0): ["   \n  "]})
        summary = summarize(scripted, [record(1)], 1, (0, 1))
        assert summary.degraded
        assert summary.text == template_digest([record(1)], 1)

    def test_transport_error_degrades(self):
        class ExplodingReasoner(Reasoner):
            name = "exploding"
            produces = TEXT

            def invoke(self, request):
                raise RemoteBackendError("down")

        summary = summarize(ExplodingReasoner(), [record(1)], 1, (0, 1))
        assert summary.degraded
        assert summary.text == template_digest([record(1)], 1)

    def test_character_budget_clips(self):
        scripted = ScriptedReasoner({(SUMMARIZE, 1, 0): ["x" * 3000]})
        summary = summarize(scripted, [record(1)], 1, (0, 1))
        assert len(summary.text) == SUMMARY_CHAR_BUDGET


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
            for summary, change_tick in zip(collected.entries, change_ticks):
                lo, hi = summary.interval
                assert lo == previous_end
                assert hi == change_tick
                assert summary.source_record_count == len(
                    slice_history(records, lo, hi)
                )
                assert summary.text and len(summary.text) <= SUMMARY_CHAR_BUDGET
                assert not summary.degraded
                previous_end = hi
            if change_ticks:
                rebuilt = []
                previous_end = 0
                for summary in collected.entries:
                    rebuilt.extend(
                        slice_history(records, previous_end, summary.interval[1])
                    )
                    previous_end = summary.interval[1]
                assert rebuilt == slice_history(records, 0, change_ticks[-1])
        # random walks reliably bump progress at least somewhere in 12 seeds
        assert total_changes > 0
